let cnf_of_core ~nprimary (f : Formula.t) : Cnf.t =
  if Formula.max_var f > nprimary then
    invalid_arg "Tseitin.cnf_of: formula mentions a variable above nprimary";
  let next_var = ref nprimary in
  let clauses = ref [] in
  let emit c = clauses := Array.of_list c :: !clauses in
  let fresh () =
    incr next_var;
    !next_var
  in
  let memo : (int, Lit.t) Hashtbl.t = Hashtbl.create 256 in
  (* Returns a literal equivalent to the subformula.  [True]/[False]
     only occur at the root thanks to smart-constructor folding. *)
  let rec lit_of (g : Formula.t) : Lit.t =
    match Hashtbl.find_opt memo g.id with
    | Some l -> l
    | None ->
        let l =
          match g.node with
          | Formula.Var v -> Lit.pos v
          | Formula.Not h -> Lit.neg (lit_of h)
          | Formula.And xs ->
              let ls = Array.map lit_of xs in
              let a = Lit.pos (fresh ()) in
              (* a -> xi *)
              Array.iter (fun l -> emit [ Lit.neg a; l ]) ls;
              (* (x1 & ... & xk) -> a *)
              emit (a :: Array.to_list (Array.map Lit.neg ls));
              a
          | Formula.Or xs ->
              let ls = Array.map lit_of xs in
              let a = Lit.pos (fresh ()) in
              (* xi -> a *)
              Array.iter (fun l -> emit [ a; Lit.neg l ]) ls;
              (* a -> (x1 | ... | xk) *)
              emit (Lit.neg a :: Array.to_list ls);
              a
          | Formula.True | Formula.False ->
              invalid_arg "Tseitin: constant below the root (unreachable)"
        in
        Hashtbl.add memo g.id l;
        l
  in
  let projection = Array.init nprimary (fun i -> i + 1) in
  if Formula.is_true f then Cnf.make ~projection ~nvars:nprimary []
  else if Formula.is_false f then Cnf.make ~projection ~nvars:nprimary [ [||] ]
  else begin
    let root = lit_of f in
    emit [ root ];
    Cnf.make ~projection ~nvars:!next_var (List.rev !clauses)
  end

let cnf_of ~nprimary (f : Formula.t) : Cnf.t =
  let open Mcml_obs in
  let sp = Obs.start "tseitin.encode" in
  let cnf = cnf_of_core ~nprimary f in
  let aux_vars = cnf.Cnf.nvars - nprimary and clauses = Array.length cnf.Cnf.clauses in
  Obs.add "tseitin.encodes" 1;
  Obs.add "tseitin.aux_vars" aux_vars;
  Obs.add "tseitin.clauses" clauses;
  Obs.finish sp
    ~attrs:
      [
        ("nprimary", Obs.Int nprimary);
        ("aux_vars", Obs.Int aux_vars);
        ("clauses", Obs.Int clauses);
      ];
  cnf
