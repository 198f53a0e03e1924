open Mcml_logic

let count_core (cnf : Cnf.t) : Bignat.t =
  let proj = Cnf.projection_vars cnf in
  let k = Array.length proj in
  if k > 24 then invalid_arg "Brute.count: projection set too large";
  let clauses = Array.to_list cnf.Cnf.clauses in
  let total = ref 0 in
  for mask = 0 to (1 lsl k) - 1 do
    (* fix the projected variables, then check the residual *)
    let rec fix i clauses =
      match clauses with
      | None -> None
      | Some cs ->
          if i = k then Some cs
          else
            let l = Lit.make proj.(i) (mask land (1 lsl i) <> 0) in
            fix (i + 1) (Dpll.restrict cs l)
    in
    match fix 0 (Some clauses) with
    | None -> ()
    | Some residual -> if Dpll.sat residual then incr total
  done;
  Bignat.of_int !total

let count (cnf : Cnf.t) : Bignat.t =
  let open Mcml_obs in
  let result = ref Bignat.zero in
  Obs.with_span "count.brute"
    ~attrs:(fun () ->
      [
        ("proj_vars", Obs.Int (Array.length (Cnf.projection_vars cnf)));
        ("count", Obs.Str (Bignat.to_string !result));
      ])
    (fun () ->
      result := count_core cnf;
      Obs.add "count.brute.calls" 1;
      !result)
