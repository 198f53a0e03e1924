open Mcml_logic

type stats = {
  units : int;
  subsumed : int;
  strengthened : int;
  eliminated : int;
  resolvents : int;
  rounds : int;
}

type result = { cnf : Cnf.t; stats : stats }

exception Unsat

(* Mutable simplification state.  The clause database is a growable
   array of [Lit.t array option] ([None] = deleted); occurrence lists
   are kept accurate across every insert / delete / strengthen, so the
   elimination rule can trust them to name *all* clauses of a
   variable.  Clauses are kept sorted (by the packed literal order) and
   duplicate-free, which makes the subset checks single merge walks. *)
type st = {
  nvars : int;
  is_proj : bool array;
  db : Lit.t array option Vec.t;
  occ : int list array; (* Lit.to_index -> clause ids containing that literal *)
  assign : int array; (* var -> -1 / 0 / 1, root-level assignments *)
  queue : Lit.t Queue.t; (* pending root units *)
  mutable units : int;
  mutable subsumed : int;
  mutable strengthened : int;
  mutable eliminated : int;
  mutable resolvents : int;
}

let clause_of st ci = Vec.get st.db ci

let lit_value st (l : Lit.t) =
  let a = st.assign.(Lit.var l) in
  if a = -1 then -1 else if Lit.sign l then a else 1 - a

(* Sort, dedup, drop falsified literals; [None] when satisfied or
   tautological, [Some lits] otherwise.  Raises [Unsat] on empty. *)
let normalize st (lits : Lit.t list) : Lit.t list option =
  let lits = List.filter (fun l -> lit_value st l <> 0) lits in
  if List.exists (fun l -> lit_value st l = 1) lits then None
  else
    let sorted = List.sort_uniq Lit.compare lits in
    if List.exists (fun l -> List.memq (Lit.neg l) sorted) sorted then None
    else if sorted = [] then raise Unsat
    else Some sorted

let insert st (lits : Lit.t list) : unit =
  match normalize st lits with
  | None -> ()
  | Some sorted ->
      let arr = Array.of_list sorted in
      let ci = Vec.size st.db in
      Vec.push st.db (Some arr);
      Array.iter
        (fun l -> st.occ.(Lit.to_index l) <- ci :: st.occ.(Lit.to_index l))
        arr;
      if Array.length arr = 1 then Queue.push arr.(0) st.queue

let delete st ci =
  match clause_of st ci with
  | None -> ()
  | Some c ->
      Vec.set st.db ci None;
      Array.iter
        (fun l ->
          let ix = Lit.to_index l in
          st.occ.(ix) <- List.filter (fun cj -> cj <> ci) st.occ.(ix))
        c

(* Remove literal [l] from clause [ci] (which must contain it). *)
let strengthen st ci (l : Lit.t) =
  match clause_of st ci with
  | None -> ()
  | Some c ->
      let c' = Array.of_list (List.filter (fun x -> not (Lit.equal x l)) (Array.to_list c)) in
      if Array.length c' = 0 then raise Unsat;
      Vec.set st.db ci (Some c');
      let ix = Lit.to_index l in
      st.occ.(ix) <- List.filter (fun cj -> cj <> ci) st.occ.(ix);
      st.strengthened <- st.strengthened + 1;
      if Array.length c' = 1 then Queue.push c'.(0) st.queue

(* Apply all pending root units: satisfied clauses die, falsified
   literals are stripped (possibly enqueueing new units). *)
let drain st =
  while not (Queue.is_empty st.queue) do
    let l = Queue.pop st.queue in
    match lit_value st l with
    | 1 -> ()
    | 0 -> raise Unsat
    | _ ->
        let v = Lit.var l in
        st.assign.(v) <- (if Lit.sign l then 1 else 0);
        st.units <- st.units + 1;
        List.iter (fun ci -> delete st ci) st.occ.(Lit.to_index l);
        let falsified = st.occ.(Lit.to_index (Lit.neg l)) in
        List.iter (fun ci -> strengthen st ci (Lit.neg l)) falsified
  done

(* [subset c d ~flip]: every literal of [c] occurs in [d], except that
   [flip] (when given) must occur in [d] *negated*.  Both arrays are
   sorted by [Lit.compare]; a plain merge walk. *)
let subset ?flip (c : Lit.t array) (d : Lit.t array) =
  let n = Array.length c and m = Array.length d in
  let rec go i j =
    if i >= n then true
    else if j >= m then false
    else
      let want = match flip with Some f when Lit.equal c.(i) f -> Lit.neg f | _ -> c.(i) in
      let cmp = Lit.compare want d.(j) in
      if cmp = 0 then go (i + 1) (j + 1)
      else if cmp > 0 then go i (j + 1)
      else false
  in
  n <= m && go 0 0

(* One full backward-subsumption + self-subsumption sweep.  Returns
   whether anything changed. *)
let subsume_pass st =
  let changed = ref false in
  for ci = 0 to Vec.size st.db - 1 do
    match clause_of st ci with
    | None -> ()
    | Some c ->
        (* subsumption: scan the occurrence list of c's rarest literal *)
        let best = ref c.(0) in
        Array.iter
          (fun l ->
            if
              List.length st.occ.(Lit.to_index l)
              < List.length st.occ.(Lit.to_index !best)
            then best := l)
          c;
        List.iter
          (fun cj ->
            if cj <> ci then
              match clause_of st cj with
              | Some d when subset c d ->
                  delete st cj;
                  st.subsumed <- st.subsumed + 1;
                  changed := true
              | _ -> ())
          st.occ.(Lit.to_index !best);
        (* self-subsumption: c \ {l} ⊆ d and ¬l ∈ d strips ¬l from d *)
        (match clause_of st ci with
        | None -> ()
        | Some c ->
            Array.iter
              (fun l ->
                List.iter
                  (fun cj ->
                    if cj <> ci then
                      match clause_of st cj with
                      | Some d when subset ~flip:l c d ->
                          strengthen st cj (Lit.neg l);
                          changed := true
                      | _ -> ())
                  st.occ.(Lit.to_index (Lit.neg l)))
              c);
        drain st
  done;
  !changed

(* Resolvent of [c] and [d] on variable [v]; [None] if tautological. *)
let resolve (c : Lit.t array) (d : Lit.t array) v : Lit.t list option =
  let keep l = Lit.var l <> v in
  let lits =
    List.sort_uniq Lit.compare
      (List.filter keep (Array.to_list c) @ List.filter keep (Array.to_list d))
  in
  if List.exists (fun l -> List.memq (Lit.neg l) lits) lits then None else Some lits

(* Bounded variable elimination on one non-projected variable.
   Returns whether the elimination fired. *)
let try_eliminate st ~max_growth ~max_resolvent_len v =
  let pos = st.occ.(Lit.to_index (Lit.pos v)) in
  let neg = st.occ.(Lit.to_index (Lit.neg_of_var v)) in
  if pos = [] && neg = [] then false
  else begin
    let limit = List.length pos + List.length neg + max_growth in
    let resolvents = ref [] in
    let count = ref 0 in
    let ok = ref true in
    List.iter
      (fun ci ->
        if !ok then
          List.iter
            (fun cj ->
              if !ok then
                match (clause_of st ci, clause_of st cj) with
                | Some c, Some d -> (
                    match resolve c d v with
                    | None -> ()
                    | Some r ->
                        if List.length r > max_resolvent_len then ok := false
                        else begin
                          incr count;
                          if !count > limit then ok := false
                          else resolvents := r :: !resolvents
                        end)
                | _ -> ())
            neg)
      pos;
    if not !ok then false
    else begin
      List.iter (fun ci -> delete st ci) pos;
      List.iter (fun ci -> delete st ci) neg;
      List.iter (fun r -> insert st r) !resolvents;
      st.eliminated <- st.eliminated + 1;
      st.resolvents <- st.resolvents + List.length !resolvents;
      drain st;
      true
    end
  end

let eliminate_pass st ~max_growth ~max_resolvent_len ~max_pairs =
  let changed = ref false in
  (* cheapest candidates first: elimination of a low-degree variable
     cannot blow up the database and often unlocks further ones *)
  let cost v =
    List.length st.occ.(Lit.to_index (Lit.pos v))
    * List.length st.occ.(Lit.to_index (Lit.neg_of_var v))
  in
  let candidates = ref [] in
  for v = 1 to st.nvars do
    if (not st.is_proj.(v)) && st.assign.(v) = -1 && cost v <= max_pairs then
      candidates := v :: !candidates
  done;
  let ordered =
    List.sort (fun a b -> compare (cost a, a) (cost b, b)) !candidates
  in
  List.iter
    (fun v ->
      if st.assign.(v) = -1 && cost v <= max_pairs then
        if try_eliminate st ~max_growth ~max_resolvent_len v then changed := true)
    ordered;
  !changed

let simplify ?(max_growth = 0) ?(max_resolvent_len = 16) ?(max_pairs = 3000)
    ?(rounds = 3) (cnf : Cnf.t) : result =
  let nvars = cnf.Cnf.nvars in
  let is_proj = Array.make (nvars + 1) false in
  Array.iter (fun v -> is_proj.(v) <- true) (Cnf.projection_vars cnf);
  let st =
    {
      nvars;
      is_proj;
      db = Vec.create ~dummy:None ();
      occ = Array.make ((2 * nvars) + 2) [];
      assign = Array.make (nvars + 1) (-1);
      queue = Queue.create ();
      units = 0;
      subsumed = 0;
      strengthened = 0;
      eliminated = 0;
      resolvents = 0;
    }
  in
  let rounds_run = ref 0 in
  let run () =
    let unsat =
      try
        Array.iter (fun c -> insert st (Array.to_list c)) cnf.Cnf.clauses;
        drain st;
        let continue_ = ref true in
        while !continue_ && !rounds_run < rounds do
          incr rounds_run;
          let a = subsume_pass st in
          let b = eliminate_pass st ~max_growth ~max_resolvent_len ~max_pairs in
          continue_ := a || b
        done;
        false
      with Unsat -> true
    in
    let clauses =
      if unsat then [ [||] ]
      else begin
        let out = ref [] in
        (* re-emit forced projection variables: they are constrained
           (factor 1), and without a unit clause the counter would
           treat them as free (factor 2) *)
        for v = nvars downto 1 do
          if st.is_proj.(v) && st.assign.(v) >= 0 then
            out := [| Lit.make v (st.assign.(v) = 1) |] :: !out
        done;
        for ci = Vec.size st.db - 1 downto 0 do
          match clause_of st ci with
          | Some c -> out := Array.copy c :: !out
          | None -> ()
        done;
        !out
      end
    in
    match cnf.Cnf.projection with
    | Some projection -> Cnf.make ~projection ~nvars clauses
    | None -> Cnf.make ~nvars clauses
  in
  let finish cnf' =
    {
      cnf = cnf';
      stats =
        {
          units = st.units;
          subsumed = st.subsumed;
          strengthened = st.strengthened;
          eliminated = st.eliminated;
          resolvents = st.resolvents;
          rounds = !rounds_run;
        };
    }
  in
  let open Mcml_obs in
  let cnf' =
    Obs.with_span "sat.inprocess"
      ~attrs:(fun () ->
        [
          ("clauses_in", Obs.Int (Cnf.num_clauses cnf));
          ("units", Obs.Int st.units);
          ("subsumed", Obs.Int st.subsumed);
          ("strengthened", Obs.Int st.strengthened);
          ("eliminated", Obs.Int st.eliminated);
          ("resolvents", Obs.Int st.resolvents);
        ])
      run
  in
  Obs.add "sat.inprocess.calls" 1;
  Obs.add "sat.inprocess.units" st.units;
  Obs.add "sat.inprocess.subsumed" st.subsumed;
  Obs.add "sat.inprocess.strengthened" st.strengthened;
  Obs.add "sat.inprocess.eliminated" st.eliminated;
  Obs.add "sat.inprocess.resolvents" st.resolvents;
  finish cnf'
