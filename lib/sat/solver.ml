open Mcml_logic

type result = Sat | Unsat | Unknown

type clause = {
  lits : Lit.t array; (* watched literals live at positions 0 and 1 *)
  mutable activity : float;
  mutable mark : bool; (* scratch flag used by reduce_db *)
  learnt : bool;
}

let dummy_clause = { lits = [||]; activity = 0.0; mark = false; learnt = false }

(* A native parity (XOR) constraint: [xr_mask] selects variables by bit
   position in the solver's declared parity-variable order, [xr_rhs] is
   the required parity, and [xr_guard] (0 = none) is an activation
   variable — the row only bites while its guard is assigned true, so a
   caller can toggle whole constraint pools per solve via assumptions
   without encoding a single CNF clause. *)
type xrow = { xr_mask : int; xr_rhs : bool; xr_guard : int }

let dummy_xrow = { xr_mask = 0; xr_rhs = false; xr_guard = 0 }

type t = {
  mutable nvars : int;
  mutable ok : bool; (* false once root-level unsatisfiability is detected *)
  clauses : clause Vec.t;
  learnts : clause Vec.t;
  mutable watches : clause Vec.t array; (* indexed by Lit.to_index *)
  mutable assign : int array; (* var -> -1 unassigned / 0 false / 1 true *)
  mutable level : int array; (* var -> decision level *)
  mutable reason : clause array; (* var -> antecedent (dummy_clause if none) *)
  mutable activity : float array; (* var -> VSIDS activity *)
  mutable polarity : bool array; (* var -> saved phase *)
  mutable seen : bool array; (* var -> scratch for conflict analysis *)
  mutable heap : int array; (* binary max-heap of vars by activity *)
  mutable heap_size : int;
  mutable heap_pos : int array; (* var -> index in heap, or -1 *)
  trail : int Vec.t; (* literals in assignment order, as Lit.to_index *)
  trail_lim : int Vec.t; (* trail size at each decision level *)
  mutable qhead : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable model_snapshot : bool array;
  mutable core : Lit.t list; (* final conflict over the last solve's assumptions *)
  mutable xvars : int array; (* parity bit position -> solver variable *)
  mutable xrows : xrow array;
  mutable xnrows : int;
  mutable xunits : int; (* literals forced by parity reasoning *)
  mutable xconflicts : int; (* conflicts detected by parity reasoning *)
}

let var_decay = 1.0 /. 0.95
let clause_decay = 1.0 /. 0.999

let create_raw ?(nvars = 0) () =
  let cap = max 16 (nvars + 1) in
  let s =
    {
      nvars = 0;
      ok = true;
      clauses = Vec.create ~dummy:dummy_clause ();
      learnts = Vec.create ~dummy:dummy_clause ();
      watches = Array.init (2 * cap) (fun _ -> Vec.create ~dummy:dummy_clause ());
      assign = Array.make cap (-1);
      level = Array.make cap 0;
      reason = Array.make cap dummy_clause;
      activity = Array.make cap 0.0;
      polarity = Array.make cap false;
      seen = Array.make cap false;
      heap = Array.make cap 0;
      heap_size = 0;
      heap_pos = Array.make cap (-1);
      trail = Vec.create ~dummy:0 ();
      trail_lim = Vec.create ~dummy:0 ();
      qhead = 0;
      var_inc = 1.0;
      cla_inc = 1.0;
      conflicts = 0;
      decisions = 0;
      propagations = 0;
      model_snapshot = [||];
      core = [];
      xvars = [||];
      xrows = [||];
      xnrows = 0;
      xunits = 0;
      xconflicts = 0;
    }
  in
  s

let ensure_capacity s v =
  let cap = Array.length s.assign in
  if v >= cap then begin
    let ncap = max (2 * cap) (v + 1) in
    let grow_arr a default =
      let b = Array.make ncap default in
      Array.blit a 0 b 0 cap;
      b
    in
    s.assign <- grow_arr s.assign (-1);
    s.level <- grow_arr s.level 0;
    s.reason <- grow_arr s.reason dummy_clause;
    s.activity <- grow_arr s.activity 0.0;
    s.polarity <- grow_arr s.polarity false;
    s.seen <- grow_arr s.seen false;
    s.heap <- grow_arr s.heap 0;
    s.heap_pos <- grow_arr s.heap_pos (-1);
    let nw = Array.init (2 * ncap) (fun _ -> Vec.create ~dummy:dummy_clause ()) in
    Array.blit s.watches 0 nw 0 (Array.length s.watches);
    s.watches <- nw
  end

(* --- activity heap -------------------------------------------------- *)

let heap_lt s a b = s.activity.(a) > s.activity.(b)

let heap_swap s i j =
  let vi = s.heap.(i) and vj = s.heap.(j) in
  s.heap.(i) <- vj;
  s.heap.(j) <- vi;
  s.heap_pos.(vj) <- i;
  s.heap_pos.(vi) <- j

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_lt s s.heap.(i) s.heap.(p) then begin
      heap_swap s i p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && heap_lt s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_size && heap_lt s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) = -1 then begin
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then begin
    let last = s.heap.(s.heap_size) in
    s.heap.(0) <- last;
    s.heap_pos.(last) <- 0;
    heap_down s 0
  end;
  v

let heap_update s v = if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

(* --- state helpers --------------------------------------------------- *)

let new_var s =
  let v = s.nvars + 1 in
  s.nvars <- v;
  ensure_capacity s v;
  heap_insert s v;
  v

let nvars s = s.nvars

let create ?(nvars = 0) () =
  let s = create_raw ~nvars () in
  for _ = 1 to nvars do
    ignore (new_var s)
  done;
  s

let value_lit s (l : Lit.t) =
  let a = s.assign.(Lit.var l) in
  if a = -1 then -1 else if Lit.sign l then a else 1 - a

let decision_level s = Vec.size s.trail_lim

let enqueue s (l : Lit.t) (from : clause) =
  let v = Lit.var l in
  s.assign.(v) <- (if Lit.sign l then 1 else 0);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- from;
  Vec.push s.trail (Lit.to_index l)

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_update s v

let cla_bump s (c : clause) =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
      Vec.iter (fun (c : clause) -> c.activity <- c.activity *. 1e-20) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let watch s (l : Lit.t) c = Vec.push s.watches.(Lit.to_index l) c

(* --- propagation ----------------------------------------------------- *)

exception Conflict of clause

let propagate s : clause option =
  let confl = ref None in
  (try
     while s.qhead < Vec.size s.trail do
       let p_idx = Vec.get s.trail s.qhead in
       s.qhead <- s.qhead + 1;
       s.propagations <- s.propagations + 1;
       let p = Lit.of_index p_idx in
       let np = Lit.neg p in
       (* clauses watching np must find a new home or propagate *)
       let ws = s.watches.(Lit.to_index np) in
       let n = Vec.size ws in
       let keep = ref 0 in
       let i = ref 0 in
       (try
          while !i < n do
            let c = Vec.get ws !i in
            incr i;
            let lits = c.lits in
            (* ensure the falsified watch is at position 1 *)
            if Lit.equal lits.(0) np then begin
              lits.(0) <- lits.(1);
              lits.(1) <- np
            end;
            let first = lits.(0) in
            if value_lit s first = 1 then begin
              (* clause satisfied; keep the watch *)
              Vec.set ws !keep c;
              incr keep
            end
            else begin
              (* look for a new watch among the tail literals *)
              let len = Array.length lits in
              let found = ref false in
              let k = ref 2 in
              while (not !found) && !k < len do
                if value_lit s lits.(!k) <> 0 then begin
                  lits.(1) <- lits.(!k);
                  lits.(!k) <- np;
                  watch s lits.(1) c;
                  found := true
                end;
                incr k
              done;
              if not !found then begin
                (* unit or conflicting *)
                Vec.set ws !keep c;
                incr keep;
                if value_lit s first = 0 then begin
                  while !i < n do
                    Vec.set ws !keep (Vec.get ws !i);
                    incr keep;
                    incr i
                  done;
                  raise (Conflict c)
                end
                else enqueue s first c
              end
            end
          done;
          Vec.shrink ws !keep
        with Conflict c ->
          Vec.shrink ws !keep;
          raise (Conflict c))
     done
   with Conflict c ->
     s.qhead <- Vec.size s.trail;
     confl := Some c);
  !confl

(* --- native parity constraints (Gauss--Jordan over GF(2)) ------------- *)

(* CNF-encoded XOR chains are where CDCL goes to die: the chunked
   encoding propagates only chunk-locally, and refuting a cell whose
   parity system is infeasible takes an exponential resolution proof.
   Instead, active rows are kept as bitmask equations and a forward
   elimination runs at every propagation fixpoint: it finds EVERY
   literal and conflict implied by the whole system under the current
   assignment (full GAC on the conjunction of XORs, not per-chunk), and
   synthesizes ordinary reason clauses — tagged with the guards'
   negations, so learnt clauses derived from them stay sound when a
   different row subset is active in a later solve. *)

let parity_max_vars = 62

let parity_reset s ~vars =
  if Array.length vars > parity_max_vars then
    invalid_arg "Solver.parity_reset: too many variables";
  Array.iter
    (fun v ->
      if v < 1 || v > s.nvars then invalid_arg "Solver.parity_reset: unknown variable")
    vars;
  s.xvars <- Array.copy vars;
  s.xrows <- [||];
  s.xnrows <- 0

let parity_add s ~mask ~rhs ~guard =
  if guard <> 0 && (guard < 1 || guard > s.nvars) then
    invalid_arg "Solver.parity_add: unknown guard variable";
  if mask lsr Array.length s.xvars <> 0 then
    invalid_arg "Solver.parity_add: mask outside the declared variables";
  let cap = Array.length s.xrows in
  if s.xnrows = cap then begin
    let a = Array.make (max 8 (2 * cap)) dummy_xrow in
    Array.blit s.xrows 0 a 0 cap;
    s.xrows <- a
  end;
  if s.xnrows >= parity_max_vars then invalid_arg "Solver.parity_add: too many rows";
  s.xrows.(s.xnrows) <- { xr_mask = mask; xr_rhs = rhs; xr_guard = guard };
  s.xnrows <- s.xnrows + 1

type parity_outcome = P_quiet | P_progress | P_conflict of clause

let mask_parity m =
  let x = ref m and p = ref false in
  while !x <> 0 do
    x := !x land (!x - 1);
    p := not !p
  done;
  !p

let parity_check s : parity_outcome =
  if s.xnrows = 0 then P_quiet
  else begin
    let nb = Array.length s.xvars in
    let amask = ref 0 and tmask = ref 0 in
    for i = 0 to nb - 1 do
      let a = s.assign.(s.xvars.(i)) in
      if a >= 0 then begin
        amask := !amask lor (1 lsl i);
        if a = 1 then tmask := !tmask lor (1 lsl i)
      end
    done;
    let amask = !amask and tmask = !tmask in
    (* one derived clause: the sum of input rows [og], with support
       [dm] (original variable space) and parity [b].  For a unit, the
       implied literal goes first, as [analyze] expects of a reason. *)
    let clause_of ?implied ~dm ~b:_ ~og () =
      let lits = ref [] in
      let obits = ref og in
      while !obits <> 0 do
        let i = ref 0 in
        while !obits land (1 lsl !i) = 0 do
          incr i
        done;
        obits := !obits lxor (1 lsl !i);
        let g = s.xrows.(!i).xr_guard in
        if g <> 0 then lits := Lit.neg_of_var g :: !lits
      done;
      let skip = match implied with Some l -> Lit.var l | None -> 0 in
      let dbits = ref dm in
      while !dbits <> 0 do
        let j = ref 0 in
        while !dbits land (1 lsl !j) = 0 do
          incr j
        done;
        dbits := !dbits lxor (1 lsl !j);
        let v = s.xvars.(!j) in
        if v <> skip then lits := Lit.make v (s.assign.(v) = 0) :: !lits
      done;
      let lits = match implied with Some l -> l :: !lits | None -> !lits in
      { lits = Array.of_list lits; activity = 0.0; mark = false; learnt = false }
    in
    (* gather active rows, then forward-eliminate their residuals *)
    let k = s.xnrows in
    let res = Array.make k 0 in
    let dm = Array.make k 0 in
    let rhs = Array.make k false in
    let og = Array.make k 0 in
    let npiv = ref 0 in
    let conflict = ref None in
    (try
       for i = 0 to k - 1 do
         let r = s.xrows.(i) in
         if r.xr_guard = 0 || s.assign.(r.xr_guard) = 1 then begin
           let cres = ref (r.xr_mask land lnot amask) in
           let cdm = ref r.xr_mask in
           let crhs = ref (r.xr_rhs <> mask_parity (r.xr_mask land tmask)) in
           let cog = ref (1 lsl i) in
           for p = 0 to !npiv - 1 do
             (* pivot bit = lowest set bit of res.(p) *)
             let pb = res.(p) land -res.(p) in
             if !cres land pb <> 0 then begin
               cres := !cres lxor res.(p);
               cdm := !cdm lxor dm.(p);
               crhs := !crhs <> rhs.(p);
               cog := !cog lxor og.(p)
             end
           done;
           if !cres = 0 then begin
             if !crhs then begin
               s.xconflicts <- s.xconflicts + 1;
               conflict := Some (clause_of ~dm:!cdm ~b:!crhs ~og:!cog ());
               raise Exit
             end
             (* 0 = 0: redundant under the current assignment; drop *)
           end
           else begin
             res.(!npiv) <- !cres;
             dm.(!npiv) <- !cdm;
             rhs.(!npiv) <- !crhs;
             og.(!npiv) <- !cog;
             incr npiv
           end
         end
       done
     with Exit -> ());
    match !conflict with
    | Some c -> P_conflict c
    | None ->
        (* every pivot row whose residual is a single variable forces
           it; residual bits were unassigned when the pass started, and
           distinct pivot rows force distinct variables *)
        let progressed = ref false in
        for p = 0 to !npiv - 1 do
          let r = res.(p) in
          if r land (r - 1) = 0 then begin
            let j = ref 0 in
            while r land (1 lsl !j) = 0 do
              incr j
            done;
            let v = s.xvars.(!j) in
            (* [rhs] is the rhs of the RESIDUAL equation — the assigned
               variables are already folded in — so the last free
               variable must equal it directly *)
            let l = Lit.make v rhs.(p) in
            let reason = clause_of ~implied:l ~dm:dm.(p) ~b:rhs.(p) ~og:og.(p) () in
            s.xunits <- s.xunits + 1;
            enqueue s l reason;
            progressed := true
          end
        done;
        if !progressed then P_progress else P_quiet
  end

(* Clause propagation to fixpoint, then parity reasoning; repeat until
   neither has anything left.  Parity runs only at clause fixpoints, so
   a conflict it reports always involves an assignment made since the
   previous fixpoint — i.e. a literal of the current decision level —
   which is exactly the invariant [analyze] needs. *)
let rec propagate_all s : clause option =
  match propagate s with
  | Some c -> Some c
  | None -> (
      match parity_check s with
      | P_conflict c -> Some c
      | P_progress -> propagate_all s
      | P_quiet -> None)

(* --- backtracking ---------------------------------------------------- *)

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Lit.of_index (Vec.get s.trail i) in
      let v = Lit.var l in
      s.polarity.(v) <- s.assign.(v) = 1;
      s.assign.(v) <- -1;
      s.reason.(v) <- dummy_clause;
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- Vec.size s.trail
  end

(* --- conflict analysis (first UIP) ----------------------------------- *)

let analyze s (confl : clause) : Lit.t list * int =
  let learnt = ref [] in
  let path = ref 0 in
  let p = ref None in
  (* None until the first expansion *)
  let confl = ref confl in
  let index = ref (Vec.size s.trail - 1) in
  let uip = ref (Lit.pos 1) in
  let continue = ref true in
  while !continue do
    let c = !confl in
    if c.learnt then cla_bump s c;
    let start = match !p with None -> 0 | Some _ -> 1 in
    for j = start to Array.length c.lits - 1 do
      let q = c.lits.(j) in
      let v = Lit.var q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        var_bump s v;
        if s.level.(v) >= decision_level s then incr path
        else learnt := q :: !learnt
      end
    done;
    (* next literal to expand: most recent seen literal on the trail *)
    let rec next_seen i =
      let l = Lit.of_index (Vec.get s.trail i) in
      if s.seen.(Lit.var l) then (i, l) else next_seen (i - 1)
    in
    let i, l = next_seen !index in
    index := i - 1;
    let v = Lit.var l in
    s.seen.(v) <- false;
    decr path;
    if !path = 0 then begin
      uip := Lit.neg l;
      continue := false
    end
    else begin
      p := Some l;
      confl := s.reason.(v)
    end
  done;
  let blevel =
    List.fold_left (fun acc q -> max acc s.level.(Lit.var q)) 0 !learnt
  in
  List.iter (fun q -> s.seen.(Lit.var q) <- false) !learnt;
  (!uip :: !learnt, blevel)

(* Final-conflict analysis: assumption [p] is falsified by the current
   (purely assumption-driven) prefix of the trail.  Walk the implication
   graph backwards from [¬p]; every pseudo-decision reached (a trail
   literal above the root with no reason — i.e. an earlier assumption)
   joins the core.  The result is the subset of the passed assumptions,
   [p] included, whose conjunction the clause database refutes. *)
let analyze_final s (p : Lit.t) : Lit.t list =
  if s.level.(Lit.var p) = 0 then [ p ]
  else begin
    let core = ref [ p ] in
    s.seen.(Lit.var p) <- true;
    let bottom = Vec.get s.trail_lim 0 in
    for i = Vec.size s.trail - 1 downto bottom do
      let l = Lit.of_index (Vec.get s.trail i) in
      let v = Lit.var l in
      if s.seen.(v) then begin
        s.seen.(v) <- false;
        let r = s.reason.(v) in
        if r == dummy_clause then
          (* an assumption pseudo-decision: part of the core *)
          core := l :: !core
        else
          (* expand the reason, skipping the implied variable [v]
             itself: re-marking it here would leave a stale seen flag
             behind (the walk is already past it) that silently corrupts
             the next conflict analysis *)
          Array.iter
            (fun q ->
              let w = Lit.var q in
              if w <> v && s.level.(w) > 0 then s.seen.(w) <- true)
            r.lits
      end
    done;
    s.seen.(Lit.var p) <- false;
    !core
  end

(* --- clause attachment ----------------------------------------------- *)

let attach_clause s c =
  watch s c.lits.(0) c;
  watch s c.lits.(1) c

let add_clause s (lits : Lit.t list) =
  if s.ok then begin
    cancel_until s 0;
    List.iter
      (fun l ->
        if Lit.var l > s.nvars then invalid_arg "Solver.add_clause: unknown variable")
      lits;
    let lits = List.sort_uniq Lit.compare lits in
    let tautological =
      let rec go = function
        | a :: (b :: _ as rest) ->
            (Lit.var a = Lit.var b && Lit.sign a <> Lit.sign b) || go rest
        | _ -> false
      in
      go lits
    in
    if not tautological then begin
      let satisfied = List.exists (fun l -> value_lit s l = 1) lits in
      if not satisfied then begin
        let lits = List.filter (fun l -> value_lit s l <> 0) lits in
        match lits with
        | [] -> s.ok <- false
        | [ l ] -> (
            enqueue s l dummy_clause;
            match propagate s with Some _ -> s.ok <- false | None -> ())
        | _ ->
            let c =
              { lits = Array.of_list lits; activity = 0.0; mark = false; learnt = false }
            in
            Vec.push s.clauses c;
            attach_clause s c
      end
    end
  end

(* Attach a learnt clause (first-UIP literal first) under the current
   assignment.  After a CDCL backjump to the clause's second-highest
   level every other literal is false, so the first is implied and
   enqueued: the asserting step.  After a chronological backtrack
   (projected enumeration) other literals may be unassigned too; the
   clause is then watched on two non-false literals and only prunes
   later.  The second watch is a non-false literal if there is one,
   else the false literal of the highest level. *)
let add_learnt s (lits : Lit.t list) =
  match lits with
  | [] -> s.ok <- false
  | [ l ] when decision_level s = 0 -> (
      enqueue s l dummy_clause;
      match propagate s with Some _ -> s.ok <- false | None -> ())
  | [ l ] ->
      if value_lit s l = -1 then
        enqueue s l { lits = [| l |]; activity = 0.0; mark = false; learnt = true }
  | first :: _ ->
      let arr = Array.of_list lits in
      let rank l = if value_lit s l = 0 then s.level.(Lit.var l) else max_int in
      let best = ref 1 in
      for j = 2 to Array.length arr - 1 do
        if rank arr.(j) > rank arr.(!best) then best := j
      done;
      let tmp = arr.(1) in
      arr.(1) <- arr.(!best);
      arr.(!best) <- tmp;
      let c = { lits = arr; activity = 0.0; mark = false; learnt = true } in
      Vec.push s.learnts c;
      attach_clause s c;
      cla_bump s c;
      if value_lit s first = -1 && value_lit s arr.(1) = 0 then enqueue s first c

(* --- learnt DB reduction ---------------------------------------------- *)

let locked s c =
  Array.length c.lits > 0
  &&
  let v = Lit.var c.lits.(0) in
  s.assign.(v) <> -1 && s.reason.(v) == c

let reduce_db s =
  let learnts = Vec.to_list s.learnts in
  let sorted = List.sort (fun (a : clause) (b : clause) -> Float.compare a.activity b.activity) learnts in
  let n = List.length sorted in
  List.iteri
    (fun i c ->
      if i < n / 2 && (not (locked s c)) && Array.length c.lits > 2 then c.mark <- true)
    sorted;
  Array.iter
    (fun ws ->
      let kept = Vec.to_list ws |> List.filter (fun c -> not c.mark) in
      Vec.clear ws;
      List.iter (Vec.push ws) kept)
    s.watches;
  let kept = List.filter (fun c -> not c.mark) learnts in
  Vec.clear s.learnts;
  List.iter (Vec.push s.learnts) kept;
  if Mcml_obs.Obs.enabled () then begin
    let nkept = List.length kept in
    Mcml_obs.Obs.add "solver.reduce_dbs" 1;
    Mcml_obs.Obs.add "solver.learnts_kept" nkept;
    Mcml_obs.Obs.add "solver.learnts_deleted" (n - nkept)
  end

(* --- search ------------------------------------------------------------ *)

let pick_branch_var s =
  let rec go () =
    if s.heap_size = 0 then 0
    else begin
      let v = heap_pop s in
      if s.assign.(v) = -1 then v else go ()
    end
  in
  go ()

(* open a decision level on literal [p] *)
let decide s p =
  s.decisions <- s.decisions + 1;
  Vec.push s.trail_lim (Vec.size s.trail);
  enqueue s p dummy_clause

(* The learnt-clause reduction schedule of both [search] and [enumerate]. *)
let maybe_reduce_db s =
  if Vec.size s.learnts >= max 4000 (Vec.size s.clauses / 2) then reduce_db s

(* Standard Luby sequence: 1 1 2 1 1 2 4 ... *)
let luby y x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  Float.pow y (float_of_int !seq)

(* Internal search outcome: a conflict at the root level refutes the
   clause database itself (the solver is dead), while a conflict forced
   by the assumption prefix only refutes this particular [solve] call
   and leaves a final-conflict core behind. *)
type outcome = O_sat | O_unsat_root | O_unsat_assumptions | O_unknown

exception Done of outcome

(* Run until SAT, UNSAT, restart-budget exhaustion (returns [O_unknown]
   with state reset to the root level) or per-call conflict ceiling.
   [assumptions] are replayed as pseudo-decisions at levels [1..k]
   before any search decision is made, so restarts re-establish them
   automatically; a falsified assumption terminates the call with its
   final-conflict core in [s.core]. *)
let search s ~assumptions ~conflict_ceiling ~restart_budget : outcome =
  let remaining = ref restart_budget in
  let n_assumptions = Array.length assumptions in
  try
    while true do
      (match propagate_all s with
      | Some confl ->
          s.conflicts <- s.conflicts + 1;
          if decision_level s = 0 then begin
            s.ok <- false;
            raise (Done O_unsat_root)
          end;
          let lits, blevel = analyze s confl in
          cancel_until s blevel;
          add_learnt s lits;
          if not s.ok then raise (Done O_unsat_root);
          s.var_inc <- s.var_inc *. var_decay;
          s.cla_inc <- s.cla_inc *. clause_decay;
          decr remaining;
          if conflict_ceiling > 0 && s.conflicts >= conflict_ceiling then begin
            cancel_until s 0;
            raise (Done O_unknown)
          end;
          if !remaining <= 0 then begin
            cancel_until s 0;
            raise (Done O_unknown)
          end
      | None ->
          maybe_reduce_db s;
          (* re-establish assumption pseudo-decisions below any search
             decision; an already-true assumption still opens a (dummy)
             level so the level/assumption-index correspondence holds *)
          let next = ref None in
          while !next = None && decision_level s < n_assumptions do
            let p = assumptions.(decision_level s) in
            match value_lit s p with
            | 1 -> Vec.push s.trail_lim (Vec.size s.trail)
            | 0 ->
                s.core <- analyze_final s p;
                raise (Done O_unsat_assumptions)
            | _ -> next := Some p
          done;
          (match !next with
          | Some p -> decide s p
          | None ->
              let v = pick_branch_var s in
              if v = 0 then raise (Done O_sat)
              else decide s (Lit.make v s.polarity.(v))))
    done;
    assert false
  with Done r -> r

let solve_core ~max_conflicts ~assumptions s =
  s.core <- [];
  if not s.ok then Unsat
  else begin
    cancel_until s 0;
    (* the conflict budget is per call: cap the lifetime counter at its
       value on entry plus the allowance *)
    let ceiling = if max_conflicts > 0 then s.conflicts + max_conflicts else 0 in
    let rec loop round =
      let budget = int_of_float (100.0 *. luby 2.0 round) in
      match search s ~assumptions ~conflict_ceiling:ceiling ~restart_budget:budget with
      | O_sat ->
          s.model_snapshot <-
            Array.init (s.nvars + 1) (fun v -> v >= 1 && s.assign.(v) = 1);
          cancel_until s 0;
          Sat
      | O_unsat_root -> Unsat
      | O_unsat_assumptions ->
          cancel_until s 0;
          Unsat
      | O_unknown ->
          if ceiling > 0 && s.conflicts >= ceiling then Unknown else loop (round + 1)
    in
    loop 0
  end

let string_of_result = function Sat -> "sat" | Unsat -> "unsat" | Unknown -> "unknown"

let solve ?(max_conflicts = 0) ?(assumptions = []) s =
  List.iter
    (fun l ->
      let v = Lit.var l in
      if v < 1 || v > s.nvars then
        invalid_arg "Solver.solve: unknown assumption variable")
    assumptions;
  let assumptions = Array.of_list assumptions in
  if not (Mcml_obs.Obs.enabled ()) then solve_core ~max_conflicts ~assumptions s
  else begin
    let open Mcml_obs in
    let c0 = s.conflicts and d0 = s.decisions and p0 = s.propagations in
    let xu0 = s.xunits and xc0 = s.xconflicts in
    let sp = Obs.start "solver.solve" in
    let r = solve_core ~max_conflicts ~assumptions s in
    let dc = s.conflicts - c0 and dd = s.decisions - d0 and dp = s.propagations - p0 in
    Obs.add "solver.solves" 1;
    if Array.length assumptions > 0 then Obs.add "solver.assumption_solves" 1;
    Obs.add "solver.conflicts" dc;
    Obs.add "solver.decisions" dd;
    Obs.add "solver.propagations" dp;
    Obs.add "solver.parity_units" (s.xunits - xu0);
    Obs.add "solver.parity_conflicts" (s.xconflicts - xc0);
    Obs.finish sp
      ~attrs:
        [
          ("result", Obs.Str (string_of_result r));
          ("conflicts", Obs.Int dc);
          ("decisions", Obs.Int dd);
          ("propagations", Obs.Int dp);
          ("assumptions", Obs.Int (Array.length assumptions));
          ("learnts", Obs.Int (Vec.size s.learnts));
          ("vars", Obs.Int s.nvars);
          ("clauses", Obs.Int (Vec.size s.clauses));
        ];
    r
  end

(* --- projected model enumeration ----------------------------------------- *)

type enumeration = Exhausted | Stopped | Out_of_budget

(* Blocking-free enumeration with chronological backtracking (Toda &
   Soh, "Implementing Efficient All Solutions SAT Solvers", JEA 2016).
   The projection variables are decided first, in the order given and
   false first, on levels [1..!nproj]; the search tree over them is
   walked depth-first, so projected models come out in lexicographic
   order.  Once every projection variable is assigned, ordinary CDCL
   search (backjumping no lower than [!nproj]) finds one extension or
   refutes the prefix.  A model or a refuted prefix moves on by
   flipping the deepest projection decision whose second branch is
   still unexplored.  The 1UIP clauses learnt on the way are implied by
   the clause database, so keeping them prunes dead branches without
   removing a model.  The clock is read only when a [deadline] is set,
   once per conflict and once per model: between two of those, the work
   is at most one descent through the variables. *)
let enumerate ?(max_conflicts = 0) ?(deadline = infinity) s ~projection on_model =
  Array.iter
    (fun v ->
      if v < 1 || v > s.nvars then invalid_arg "Solver.enumerate: unknown projection variable")
    projection;
  let k = Array.length projection in
  (* per projection level: the index into [projection] decided there,
     and whether that decision is already its second branch (true) *)
  let decided = Array.make (k + 1) 0 and flipped = Array.make (k + 1) false in
  let nproj = ref 0 in
  let since_model = ref s.conflicts in
  (* false once every projection decision has had both branches *)
  let flip () =
    let j = ref !nproj in
    while !j > 0 && flipped.(!j) do
      decr j
    done;
    if !j > 0 then begin
      cancel_until s (!j - 1);
      nproj := !j;
      flipped.(!j) <- true;
      decide s (Lit.pos projection.(decided.(!j)))
    end;
    !j > 0
  in
  let next_projection () =
    let i = ref (if !nproj = 0 then 0 else decided.(!nproj) + 1) in
    while !i < k && s.assign.(projection.(!i)) <> -1 do
      incr i
    done;
    !i
  in
  let out_of_time () =
    deadline < infinity && Mcml_obs.Obs.monotonic_s () >= deadline
  in
  let result = ref None in
  if not s.ok then result := Some Exhausted else cancel_until s 0;
  Fun.protect ~finally:(fun () -> cancel_until s 0) @@ fun () ->
  while !result = None do
    match propagate_all s with
    | Some confl ->
        s.conflicts <- s.conflicts + 1;
        if decision_level s = 0 then begin
          s.ok <- false;
          result := Some Exhausted
        end
        else begin
          let lits, blevel = analyze s confl in
          if decision_level s > !nproj then begin
            cancel_until s (max blevel !nproj);
            add_learnt s lits
          end
          else if flip () then add_learnt s lits
          else result := Some Exhausted;
          s.var_inc <- s.var_inc *. var_decay;
          s.cla_inc <- s.cla_inc *. clause_decay;
          if not s.ok then result := Some Exhausted
          else if
            !result = None
            && ((max_conflicts > 0 && s.conflicts - !since_model >= max_conflicts)
               || out_of_time ())
          then result := Some Out_of_budget
        end
    | None ->
        maybe_reduce_db s;
        let i = if decision_level s = !nproj then next_projection () else k in
        if i < k then begin
          incr nproj;
          decided.(!nproj) <- i;
          flipped.(!nproj) <- false;
          decide s (Lit.neg_of_var projection.(i))
        end
        else begin
          let v = if Vec.size s.trail = s.nvars then 0 else pick_branch_var s in
          if v <> 0 then decide s (Lit.make v s.polarity.(v))
          else begin
            since_model := s.conflicts;
            if not (on_model (Array.map (fun v -> s.assign.(v) = 1) projection)) then
              result := Some Stopped
            else if not (flip ()) then result := Some Exhausted
            else if out_of_time () then result := Some Out_of_budget
          end
        end
  done;
  Option.get !result

let unsat_core s = s.core

let model_value s v =
  if v < 1 || v > s.nvars then invalid_arg "Solver.model_value";
  v < Array.length s.model_snapshot && s.model_snapshot.(v)

let model s = Array.copy s.model_snapshot
let num_conflicts s = s.conflicts
let num_decisions s = s.decisions
let num_propagations s = s.propagations

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  learnts : int;
  clauses : int;
}

let stats (s : t) : stats =
  {
    conflicts = s.conflicts;
    decisions = s.decisions;
    propagations = s.propagations;
    learnts = Vec.size s.learnts;
    clauses = Vec.size s.clauses;
  }

let of_cnf (cnf : Cnf.t) =
  let s = create () in
  for _ = 1 to cnf.Cnf.nvars do
    ignore (new_var s)
  done;
  Array.iter (fun c -> add_clause s (Array.to_list c)) cnf.Cnf.clauses;
  s
