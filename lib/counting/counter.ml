open Mcml_logic
module Memo = Mcml_exec.Memo

type backend = Exact | Approx of Approx.config | Brute

type outcome = { count : Bignat.t; exact : bool; time : float }

(* A completed count answers every budget; a timeout remembers the
   budget it ran out under. *)
type entry = Counted of outcome | Timed_out of float

type cache = entry Memo.t

let name = function
  | Exact -> "exact(ddnnf)"
  | Approx _ -> "approx(approxmc)"
  | Brute -> "brute"

(* Disk codec for completed counts: "c <decimal> <e|a> <%h time>".
   Timeouts stay in memory: how far a budget gets depends on the host
   and its load, and the log's first-insert-wins records could never
   upgrade a persisted timeout to a later count.  Anything unparseable
   is treated as absent, never as a wrong answer. *)
let outcome_to_string { count; exact; time } =
  Printf.sprintf "c %s %s %h" (Bignat.to_string count) (if exact then "e" else "a") time

let outcome_of_string s =
  match String.split_on_char ' ' s with
  | [ "c"; digits; flag; time ] -> (
      match (Bignat.of_string digits, flag, float_of_string_opt time) with
      | Some count, ("e" | "a"), Some time -> Some { count; exact = flag = "e"; time }
      | _ -> None)
  | _ -> None

let cache_create ?capacity ?disk () =
  let backing =
    Option.map
      (fun d ->
        {
          Memo.load =
            (fun key ->
              Option.bind (Mcml_exec.Diskcache.find d ~key) (fun s ->
                  Option.map (fun o -> Counted o) (outcome_of_string s)));
          store =
            (fun key -> function
              | Counted o -> Mcml_exec.Diskcache.add d ~key (outcome_to_string o)
              | Timed_out _ -> ());
        })
      disk
  in
  Memo.create ?capacity ?backing ~name:"exec.count_cache" ()

let cache_stats = Memo.stats

(* The key serializes everything a completed count depends on: the
   backend and all its parameters (for Approx: epsilon, delta, seed,
   max_rounds, max_conflicts, scratch — two configs differing only in
   seed may legitimately return different estimates; scratch and
   incremental produce identical estimates but are keyed apart so the
   equivalence gate in check.sh never reads one through the other's
   cache slot) and the full CNF content (nvars, projection set —
   distinguishing [None] from an explicit set — and every literal of
   every clause, in order).  The budget is not part of it: a completed
   count is the same under any budget, and a timeout carries its own
   budget in the entry. *)
let cache_key ~backend (cnf : Cnf.t) =
  let buf = Buffer.create (64 + (8 * Cnf.num_literals cnf)) in
  (match backend with
  | Exact -> Buffer.add_string buf "exact"
  | Brute -> Buffer.add_string buf "brute"
  | Approx { Approx.epsilon; delta; seed; max_rounds; max_conflicts; scratch } ->
      Buffer.add_string buf
        (Printf.sprintf "approx(%h,%h,%d,%s,%d,%c)" epsilon delta seed
           (match max_rounds with None -> "-" | Some r -> string_of_int r)
           max_conflicts
           (if scratch then 's' else 'i')));
  Buffer.add_string buf (Printf.sprintf "|n=%d|p=" cnf.Cnf.nvars);
  (match cnf.Cnf.projection with
  | None -> Buffer.add_char buf '*'
  | Some vs ->
      Array.iter
        (fun v ->
          Buffer.add_string buf (string_of_int v);
          Buffer.add_char buf ',')
        vs);
  Buffer.add_char buf '|';
  Array.iter
    (fun clause ->
      Array.iter
        (fun l ->
          Buffer.add_string buf (string_of_int (l : Lit.t :> int));
          Buffer.add_char buf ' ')
        clause;
      Buffer.add_char buf ';')
    cnf.Cnf.clauses;
  Buffer.contents buf

let count_uncached ~budget ~backend (cnf : Cnf.t) : outcome option =
  let start = Mcml_obs.Obs.monotonic_s () in
  let finish count exact =
    Some { count; exact; time = Mcml_obs.Obs.monotonic_s () -. start }
  in
  let outcome =
    match backend with
    | Exact -> (
        match Exact.count_opt ~budget cnf with
        | Some c -> finish c true
        | None -> None)
    | Approx config -> (
        match Approx.count_opt ~budget ~config cnf with
        | Some c -> finish c false
        | None -> None)
    | Brute -> finish (Brute.count cnf) true
  in
  if outcome = None then Mcml_obs.Obs.add "count.timeouts" 1;
  outcome

let backend_tag = function
  | Exact -> "exact"
  | Approx _ -> "approx"
  | Brute -> "brute"

let count ?(budget = 5000.0) ?cache ~backend (cnf : Cnf.t) : outcome option =
  let timed = Mcml_obs.Obs.enabled () in
  let t0 = if timed then Mcml_obs.Obs.monotonic_s () else 0.0 in
  let outcome =
    match cache with
    | None -> count_uncached ~budget ~backend cnf
    | Some c -> (
        let key = cache_key ~backend cnf in
        (* a timeout answers only budgets no larger than the one it ran
           out under; a larger budget recounts *)
        let answers = function Counted _ -> true | Timed_out b -> budget <= b in
        match Memo.find c ~key ~accept:answers with
        | Some (Counted o) -> Some o
        | Some (Timed_out _) -> None
        | None ->
            let o = count_uncached ~budget ~backend cnf in
            let entry = match o with Some o -> Counted o | None -> Timed_out budget in
            (* the new entry replaces a timeout under a smaller budget *)
            let replace = function
              | Counted _ -> false
              | Timed_out b -> ( match entry with Counted _ -> true | Timed_out b' -> b' > b)
            in
            Memo.add c ~key entry ~replace;
            o)
  in
  (* the end-to-end latency of a count query as the caller sees it
     (cache lookup included), split per backend *)
  if timed then
    Mcml_obs.Obs.observe
      ("counter.count." ^ backend_tag backend ^ "_ms")
      ((Mcml_obs.Obs.monotonic_s () -. t0) *. 1000.0);
  outcome

let count_all ?pool ?budget ?cache ~backend cnfs =
  (* set by the first timeout: a count that has not started by then
     is skipped, since the batch's answer is already [None] *)
  let gave_up = Atomic.make false in
  let one cnf =
    if Atomic.get gave_up then None
    else
      let o = count ?budget ?cache ~backend cnf in
      if Option.is_none o then Atomic.set gave_up true;
      o
  in
  let outcomes =
    match pool with
    | None -> List.map one cnfs
    | Some pool -> Mcml_exec.Pool.map_list pool one cnfs
  in
  if Atomic.get gave_up then None else Some (List.map Option.get outcomes)
