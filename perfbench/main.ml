(* Workload runner of the MCML benchmark (see README.md).

   [main.exe --workload W --seed N --seconds S --trace 0|1] runs one
   workload, checks every output, prints human-readable lines and ends
   with one JSON line holding the run's metrics.  [--setup-only] does
   the workload's set-up, prints "ready" and exits, so that run.py can
   time set-up in fresh processes. *)

module Obs = Mcml_obs.Obs
module Json = Mcml_obs.Json
module Probe = Mcml_obs.Probe
module Props = Mcml_props.Props
module Analyzer = Mcml_alloy.Analyzer
module Counter = Mcml_counting.Counter
module Bignat = Mcml_logic.Bignat
module Splitmix = Mcml_logic.Splitmix
module Experiments = Mcml.Experiments
module Pipeline = Mcml.Pipeline
module Accmc = Mcml.Accmc
module Model = Mcml_ml.Model
module Dataset = Mcml_ml.Dataset
module Metrics = Mcml_ml.Metrics
module Server = Mcml_serve.Server
module Protocol = Mcml_serve.Protocol

let now = Obs.monotonic_s

(* --- statistics over the benchmark's own samples ------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else (a.((n - 1) / 2) +. a.(n / 2)) /. 2.0

(* Harrell-Davis estimate of the [p] quantile: the mean of all order
   statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.  The
   interpolated sample quantile rests on two neighbouring samples; where
   the ops' costs leave a gap it jumps across it with noise, and op
   latencies here have such gaps (a few expensive queries, a few large
   models).  The weights are integrated numerically, in 16 steps per
   sample. *)
let quantile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let alpha = p *. float_of_int (n + 1) and beta = (1.0 -. p) *. float_of_int (n + 1) in
    let steps = 16 in
    let x k = (float_of_int k +. 0.5) /. float_of_int (n * steps) in
    let logpdf = Array.init (n * steps) (fun k -> ((alpha -. 1.0) *. log (x k)) +. ((beta -. 1.0) *. log (1.0 -. x k))) in
    let peak = Array.fold_left Float.max Float.neg_infinity logpdf in
    let w = Array.make n 0.0 in
    Array.iteri (fun k l -> w.(k / steps) <- w.(k / steps) +. exp (l -. peak)) logpdf;
    let total = Array.fold_left ( +. ) 0.0 w in
    let sum = ref 0.0 in
    Array.iteri (fun i wi -> sum := !sum +. (wi *. a.(i))) w;
    !sum /. total
  end

(* --- host speed --------------------------------------------------------------

   The host's speed drifts by tens of percent from one second to the next
   (other tenants share its cores).  A fixed loop that shares no code
   with the program is timed in slices around every pass and, in
   sequential passes, between ops.  The mean slice time over
   [reference_slice_s] is the pass's slowdown, and the pass's timings are
   reported divided by it: in seconds of a host running at the reference
   speed.  The loop inserts pseudo-random keys into a [Map] that it drops
   every 4096 insertions: it allocates and chases pointers the way the
   program does, so the host's slowdowns hit it as they hit the program,
   and it keeps little alive and reads none of the program's data, so
   its time does not follow the program's heap or caches. *)

module Int_map = Map.Make (Int)

let reference_slice_s = 0.005
let slices : float list ref = ref []
let calibrating_s = ref 0.0

let calibrate () =
  let t0 = now () in
  let x = ref 0x2545F4914F6CDD1D and m = ref Int_map.empty in
  for k = 1 to 20_000 do
    let v = !x lxor (!x lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    m := Int_map.add (v land 0xffff) k !m;
    if k land 4095 = 0 then m := Int_map.empty
  done;
  ignore (Sys.opaque_identity !m);
  let d = now () -. t0 in
  slices := d :: !slices;
  calibrating_s := !calibrating_s +. d

let calibrate_n n =
  for _ = 1 to n do
    calibrate ()
  done

(* The slowdown over the slices taken since the last call. *)
let slowdown () =
  let n = List.length !slices in
  let mean = List.fold_left ( +. ) 0.0 !slices /. float_of_int (max 1 n) in
  slices := [];
  if n = 0 then 1.0 else mean /. reference_slice_s

(* --- spans ---------------------------------------------------------------

   Traced passes record one span around every call the benchmark makes
   into a layer.  Spans stay in memory and are written once, at the end
   of the run.  A layer's self time is the duration of its spans minus
   that of the spans opened inside them. *)

type frame = { id : int; t0 : float; mutable inner : float }

type span_record = {
  sid : int;
  parent : int;
  pass : int;
  op : int;
  name : string;
  start : float;
  stop : float;
}

let tracing = ref false
let stack : frame list ref = ref []
let next_id = ref 1
let cur_pass = ref 0
let cur_op = ref 0
let records : span_record list ref = ref []
let self_s : (string, float) Hashtbl.t = Hashtbl.create 16
let calls : (string, int) Hashtbl.t = Hashtbl.create 16

let span name f =
  if not !tracing then f ()
  else begin
    let fr = { id = !next_id; t0 = now (); inner = 0.0 } in
    incr next_id;
    let parent = match !stack with p :: _ -> p.id | [] -> 0 in
    stack := fr :: !stack;
    Fun.protect f ~finally:(fun () ->
        let stop = now () in
        stack := List.tl !stack;
        let dur = stop -. fr.t0 in
        (match !stack with p :: _ -> p.inner <- p.inner +. dur | [] -> ());
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt self_s name) in
        Hashtbl.replace self_s name (prev +. dur -. fr.inner);
        Hashtbl.replace calls name (1 + Option.value ~default:0 (Hashtbl.find_opt calls name));
        records :=
          { sid = fr.id; parent; pass = !cur_pass; op = !cur_op; name; start = fr.t0; stop }
          :: !records)
  end

let self_ms name = 1000.0 *. Option.value ~default:0.0 (Hashtbl.find_opt self_s name)

let write_spans path ~origin =
  let oc = open_out path in
  List.iter
    (fun r ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("id", Json.Int r.sid);
                ("parent", Json.Int r.parent);
                ("pass", Json.Int r.pass);
                ("op", Json.Int r.op);
                ("name", Json.Str r.name);
                ("start_ms", Json.Float (1000.0 *. (r.start -. origin)));
                ("end_ms", Json.Float (1000.0 *. (r.stop -. origin)));
              ]));
      output_char oc '\n')
    (List.rev !records);
  close_out oc

(* --- output checks -------------------------------------------------------- *)

let attempted = ref 0
let failures : string list ref = ref []

(* One op: a table row or a served request.  Any error fails it. *)
let record_op what errs =
  incr attempted;
  if errs <> [] then failures := (what ^ ": " ^ String.concat "; " errs) :: !failures

(* A failure that belongs to no single op (a pass's bookkeeping). *)
let problems : string list ref = ref []
let problem msg = problems := msg :: !problems

(* --- passes ------------------------------------------------------------------ *)

(* The program's own counters, read under [Obs.stats_only] in traced
   passes. *)
let program_counters =
  [
    "enumerate.models";
    "solver.solves";
    "solver.conflicts";
    "solver.propagations";
    "count.exact.calls";
    "count.exact.dnnf_nodes";
    "count.approx.sat_queries";
    "count.approx.solver_builds";
  ]

let ratio a b = if a +. b > 0.0 then a /. (a +. b) else 0.0

let read_program_counters () =
  List.map (fun c -> (c, Obs.counter_value c)) program_counters
  @ [
      ( "count.exact.comp_cache_hit_ratio",
        ratio
          (Obs.counter_value "count.exact.comp_cache_hits")
          (Obs.counter_value "count.exact.comp_cache_misses") );
    ]

type pass = {
  traced : bool;
  slow : float;  (** the pass's slowdown; every time below is divided by it *)
  ended : float;  (** the clock when measuring ended, before the checks *)
  wall : float;  (** s, from the first op issued to the last op completed *)
  lat : float list;  (** per-op latency, ms *)
  layers : (string * float) list;  (** self ms per layer (traced passes) *)
  counts : (string * float) list;  (** counts and ratios (traced passes) *)
  minor_mwords : float;
  major_collections : float;
  cpu_s : float;
}

(* Run one pass.  [body] returns the wall time, the per-op latencies and
   the counts it measured itself; the slices it timed between ops are
   taken out of its wall time. *)
let measured ~traced ~pass_no body =
  Gc.full_major ();
  Hashtbl.reset self_s;
  Hashtbl.reset calls;
  cur_pass := pass_no;
  cur_op := 0;
  if traced then begin
    Obs.set_sink (Obs.stats_only ());
    Obs.reset_counters ()
  end;
  slices := [];
  calibrate_n 10;
  tracing := traced;
  let gc0 = Gc.quick_stat () and ru0 = Probe.rusage () and c0 = !calibrating_s in
  let wall, lat, own_counts = Fun.protect body ~finally:(fun () -> tracing := false) in
  let calibrated = !calibrating_s -. c0 in
  let wall = wall -. calibrated in
  let gc1 = Gc.quick_stat () and ru1 = Probe.rusage () in
  calibrate_n 10;
  let slow = slowdown () in
  let counts =
    if not traced then own_counts
    else begin
      let c = read_program_counters () in
      Obs.set_sink Obs.null;
      own_counts @ c
    end
  in
  {
    traced;
    slow;
    ended = now ();
    wall = wall /. slow;
    lat = List.map (fun ms -> ms /. slow) lat;
    layers = Hashtbl.fold (fun k _ acc -> (k, self_ms k /. slow) :: acc) self_s [];
    counts;
    minor_mwords = (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6;
    major_collections = float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections);
    cpu_s = (ru1.Probe.user_s +. ru1.Probe.sys_s -. ru0.Probe.user_s -. ru0.Probe.sys_s -. calibrated) /. slow;
  }

(* Untraced runs repeat untraced passes.  Traced runs make one untraced
   and two traced passes, then untraced/traced pairs.  A new step starts
   only while the passes are projected to take at most [seconds] in all;
   the untimed checks between passes do not count.

   Pass k of an untraced run draws its inputs from [Hashtbl.hash (seed, k)]
   (pass 1 from [seed] itself), so that a run's medians average over
   several input sets.  Every pass of a traced run uses [seed], so that
   its counts can repeat exactly. *)
let schedule ~seed ~seconds ~trace pass =
  let passes = ref [] and spent = ref 0.0 in
  let run traced =
    let t0 = now () in
    let k = List.length !passes + 1 in
    let seed = if trace || k = 1 then seed else Hashtbl.hash (seed, k) in
    let p = pass ~seed ~traced ~pass_no:k in
    spent := !spent +. (p.ended -. t0);
    passes := p :: !passes
  in
  let first, step = if trace then ([ false; true; true ], [ false; true ]) else ([ false; false ], [ false ]) in
  List.iter run first;
  let fits () =
    let n = float_of_int (List.length !passes) in
    let k = float_of_int (List.length step) in
    !spent *. (n +. k) /. n <= seconds
  in
  while fits () do
    List.iter run step
  done;
  List.rev !passes

(* --- table workloads -------------------------------------------------------

   The table workloads time rows that the benchmark composes from the
   same public calls the [Experiments] function makes, in the same
   order.  Traced runs also call that function once, untimed, and every
   composed row must equal its row. *)

type 'row table = {
  experiment : Experiments.config -> 'row list;  (** the table as [Experiments] builds it *)
  composed : Experiments.config -> emit:('row -> string list -> unit) -> unit;
      (** calls [emit row errors] after each row *)
  same : 'row -> 'row -> bool;
  check : 'row -> string list;  (** output invariants of one row *)
  label : 'row -> string;
  rows : int;  (** rows per pass *)
  reference : 'row list -> unit;  (** untimed reference counts for [check] *)
}

(* The table workloads' configuration: [Experiments.fast], rows in
   sequence, one fresh count cache per pass. *)
let table_config seed =
  {
    Experiments.fast with
    Experiments.seed;
    pool = None;
    cache = Some (Counter.cache_create ());
  }

let count_layer = function Counter.Approx _ -> "counting.approx" | _ -> "counting.exact"

let cache_hit_ratio (cfg : Experiments.config) =
  match cfg.Experiments.cache with
  | None -> 0.0
  | Some c ->
      let s = Counter.cache_stats c in
      ratio (float_of_int s.Mcml_exec.Memo.hits) (float_of_int s.Mcml_exec.Memo.misses)

let table_pass t ~expected_rows ~seed ~traced ~pass_no =
  let rows = ref [] in
  let p =
    measured ~traced ~pass_no (fun () ->
        let cfg = table_config seed in
        let lat = ref [] in
        let t0 = now () in
        let last = ref t0 in
        t.composed cfg ~emit:(fun row errs ->
            lat := ((now () -. !last) *. 1000.0) :: !lat;
            rows := (row, errs) :: !rows;
            incr cur_op;
            calibrate ();
            last := now ());
        let wall = now () -. t0 in
        let spans = float_of_int (Option.value ~default:0 (Hashtbl.find_opt calls "counting.exact")) in
        ( wall,
          List.rev !lat,
          [ ("exec.count_cache.hit_ratio", cache_hit_ratio cfg); ("counting.exact.calls", spans) ] ))
  in
  let rows = List.rev !rows in
  if List.length rows <> t.rows then
    problem (Printf.sprintf "pass %d: %d rows, expected %d" pass_no (List.length rows) t.rows);
  t.reference (List.map fst rows);
  List.iteri
    (fun k (row, errs) ->
      let experiment_errs =
        match expected_rows with
        | None -> []
        | Some d -> (
            match List.nth_opt d k with
            | Some d when t.same d row -> []
            | _ -> [ "differs from the Experiments row" ])
      in
      record_op
        (Printf.sprintf "pass %d row %d (%s)" pass_no (k + 1) (t.label row))
        (errs @ t.check row @ experiment_errs))
    rows;
  p

let run_table t ~seed ~seconds ~trace =
  let expected_rows = if trace then Some (t.experiment (table_config seed)) else None in
  schedule ~seed ~seconds ~trace (table_pass t ~expected_rows)

(* Table 1 *)

let eps = Experiments.fast.Experiments.approx_config.Mcml_counting.Approx.epsilon

let t1_row (cfg : Experiments.config) (prop : Props.t) : Experiments.t1_row =
  let pred = prop.Props.pred in
  let scope = span "props.select_scope" (fun () -> Experiments.scope_for cfg prop ~symmetry:true) in
  let analyzer = Props.analyzer ~scope in
  let enumerated, complete =
    span "alloy.enumerate" (fun () ->
        Analyzer.enumerate ~symmetry:true ~limit:cfg.Experiments.max_positives analyzer ~pred)
  in
  let n_enum = List.length enumerated in
  let count ~symmetry backend =
    let cnf = span "alloy.cnf" (fun () -> Analyzer.cnf ~symmetry analyzer ~pred) in
    match
      span (count_layer backend) (fun () ->
          Counter.count ~budget:cfg.Experiments.budget ?cache:cfg.Experiments.cache ~backend cnf)
    with
    | Some o -> Bignat.to_string o.Counter.count
    | None -> "-"
  in
  let approx = Counter.Approx cfg.Experiments.approx_config in
  let exact_nosym = count ~symmetry:false Counter.Exact in
  let exact_sym = count ~symmetry:true Counter.Exact in
  let approx_nosym = count ~symmetry:false approx in
  let approx_sym = count ~symmetry:true approx in
  {
    Experiments.t1_prop = prop.Props.name;
    t1_scope = scope;
    t1_state_bits = scope * scope;
    t1_alloy = (if complete then string_of_int n_enum else Printf.sprintf ">=%d" n_enum);
    t1_approx_sym = approx_sym;
    t1_approx_nosym = approx_nosym;
    t1_exact_sym = exact_sym;
    t1_exact_nosym = exact_nosym;
  }

let check_t1 (r : Experiments.t1_row) =
  let prop = Props.find_exn r.Experiments.t1_prop in
  let cols =
    [
      ("Approx-SymBr", r.Experiments.t1_approx_sym);
      ("Approx-NoSymBr", r.t1_approx_nosym);
      ("Exact-SymBr", r.t1_exact_sym);
      ("Exact-NoSymBr", r.t1_exact_nosym);
    ]
  in
  let timeouts =
    List.filter_map (fun (c, v) -> if v = "-" then Some (c ^ " timed out") else None) cols
  in
  let closed_form =
    match prop.Props.closed_form r.t1_scope with
    | Some c when Bignat.to_string c <> r.t1_exact_nosym ->
        [ Printf.sprintf "Exact-NoSymBr %s, closed form %s" r.t1_exact_nosym (Bignat.to_string c) ]
    | _ -> []
  in
  let alloy =
    if String.starts_with ~prefix:">=" r.t1_alloy then []
    else if r.t1_alloy <> r.t1_exact_sym then
      [ Printf.sprintf "Valid-SymBr (Alloy) %s, Exact-SymBr %s" r.t1_alloy r.t1_exact_sym ]
    else []
  in
  let within col approx exact =
    match (Bignat.of_string approx, Bignat.of_string exact) with
    | Some a, Some e ->
        let a = Bignat.to_float a and e = Bignat.to_float e in
        if a <= e *. (1.0 +. eps) && a *. (1.0 +. eps) >= e then []
        else [ Printf.sprintf "%s %.0f outside (1+%g) of exact %.0f" col a eps e ]
    | _ -> []
  in
  timeouts @ closed_form @ alloy
  @ within "Approx-SymBr" r.t1_approx_sym r.t1_exact_sym
  @ within "Approx-NoSymBr" r.t1_approx_nosym r.t1_exact_nosym

let table1 =
  {
    experiment = Experiments.table1;
    composed =
      (fun cfg ~emit ->
        List.iter (fun prop -> emit (t1_row cfg prop) []) cfg.Experiments.properties);
    same = ( = );
    check = check_t1;
    label = (fun r -> r.Experiments.t1_prop);
    rows = List.length Props.all;
    reference = ignore;
  }

(* Tables 3 and 7: both evaluate over the symmetry-broken space. *)

let confusion_errs (m : Metrics.confusion) n =
  let total = m.Metrics.tp +. m.fp +. m.tn +. m.fn in
  (if total <> float_of_int n then
     [ Printf.sprintf "test confusion sums to %.0f, test set has %d" total n ]
   else [])
  @ if Float.min (Float.min m.tp m.fp) (Float.min m.tn m.fn) < 0.0 then [ "negative confusion entry" ] else []

let dt_row (cfg : Experiments.config) ~data_symmetry ~eval_symmetry (prop : Props.t) =
  let seed = cfg.Experiments.seed in
  let scope =
    span "props.select_scope" (fun () -> Experiments.scope_for cfg prop ~symmetry:data_symmetry)
  in
  let data =
    span "core.generate" (fun () ->
        Pipeline.generate prop
          {
            Pipeline.scope;
            symmetry = data_symmetry;
            max_positives = cfg.Experiments.max_positives;
            seed;
          })
  in
  let rng = Splitmix.create (seed + 13) in
  let train, test =
    span "ml.split" (fun () ->
        Dataset.split rng ~train_fraction:cfg.Experiments.dt_train_fraction data.Pipeline.dataset)
  in
  let model =
    span "ml.train" (fun () -> Model.train ~sizes:cfg.Experiments.sizes ~seed:(seed + 7) Model.DT train)
  in
  let tree = Option.get model.Model.tree in
  let test_metrics = span "ml.evaluate" (fun () -> Model.evaluate model test) in
  let phi, not_phi =
    span "alloy.cnf" (fun () -> Pipeline.ground_truth prop ~scope ~symmetry:eval_symmetry)
  in
  let space = span "alloy.cnf" (fun () -> Pipeline.space_cnf ~scope ~symmetry:eval_symmetry) in
  let counts =
    span "core.accmc" (fun () ->
        Accmc.counts ~budget:cfg.Experiments.budget ?cache:cfg.Experiments.cache
          ~backend:cfg.Experiments.backend ~phi ~not_phi ~space ~nprimary:(scope * scope) tree)
  in
  ( { Experiments.d_prop = prop.Props.name; d_scope = scope; d_test = test_metrics; d_phi = counts },
    confusion_errs test_metrics (Dataset.size test) )

(* mc(ϕ∧U), mc(¬ϕ∧U) and mc(U) per (property, scope), counted once per
   run after the first pass, untimed; [None] when a reference count timed out. *)
let dt_refs : (string * int, (Bignat.t * Bignat.t * Bignat.t) option) Hashtbl.t =
  Hashtbl.create 32

let dt_reference rows =
  List.iter
    (fun (r : Experiments.dt_row) ->
      let key = (r.Experiments.d_prop, r.d_scope) in
      if not (Hashtbl.mem dt_refs key) then begin
        let prop = Props.find_exn r.d_prop and scope = r.d_scope in
        let phi, not_phi = Pipeline.ground_truth prop ~scope ~symmetry:true in
        let space = Pipeline.space_cnf ~scope ~symmetry:true in
        let mc cnf =
          Option.map
            (fun o -> o.Counter.count)
            (Counter.count ~budget:Experiments.fast.Experiments.budget ~backend:Counter.Exact cnf)
        in
        let refs =
          match (mc phi, mc not_phi, mc space) with
          | Some a, Some b, Some u -> Some (a, b, u)
          | _ -> None
        in
        Hashtbl.replace dt_refs key refs
      end)
    rows

let check_dt (r : Experiments.dt_row) =
  match (r.Experiments.d_phi, Hashtbl.find_opt dt_refs (r.d_prop, r.d_scope)) with
  | None, _ -> [ "AccMC timed out" ]
  | Some _, (None | Some None) -> [ "reference count timed out" ]
  | Some c, Some (Some (phi_u, not_phi_u, u)) ->
      let eq what got want =
        if Bignat.equal got want then []
        else [ Printf.sprintf "%s = %s, expected %s" what (Bignat.to_string got) (Bignat.to_string want) ]
      in
      let open Accmc in
      eq "tp+fn" (Bignat.add c.tp c.fn) phi_u
      @ eq "fp+tn" (Bignat.add c.fp c.tn) not_phi_u
      @ eq "tp+fp+tn+fn" (List.fold_left Bignat.add Bignat.zero [ c.tp; c.fp; c.tn; c.fn ]) u

let same_dt (a : Experiments.dt_row) (b : Experiments.dt_row) =
  let same_counts =
    match (a.Experiments.d_phi, b.Experiments.d_phi) with
    | None, None -> true
    | Some x, Some y ->
        Bignat.equal x.Accmc.tp y.Accmc.tp && Bignat.equal x.fp y.fp && Bignat.equal x.tn y.tn
        && Bignat.equal x.fn y.fn
    | _ -> false
  in
  a.d_prop = b.d_prop && a.d_scope = b.d_scope && a.d_test = b.d_test && same_counts

let dt_tables = [ (true, true); (false, true) ]

let dt_accmc =
  {
    experiment =
      (fun cfg ->
        List.concat_map
          (fun (data_symmetry, eval_symmetry) ->
            Experiments.dt_generalization cfg ~data_symmetry ~eval_symmetry)
          dt_tables);
    composed =
      (fun cfg ~emit ->
        List.iter
          (fun (data_symmetry, eval_symmetry) ->
            List.iter
              (fun prop ->
                let row, errs = dt_row cfg ~data_symmetry ~eval_symmetry prop in
                emit row errs)
              cfg.Experiments.properties)
          dt_tables);
    same = same_dt;
    check = check_dt;
    label = (fun r -> r.Experiments.d_prop);
    rows = List.length dt_tables * List.length Props.all;
    reference = dt_reference;
  }

(* Tables 2 and 4: six models on PartialOrder, with and without symmetry
   breaking.  Work shared by a table's rows is charged to its first
   row, which waits for it. *)

let zoo_prop = Props.find_exn "PartialOrder"

let zoo_table (cfg : Experiments.config) ~symmetry ~emit =
  let seed = cfg.Experiments.seed in
  let scope =
    span "props.select_scope" (fun () ->
        max cfg.Experiments.min_scope
          (Props.select_scope zoo_prop ~symmetry
             ~threshold:(max cfg.Experiments.threshold 800)
             ~max_scope:cfg.Experiments.max_scope))
  in
  let data =
    span "core.generate" (fun () ->
        Pipeline.generate zoo_prop
          { Pipeline.scope; symmetry; max_positives = cfg.Experiments.max_positives; seed })
  in
  let dataset = data.Pipeline.dataset in
  let balance =
    if Dataset.num_positive dataset <> Dataset.num_negative dataset then [ "dataset not balanced" ]
    else []
  in
  List.iter
    (fun ratio ->
      let fraction = Pipeline.train_fraction_of_ratio ratio in
      let rng = Splitmix.create (seed + fst ratio) in
      let train, test =
        span "ml.split" (fun () -> Dataset.split rng ~train_fraction:fraction dataset)
      in
      List.iter
        (fun kind ->
          let model =
            span "ml.train" (fun () -> Model.train ~sizes:cfg.Experiments.sizes ~seed:(seed + 7) kind train)
          in
          let m = span "ml.evaluate" (fun () -> Model.evaluate model test) in
          emit
            { Experiments.p_ratio = ratio; p_model = kind; p_metrics = m }
            (balance @ confusion_errs m (Dataset.size test)))
        Model.kinds)
    cfg.Experiments.ratios

let model_zoo =
  {
    experiment =
      (fun cfg ->
        List.concat_map
          (fun symmetry -> Experiments.model_performance cfg ~prop:zoo_prop ~symmetry)
          [ true; false ]);
    composed = (fun cfg ~emit -> List.iter (fun symmetry -> zoo_table cfg ~symmetry ~emit) [ true; false ]);
    same = ( = );
    check = (fun _ -> []);
    label =
      (fun r ->
        let a, b = r.Experiments.p_ratio in
        Printf.sprintf "%d:%d %s" a b (Model.name_of r.p_model));
    rows = 2 * List.length Experiments.fast.Experiments.ratios * List.length Model.kinds;
    reference = ignore;
  }

(* --- serve-count -------------------------------------------------------------

   Exact counts of every property at four query shapes, sent over a
   socketpair to a two-worker server by one client that waits for each
   answer before it sends the next request (a closed loop).  A
   seed-chosen quarter of the queries is asked again.

   One request in flight, not two: with two, the two worker domains
   allocate at once and stall each other at the runtime's stop-the-world
   minor collections, and on a two-core host shared with other tenants
   the run-to-run spread grew past any usable bound. *)

type query = { qid : int; qprop : Props.t; qscope : int; qsym : bool; qneg : bool }

let queries =
  List.concat_map
    (fun prop ->
      List.map
        (fun (qscope, qsym, qneg) -> (prop, qscope, qsym, qneg))
        [ (5, false, false); (5, true, false); (5, true, true); (4, true, true) ])
    Props.all
  |> List.mapi (fun qid (qprop, qscope, qsym, qneg) -> { qid; qprop; qscope; qsym; qneg })
  |> Array.of_list

let deadline_ms = 20_000.0
let budget_s = 60.0
let server_config = { Server.default_config with Server.jobs = 2; cache = true }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Splitmix.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* The requests of one pass, in sending order: the 64 queries shuffled,
   then a quarter of them asked again.  With one request in flight, a
   repeat always follows its first answer.  Repeats are drawn from the
   three cheaper shapes: a negated symmetric scope-5 count takes from
   0.06 s to 2.4 s, and which of those a seed repeated moved a pass's
   time by up to 40 %. *)
let serve_plan seed =
  let rng = Splitmix.create seed in
  let firsts = Array.copy queries in
  shuffle rng firsts;
  let candidates =
    Array.of_list (List.filter (fun q -> not (q.qneg && q.qscope = 5)) (Array.to_list firsts))
  in
  shuffle rng candidates;
  Array.append firsts (Array.sub candidates 0 (Array.length queries / 4))

let count_request ~seed k q =
  {
    Protocol.id = Json.Int k;
    trace = None;
    deadline_ms = Some deadline_ms;
    kind =
      Protocol.Count
        {
          Protocol.prop = q.qprop;
          scope = Some q.qscope;
          symmetry = q.qsym;
          negate = q.qneg;
          backend = Counter.Exact;
          budget = budget_s;
          seed;
        };
  }

let stats_request = { Protocol.id = Json.Str "stats"; trace = None; deadline_ms = None; kind = Protocol.Stats }

let json_int path j =
  match List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path with
  | Some (Json.Int i) -> i
  | _ -> -1

let count_in_process q =
  match
    Analyzer.count ~negate:q.qneg ~symmetry:q.qsym ~budget:budget_s ~backend:Counter.Exact
      (Props.analyzer ~scope:q.qscope) ~pred:q.qprop.Props.pred
  with
  | Some o -> Bignat.to_string o.Counter.count
  | None -> "-"

let check_served ~reference q (body : (Json.t, Protocol.error_code * string) result) =
  match body with
  | Error (code, msg) -> [ Protocol.code_name code ^ ": " ^ msg ]
  | Ok j ->
      let count = match Json.member "count" j with Some (Json.Str s) -> s | _ -> "?" in
      let want = reference.(q.qid) in
      (if count <> want then [ Printf.sprintf "count %s, in-process count %s" count want ] else [])
      @ (match q.qprop.Props.closed_form q.qscope with
        | Some c when (not q.qsym) && (not q.qneg) && Bignat.to_string c <> count ->
            [ Printf.sprintf "count %s, closed form %s" count (Bignat.to_string c) ]
        | _ -> [])
      @ if Json.member "exact" j = Some (Json.Bool true) then [] else [ "count not exact" ]

let query_label q =
  Printf.sprintf "%s@%d%s%s" q.qprop.Props.name q.qscope
    (if q.qneg then " negated" else "")
    (if q.qsym then " symmetric" else "")

type connection = { srv : Server.t; fd : Unix.file_descr; ic : in_channel; oc : out_channel; handler : Thread.t }

let connect () =
  let srv = Server.create server_config in
  let sfd, fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let handler =
    Thread.create
      (fun () ->
        let oc = Unix.out_channel_of_descr sfd in
        Server.handle_connection srv ~input:sfd ~output:oc;
        close_out_noerr oc)
      ()
  in
  { srv; fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; handler }

let disconnect c =
  Unix.shutdown c.fd Unix.SHUTDOWN_SEND;
  Thread.join c.handler;
  close_in_noerr c.ic;
  Server.shutdown c.srv

(* One round trip: encode, send, wait, decode. *)
let call c req =
  let line = span "serve.protocol" (fun () -> Json.to_string (Protocol.request_to_json req)) in
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  let line = input_line c.ic in
  match span "serve.protocol" (fun () -> Protocol.response_of_string line) with
  | Ok r when r.Protocol.rid = req.Protocol.id -> r.Protocol.body
  | Ok _ -> Error (Protocol.Internal, "response to another request")
  | Error msg -> Error (Protocol.Internal, "malformed response: " ^ msg)

let served_pass ~reference ~seed ~traced ~pass_no =
  let order = serve_plan seed in
  let c = connect () in
  let bodies = Array.make (Array.length order) (Error (Protocol.Internal, "no response")) in
  let stats = ref Json.Null in
  let p =
    measured ~traced ~pass_no (fun () ->
        let t0 = now () in
        let lat =
          Array.mapi
            (fun k q ->
              cur_op := k;
              let sent = now () in
              bodies.(k) <- call c (count_request ~seed k q);
              let ms = (now () -. sent) *. 1000.0 in
              calibrate ();
              ms)
            order
        in
        let wall = now () -. t0 in
        (match call c stats_request with Ok j -> stats := j | Error _ -> ());
        let hits = json_int [ "cache"; "hits" ] !stats and misses = json_int [ "cache"; "misses" ] !stats in
        ( wall,
          Array.to_list lat,
          [
            ("exec.count_cache.hit_ratio", ratio (float_of_int hits) (float_of_int misses));
            ("counting.exact.calls", float_of_int misses);
          ] ))
  in
  disconnect c;
  Array.iteri
    (fun k q ->
      record_op
        (Printf.sprintf "pass %d request %d (%s)" pass_no k (query_label q))
        (check_served ~reference q bodies.(k)))
    order;
  let ok = json_int [ "requests"; "ok" ] !stats in
  if ok <> Array.length order then
    problem (Printf.sprintf "pass %d: server reports %d ok requests of %d" pass_no ok (Array.length order));
  p

(* Traced runs replay one pass's requests in sequence.  Each request
   goes through [Server.execute] on a fresh server, then through
   [Analyzer.cnf] and, when the server counted rather than looked the
   query up, through [Counter.count]; those counts are the reference.
   The server's own work is its execute time minus the count time it
   reports for the same call and minus the replayed cnf time. *)
type replay = {
  reference : string array;
  execute_ms : float;  (** the replay's traced wall: the server busy in sequence *)
  own_ms : float;  (** [Server.execute] minus the counts it made *)
  cnf_ms : float;
  count_ms : float;
}

let serve_replay ~seed =
  let order = serve_plan seed in
  let reference = Array.make (Array.length queries) "-" in
  let srv = Server.create { server_config with Server.jobs = 1 } in
  let misses () =
    match (Server.execute srv stats_request).Protocol.body with
    | Ok j -> json_int [ "cache"; "misses" ] j
    | Error _ -> -1
  in
  let own = ref 0.0 in
  slices := [];
  Hashtbl.reset self_s;
  Obs.set_sink (Obs.stats_only ());
  tracing := true;
  let bodies =
    Array.mapi
      (fun k q ->
        cur_op := k;
        let m0 = misses () in
        let t0 = now () in
        let resp = span "serve.execute" (fun () -> Server.execute srv (count_request ~seed k q)) in
        let execute_s = now () -. t0 in
        let counted = misses () > m0 in
        let count_s =
          match resp.Protocol.body with
          | Ok j when counted -> Option.value ~default:0.0 (Option.bind (Json.member "time_s" j) Json.to_float_opt)
          | _ -> 0.0
        in
        own := !own +. execute_s -. count_s;
        let cnf =
          span "alloy.cnf" (fun () ->
              Analyzer.cnf ~negate:q.qneg ~symmetry:q.qsym (Props.analyzer ~scope:q.qscope)
                ~pred:q.qprop.Props.pred)
        in
        (if counted then
           match span "counting.exact" (fun () -> Counter.count ~budget:budget_s ~backend:Counter.Exact cnf) with
           | Some o when reference.(q.qid) = "-" -> reference.(q.qid) <- Bignat.to_string o.Counter.count
           | _ -> ());
        calibrate ();
        resp.Protocol.body)
      order
  in
  tracing := false;
  Obs.set_sink Obs.null;
  Server.shutdown srv;
  Array.iteri
    (fun k q ->
      match check_served ~reference q bodies.(k) with
      | [] -> ()
      | errs -> problem (Printf.sprintf "replay request %d (%s): %s" k (query_label q) (String.concat "; " errs)))
    order;
  let slow = slowdown () in
  let cnf_ms = self_ms "alloy.cnf" /. slow in
  {
    reference;
    execute_ms = self_ms "serve.execute" /. slow;
    own_ms = (1000.0 *. !own /. slow) -. cnf_ms;
    cnf_ms;
    count_ms = self_ms "counting.exact" /. slow;
  }

let run_serve ~seed ~seconds ~trace =
  let replay = if trace then Some (serve_replay ~seed) else None in
  let reference =
    match replay with Some r -> r.reference | None -> Array.map count_in_process queries
  in
  (schedule ~seed ~seconds ~trace (served_pass ~reference), replay)

(* --- reporting ------------------------------------------------------------------ *)

let layers =
  [
    "props.select_scope";
    "alloy.enumerate";
    "core.generate";
    "alloy.cnf";
    "counting.exact";
    "counting.approx";
    "core.accmc";
    "ml.split";
    "ml.train";
    "ml.evaluate";
    "serve.protocol";
  ]

(* Ops completed per second over all of [ps]. *)
let ops_per_s ps =
  let ops = List.fold_left (fun n p -> n + List.length p.lat) 0 ps in
  float_of_int ops /. List.fold_left (fun t p -> t +. p.wall) 0.0 ps
let untraced ps = List.filter (fun p -> not p.traced) ps
let traced ps = List.filter (fun p -> p.traced) ps
let layer_ms p name = Option.value ~default:0.0 (List.assoc_opt name p.layers)
let count_of p name = Option.value ~default:0.0 (List.assoc_opt name p.counts)
let med f ps = median (List.map f ps)

let end_to_end passes =
  let un = untraced passes in
  let lat = List.concat_map (fun p -> p.lat) un in
  let n = List.length lat in
  let p90 = quantile 0.9 lat in
  Printf.printf "op latency: %d samples, %d beyond p90\n" n
    (List.length (List.filter (fun x -> x > p90) lat));
  [
    ("ops_per_s", ops_per_s un, "1/s");
    ("op_p50_ms", quantile 0.5 lat, "ms");
    ("op_p90_ms", p90, "ms");
    ("peak_rss_mb", (Probe.rusage ()).Probe.max_rss_bytes /. 1e6, "MB");
  ]

(* Counts that back a later count-based claim only if every traced pass
   read the same value. *)
let count_names =
  ("counting.exact.calls" :: "exec.count_cache.hit_ratio" :: program_counters)
  @ [ "count.exact.comp_cache_hit_ratio" ]

let report_repeats passes =
  let tr = traced passes in
  let repeats, varies =
    List.partition
      (fun name ->
        match List.map (fun p -> count_of p name) tr with
        | [] -> false
        | v :: rest -> List.for_all (fun x -> x = v) rest)
      count_names
  in
  Printf.printf "counts repeating exactly over %d traced passes: %s\n" (List.length tr)
    (String.concat " " repeats);
  Printf.printf "counts that vary between traced passes: %s\n"
    (if varies = [] then "(none)" else String.concat " " varies)

let per_layer passes replay =
  let tr = traced passes and un = untraced passes in
  (* serve-count takes cnf and count time from its replay *)
  let layer name =
    match (replay, name) with
    | Some r, "alloy.cnf" -> r.cnf_ms
    | Some r, "counting.exact" -> r.count_ms
    | _ -> med (fun p -> layer_ms p name) tr
  in
  let layer_metrics = List.map (fun l -> (l ^ ".self_ms", layer l, "ms")) layers in
  let serve_metrics =
    match replay with
    | None -> [ ("serve.transport_ms", 0.0, "ms"); ("serve.execute.self_ms", 0.0, "ms") ]
    | Some r ->
        [
          ("serve.transport_ms", med (fun p -> List.fold_left ( +. ) 0.0 p.lat) tr -. r.execute_ms, "ms");
          ("serve.execute.self_ms", r.own_ms, "ms");
        ]
  in
  let counts =
    List.map
      (fun name ->
        let unit = if String.ends_with ~suffix:"_ratio" name then "ratio" else "count" in
        (name, med (fun p -> count_of p name) tr, unit))
      count_names
  in
  (* the traced wall: the traced passes, or for serve-count the replay
     through Server.execute *)
  let unattributed =
    match replay with
    | Some r -> r.execute_ms -. r.own_ms -. r.cnf_ms -. r.count_ms
    | None ->
        med
          (fun p -> (1000.0 *. p.wall) -. List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 p.layers)
          tr
  in
  let traced_wall =
    match replay with Some r -> r.execute_ms | None -> med (fun p -> 1000.0 *. p.wall) tr
  in
  Printf.printf "traced wall %.1f ms, of which %.1f%% unattributed to named layers\n" traced_wall
    (100.0 *. unattributed /. traced_wall);
  layer_metrics @ serve_metrics @ counts
  @ [
      ("gc.minor_mwords", med (fun p -> p.minor_mwords) un, "Mwords");
      ("gc.major_collections", med (fun p -> p.major_collections) un, "count");
      ("cpu_s", med (fun p -> p.cpu_s) un, "s");
      ("unattributed_ms", unattributed, "ms");
      ("trace_overhead", ops_per_s un /. ops_per_s tr, "ratio");
    ]

let print_result metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "%-36s %14.4f %s\n" name v unit) metrics;
  let failed = List.length !failures in
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (List.rev !failures);
  List.iter (fun f -> Printf.printf "PROBLEM %s\n" f) (List.rev !problems);
  Printf.printf "failed_frac %d/%d = %g\n" failed !attempted
    (float_of_int failed /. float_of_int (max 1 !attempted));
  let correct = failed = 0 && !problems = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
                   metrics) );
          ]));
  if not correct then exit 1

(* --- main ------------------------------------------------------------------------ *)

let workloads = [ "table1-counts"; "dt-accmc"; "model-zoo"; "serve-count" ]

(* The set-up a run pays before its first op: the parsed spec and the
   count cache; for serve-count also the server and its connection.
   After "ready" comes the host's slowdown, measured right after. *)
let setup_only workload =
  ignore (Props.spec ());
  ignore (Counter.cache_create ());
  let ready () =
    print_endline "ready";
    calibrate_n 10;
    Printf.printf "%.6f\n" (slowdown ())
  in
  if workload = "serve-count" then begin
    let c = connect () in
    ready ();
    disconnect c
  end
  else ready ()

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let setup = ref false and trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of: " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--setup-only", Arg.Set setup, " do the set-up, print \"ready\" and exit");
      ("--trace-out", Arg.Set_string trace_out, " FILE for the traced run's spans (JSONL)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Obs.set_sink Obs.null;
  if !setup then setup_only !workload
  else begin
    let trace = !trace = 1 and seed = !seed and seconds = !seconds in
    let origin = now () in
    Printf.printf "workload %s seed %d seconds %g trace %b\n%!" !workload seed seconds trace;
    let passes, replay =
      match !workload with
      | "table1-counts" -> (run_table table1 ~seed ~seconds ~trace, None)
      | "dt-accmc" -> (run_table dt_accmc ~seed ~seconds ~trace, None)
      | "model-zoo" -> (run_table model_zoo ~seed ~seconds ~trace, None)
      | _ -> run_serve ~seed ~seconds ~trace
    in
    Printf.printf "passes (s at reference speed, t = traced, x slowdown): %s\n"
      (String.concat " "
         (List.map
            (fun p -> Printf.sprintf "%.3f%s(x%.3f)" p.wall (if p.traced then "t" else "") p.slow)
            passes));
    if trace then begin
      report_repeats passes;
      if !trace_out <> "" then write_spans !trace_out ~origin;
      print_result (per_layer passes replay)
    end
    else print_result (end_to_end passes)
  end
