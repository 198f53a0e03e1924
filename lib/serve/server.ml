module Obs = Mcml_obs.Obs
module Json = Mcml_obs.Json
module Metrics = Mcml_obs.Metrics
module Probe = Mcml_obs.Probe
module Pool = Mcml_exec.Pool
module Props = Mcml_props.Props
module Counter = Mcml_counting.Counter
module Bignat = Mcml_logic.Bignat

type config = {
  jobs : int;
  admission : int;
  queue_cap : int;
  cache : bool;
  cache_capacity : int;
  probe_interval_s : float;
  shard_id : int option;
  cache_dir : string option;
}

let default_config =
  {
    jobs = 1;
    admission = 64;
    queue_cap = 128;
    cache = true;
    cache_capacity = 4096;
    probe_interval_s = 1.0;
    shard_id = None;
    cache_dir = None;
  }

(* Request totals, kept as atomics (not Obs counters) so the [stats]
   response works even when no telemetry sink is installed. *)
type totals = {
  total : int Atomic.t;
  ok : int Atomic.t;
  bad_request : int Atomic.t;
  overloaded : int Atomic.t;
  timeout : int Atomic.t;
  drained : int Atomic.t;
  internal : int Atomic.t;
}

type t = {
  cfg : config;
  pool : Pool.t;
  cache : Counter.cache option;
  disk : Mcml_exec.Diskcache.t option;
      (** persistent tier behind [cache]; owned (and closed) here *)
  inflight : int Atomic.t;  (** admitted counting requests not yet finished *)
  drain_flag : bool Atomic.t;
  started : float;
  totals : totals;
  root_ctx : Obs.context;
      (** the no-span context, captured at [create]: connection spans
          are started under it so they are always trace roots, however
          threads interleave on the creating domain *)
}

(* Dynamic probe sources the server owns: registered at [create],
   removed at [shutdown], so a [metrics] scrape always carries fresh
   pool/cache/SLO gauges. *)
let probe_sources = [ "serve.inflight"; "serve.uptime_s"; "exec.pool.queue_depth";
                      "exec.count_cache.hit_ratio"; "exec.count_cache.size";
                      "serve.slo.deadline_hit_ratio"; "serve.request.p99_ms" ]

let register_probes t =
  Probe.register "serve.inflight" (fun () ->
      float_of_int (Atomic.get t.inflight));
  Probe.register "serve.uptime_s" (fun () -> Obs.monotonic_s () -. t.started);
  Probe.register "exec.pool.queue_depth" (fun () ->
      float_of_int (Pool.queue_depth t.pool));
  (match t.cache with
  | None -> ()
  | Some c ->
      Probe.register "exec.count_cache.hit_ratio" (fun () ->
          let s = Counter.cache_stats c in
          let total = s.Mcml_exec.Memo.hits + s.Mcml_exec.Memo.misses in
          if total = 0 then 1.0
          else float_of_int s.Mcml_exec.Memo.hits /. float_of_int total);
      Probe.register "exec.count_cache.size" (fun () ->
          float_of_int (Counter.cache_stats c).Mcml_exec.Memo.size));
  Probe.register "serve.slo.deadline_hit_ratio" (fun () ->
      let total = Obs.counter_value "serve.slo.deadline_requests" in
      if total <= 0.0 then 1.0
      else Obs.counter_value "serve.slo.deadline_hit" /. total);
  Probe.register "serve.request.p99_ms" (fun () ->
      match Obs.histogram_stats "serve.request" with
      | Some s -> s.Obs.p99
      | None -> 0.0)

let create cfg =
  let cfg = { cfg with jobs = max 1 cfg.jobs; admission = max 0 cfg.admission } in
  let disk =
    if cfg.cache then
      Option.map (fun dir -> Mcml_exec.Diskcache.open_ dir) cfg.cache_dir
    else None
  in
  let t =
    {
      cfg;
      pool = Pool.create ~jobs:cfg.jobs ();
      cache =
        (if cfg.cache then
           Some (Counter.cache_create ~capacity:cfg.cache_capacity ?disk ())
         else None);
      disk;
      inflight = Atomic.make 0;
      drain_flag = Atomic.make false;
      started = Obs.monotonic_s ();
      totals =
        {
          total = Atomic.make 0;
          ok = Atomic.make 0;
          bad_request = Atomic.make 0;
          overloaded = Atomic.make 0;
          timeout = Atomic.make 0;
          drained = Atomic.make 0;
          internal = Atomic.make 0;
        };
      root_ctx = Obs.current_context ();
    }
  in
  register_probes t;
  t

let jobs t = Pool.jobs t.pool
let drain t = Atomic.set t.drain_flag true
let draining t = Atomic.get t.drain_flag

let shutdown t =
  List.iter Probe.unregister probe_sources;
  Pool.shutdown t.pool;
  Option.iter Mcml_exec.Diskcache.close t.disk

(* Every response the server produces passes through here exactly once:
   totals for [stats], mirrored to Obs counters for traces. *)
let record t (resp : Protocol.response) =
  Atomic.incr t.totals.total;
  (match resp.Protocol.body with
  | Ok _ ->
      Atomic.incr t.totals.ok;
      Obs.add "serve.requests.ok" 1
  | Error (code, _) ->
      let cell =
        match code with
        | Protocol.Bad_request -> t.totals.bad_request
        | Protocol.Overloaded -> t.totals.overloaded
        | Protocol.Timeout -> t.totals.timeout
        | Protocol.Draining -> t.totals.drained
        | Protocol.Internal -> t.totals.internal
      in
      Atomic.incr cell;
      Obs.add ("serve.requests." ^ Protocol.code_name code) 1;
      if code = Protocol.Overloaded then
        Obs.add "serve.slo.overload_rejections" 1);
  resp

(* --- request execution -------------------------------------------------- *)

let resolve_scope (q : Protocol.query) =
  match q.scope with
  | Some s -> s
  | None ->
      Mcml.Experiments.scope_for Mcml.Experiments.fast q.prop ~symmetry:q.symmetry

(* The deadline-to-budget mapping: the time left until the request's
   deadline clamps the counter budget, so deadline expiry takes the
   counters' existing timeout path.  [None] = already expired. *)
let clamp_budget ~deadline budget =
  match deadline with
  | None -> Some budget
  | Some d ->
      let remaining = d -. Obs.monotonic_s () in
      if remaining <= 0.0 then None else Some (Float.min budget remaining)

let expired = (Protocol.Timeout, "deadline expired before execution started")

let timed_out budget =
  (Protocol.Timeout, Printf.sprintf "count timed out (budget %.3gs)" budget)

let run_count t ~deadline (q : Protocol.query) =
  match clamp_budget ~deadline q.budget with
  | None -> Error expired
  | Some budget -> (
      let scope = resolve_scope q in
      let analyzer = Props.analyzer ~scope in
      match
        Mcml_alloy.Analyzer.count ~negate:q.negate ~symmetry:q.symmetry ~budget
          ?cache:t.cache ~backend:q.backend analyzer ~pred:q.prop.Props.pred
      with
      | Some o ->
          Ok
            (Json.Obj
               [
                 ("prop", Json.Str q.prop.Props.name);
                 ("scope", Json.Int scope);
                 ("symmetry", Json.Bool q.symmetry);
                 ("negate", Json.Bool q.negate);
                 ("backend", Json.Str (Counter.name q.backend));
                 ("count", Json.Str (Bignat.to_string o.Counter.count));
                 ("exact", Json.Bool o.Counter.exact);
                 ("time_s", Json.Float o.Counter.time);
               ])
      | None -> Error (timed_out budget))

(* The dataset of the accmc and diffmc requests with its scope,
   generated within the budget the deadline leaves, and the budget left
   for the counts that follow, so generation and counting together stay
   within the deadline. *)
let dataset ~deadline (q : Protocol.query) =
  match clamp_budget ~deadline q.budget with
  | None -> Error expired
  | Some budget -> (
      let scope = resolve_scope q in
      match
        Mcml.Pipeline.generate ~budget q.prop
          { Mcml.Pipeline.scope; symmetry = q.symmetry; max_positives = 3000; seed = q.seed }
      with
      | exception Mcml.Pipeline.Timeout ->
          Error
            ( Protocol.Timeout,
              Printf.sprintf "dataset generation timed out (budget %.3gs)" budget )
      | data -> (
          match clamp_budget ~deadline q.budget with
          | None -> Error (Protocol.Timeout, "deadline expired after dataset generation")
          | Some budget -> Ok (scope, data, budget)))

(* The accmc request replicates [mcml train-eval]'s phi section: same
   dataset generation, same split and trainer seeds, so a served answer
   equals the direct CLI answer for the same parameters. *)
let run_accmc t ~deadline (q : Protocol.query) =
  match dataset ~deadline q with
  | Error _ as e -> e
  | Ok (scope, data, budget) -> (
      let m, _, test = Mcml.Pipeline.train_eval ~seed:q.seed data.Mcml.Pipeline.dataset in
      let test_conf = Mcml_ml.Model.evaluate m test in
      match m.Mcml_ml.Model.tree with
      | None -> Error (Protocol.Internal, "DT training produced no tree")
      | Some tree -> (
          match
            Mcml.Pipeline.accmc ~budget ~pool:t.pool ?cache:t.cache
              ~backend:q.backend ~prop:q.prop ~scope ~eval_symmetry:q.symmetry
              tree
          with
          | None -> Error (timed_out budget)
          | Some counts ->
              let phi = Mcml.Accmc.confusion counts in
              Ok
                (Json.Obj
                   [
                     ("prop", Json.Str q.prop.Props.name);
                     ("scope", Json.Int scope);
                     ("symmetry", Json.Bool q.symmetry);
                     ("tp", Json.Str (Bignat.to_string counts.Mcml.Accmc.tp));
                     ("fp", Json.Str (Bignat.to_string counts.Mcml.Accmc.fp));
                     ("tn", Json.Str (Bignat.to_string counts.Mcml.Accmc.tn));
                     ("fn", Json.Str (Bignat.to_string counts.Mcml.Accmc.fn));
                     ("acc", Json.Float (Mcml_ml.Metrics.accuracy phi));
                     ("precision", Json.Float (Mcml_ml.Metrics.precision phi));
                     ("recall", Json.Float (Mcml_ml.Metrics.recall phi));
                     ("f1", Json.Float (Mcml_ml.Metrics.f1 phi));
                     ("test_acc", Json.Float (Mcml_ml.Metrics.accuracy test_conf));
                     ("test_f1", Json.Float (Mcml_ml.Metrics.f1 test_conf));
                     ("time_s", Json.Float counts.Mcml.Accmc.time);
                   ])))

(* Mirrors [mcml diff]: two trees from the same data under different
   hyperparameters, then DiffMC between them. *)
let run_diffmc t ~deadline (q : Protocol.query) =
  match dataset ~deadline q with
  | Error _ as e -> e
  | Ok (scope, data, budget) -> (
      let t1, t2 = Mcml.Pipeline.diff_trees ~seed:q.seed data.Mcml.Pipeline.dataset in
      let nprimary = scope * scope in
      match
        Mcml.Diffmc.counts ~budget ~pool:t.pool ?cache:t.cache ~backend:q.backend
          ~nprimary t1 t2
      with
      | None -> Error (timed_out budget)
      | Some c ->
          Ok
            (Json.Obj
               [
                 ("prop", Json.Str q.prop.Props.name);
                 ("scope", Json.Int scope);
                 ("tt", Json.Str (Bignat.to_string c.Mcml.Diffmc.tt));
                 ("tf", Json.Str (Bignat.to_string c.Mcml.Diffmc.tf));
                 ("ft", Json.Str (Bignat.to_string c.Mcml.Diffmc.ft));
                 ("ff", Json.Str (Bignat.to_string c.Mcml.Diffmc.ff));
                 ("diff_pct", Json.Float (100.0 *. Mcml.Diffmc.diff c ~nprimary));
                 ("sim_pct", Json.Float (100.0 *. Mcml.Diffmc.sim c ~nprimary));
                 ("time_s", Json.Float c.Mcml.Diffmc.time);
               ]))

let cache_stats_json t =
  match t.cache with
  | None -> Json.Null
  | Some c ->
      let s = Counter.cache_stats c in
      Json.Obj
        [
          ("hits", Json.Int s.Mcml_exec.Memo.hits);
          ("misses", Json.Int s.Mcml_exec.Memo.misses);
          ("evictions", Json.Int s.Mcml_exec.Memo.evictions);
          ("size", Json.Int s.Mcml_exec.Memo.size);
          ("disk_hits", Json.Int s.Mcml_exec.Memo.backing_hits);
        ]

(* The optional shard stamp on health/stats payloads: lets the fleet
   router's fan-out merge stay attributable.  Absent (not null) when
   the server is not a shard, so pre-fleet clients see byte-identical
   responses. *)
let shard_field t =
  match t.cfg.shard_id with
  | None -> []
  | Some id -> [ ("shard", Json.Int id) ]

let health_json t =
  Json.Obj
    (shard_field t
    @ [
        ("status", Json.Str (if draining t then "draining" else "ok"));
        ("jobs", Json.Int (jobs t));
        ("inflight", Json.Int (Atomic.get t.inflight));
        ("queue_depth", Json.Int (Pool.queue_depth t.pool));
        ("uptime_s", Json.Float (Obs.monotonic_s () -. t.started));
      ])

let stats_json t =
  let g c = Json.Int (Atomic.get c) in
  Json.Obj
    (shard_field t
    @ [
      ( "requests",
        Json.Obj
          [
            ("total", g t.totals.total);
            ("ok", g t.totals.ok);
            ("bad_request", g t.totals.bad_request);
            ("overloaded", g t.totals.overloaded);
            ("timeout", g t.totals.timeout);
            ("draining", g t.totals.drained);
            ("internal", g t.totals.internal);
          ] );
      ("inflight", Json.Int (Atomic.get t.inflight));
      ("jobs", Json.Int (jobs t));
      ("cache", cache_stats_json t);
    ])

(* A [metrics] scrape: sample the probes first so the GC/rusage and
   dynamic gauges in the snapshot are current, not last-tick stale. *)
let metrics_json fmt =
  Probe.sample ();
  let snap = Metrics.snapshot () in
  match fmt with
  | `Json -> Ok (Metrics.to_json snap)
  | `Snapshot -> Ok (Metrics.snapshot_to_wire snap)
  | `Text ->
      Ok
        (Json.Obj
           [
             ("format", Json.Str "openmetrics");
             ("exposition", Json.Str (Metrics.to_openmetrics snap));
           ])

(* Execute one request under a [serve.request] span; [ctx] (when given)
   pins the span's parent explicitly — the connection span — so request
   spans parent correctly however systhreads interleave on one domain.
   A request carrying wire trace context overrides either: the caller's
   in-flight span (a fleet router) is the real parent, so the request
   span is adopted into that trace and the merged forest shows the
   cross-process edge instead of a local conn-span one. *)
let execute_in t ?ctx ~deadline (req : Protocol.request) =
  let ctx =
    match req.Protocol.trace with
    | Some w when Obs.enabled () ->
        Some
          (Obs.remote_context ~trace_id:w.Protocol.trace_id
             ~pid:w.Protocol.parent_pid ~span:w.Protocol.parent_span)
    | _ -> ctx
  in
  let body = ref (Error (Protocol.Internal, "unreached")) in
  let run () =
    Obs.with_span "serve.request"
      ~attrs:(fun () ->
        [
          ("kind", Obs.Str (Protocol.kind_name req.Protocol.kind));
          ( "outcome",
            Obs.Str
              (match !body with
              | Ok _ -> "ok"
              | Error (code, _) -> Protocol.code_name code) );
        ])
      (fun () ->
        body :=
          (try
             match req.Protocol.kind with
             | Protocol.Health -> Ok (health_json t)
             | Protocol.Stats -> Ok (stats_json t)
             | Protocol.Metrics fmt -> metrics_json fmt
             | Protocol.Count q -> run_count t ~deadline q
             | Protocol.Accmc q -> run_accmc t ~deadline q
             | Protocol.Diffmc q -> run_diffmc t ~deadline q
           with e -> Error (Protocol.Internal, Printexc.to_string e)))
  in
  (match ctx with None -> run () | Some ctx -> Obs.with_context ctx run);
  (* SLO accounting: a deadlined request that came back [Ok] met its
     deadline; one that timed out (expired before start or exhausted
     the clamped budget) missed it.  Other errors say nothing about
     the deadline and count as neither. *)
  (match req.Protocol.deadline_ms with
  | None -> ()
  | Some ms ->
      Obs.add "serve.slo.deadline_requests" 1;
      Obs.observe "serve.deadline_ms" ms;
      (match !body with
      | Ok _ -> Obs.add "serve.slo.deadline_hit" 1
      | Error (Protocol.Timeout, _) -> Obs.add "serve.slo.deadline_miss" 1
      | Error _ -> ()));
  record t { Protocol.rid = req.Protocol.id; body = !body }

let execute t (req : Protocol.request) =
  let deadline =
    Option.map
      (fun ms -> Obs.monotonic_s () +. (ms /. 1000.0))
      req.Protocol.deadline_ms
  in
  execute_in t ~deadline req

(* --- connection handling ------------------------------------------------ *)

(* A response slot in connection order: either already computed (admin
   kinds, rejections) or still running on the pool. *)
type entry = Now of Protocol.response | Later of Json.t * Protocol.response Pool.future

let handle_connection t ~input ~output =
  (* connection span: forced to be a root via the server's no-span
     context, current for the whole connection so request spans (and
     pool tasks submitted from here) parent under it *)
  let conn, conn_ctx =
    Obs.with_context t.root_ctx (fun () ->
        let sp = Obs.start "serve.conn" in
        (sp, Obs.current_context ()))
  in
  let served = ref 0 in
  let q : entry Queue.t = Queue.create () in
  let qm = Mutex.create () in
  let q_not_empty = Condition.create () in
  let q_not_full = Condition.create () in
  let reading_done = ref false in
  let write_failed = ref false in
  let responder () =
    let rec loop () =
      Mutex.lock qm;
      while Queue.is_empty q && not !reading_done do
        Condition.wait q_not_empty qm
      done;
      if Queue.is_empty q then Mutex.unlock qm (* reading done, all written *)
      else begin
        let e = Queue.pop q in
        Condition.signal q_not_full;
        Mutex.unlock qm;
        let resp =
          match e with
          | Now r -> r
          | Later (id, fut) -> (
              try Pool.await fut
              with exn ->
                record t (Protocol.err ~id Protocol.Internal (Printexc.to_string exn)))
        in
        if not !write_failed then
          (try
             output_string output (Protocol.response_to_string resp);
             output_char output '\n';
             flush output
           with Sys_error _ -> write_failed := true);
        incr served;
        loop ()
      end
    in
    loop ()
  in
  let responder_thread = Thread.create responder () in
  let enqueue e =
    Mutex.lock qm;
    while Queue.length q >= t.cfg.queue_cap && not (Atomic.get t.drain_flag) do
      Condition.wait q_not_full qm
    done;
    Queue.push e q;
    Condition.signal q_not_empty;
    Mutex.unlock qm
  in
  let reader = Line_reader.create input in
  let rec read_loop () =
    match Line_reader.next reader ~stop:(fun () -> Atomic.get t.drain_flag) with
    | None -> ()
    | Some line when String.trim line = "" -> read_loop ()
    | Some line ->
        let e =
          match Protocol.request_of_string line with
          | Error (id, msg) ->
              Now (record t (Protocol.err ~id Protocol.Bad_request msg))
          | Ok req ->
              if Atomic.get t.drain_flag then
                Now
                  (record t
                     (Protocol.err ~id:req.Protocol.id Protocol.Draining
                        "server is draining"))
              else (
                match req.Protocol.kind with
                | Protocol.Health | Protocol.Stats | Protocol.Metrics _ ->
                    Now (execute_in t ~ctx:conn_ctx ~deadline:None req)
                | Protocol.Count _ | Protocol.Accmc _ | Protocol.Diffmc _ ->
                    (* fetch-and-add keeps the admission check exact
                       when several connection readers race *)
                    if Atomic.fetch_and_add t.inflight 1 >= t.cfg.admission then begin
                      Atomic.decr t.inflight;
                      Now
                        (record t
                           (Protocol.err ~id:req.Protocol.id Protocol.Overloaded
                              (Printf.sprintf
                                 "admission limit reached (%d requests in flight)"
                                 t.cfg.admission)))
                    end
                    else begin
                      (* the deadline clock starts at admission *)
                      let deadline =
                        Option.map
                          (fun ms -> Obs.monotonic_s () +. (ms /. 1000.0))
                          req.Protocol.deadline_ms
                      in
                      let fut =
                        Pool.submit t.pool (fun () ->
                            Fun.protect
                              ~finally:(fun () -> Atomic.decr t.inflight)
                              (fun () ->
                                execute_in t ~ctx:conn_ctx ~deadline req))
                      in
                      Later (req.Protocol.id, fut)
                    end)
        in
        enqueue e;
        read_loop ()
  in
  read_loop ();
  Mutex.lock qm;
  reading_done := true;
  Condition.broadcast q_not_empty;
  Mutex.unlock qm;
  Thread.join responder_thread;
  (try flush output with Sys_error _ -> ());
  Obs.with_context conn_ctx (fun () ->
      Obs.finish ~attrs:[ ("responses", Obs.Int !served) ] conn)

let serve_stdio t = handle_connection t ~input:Unix.stdin ~output:stdout

(* Accept loop: poll the listening socket so the drain flag is noticed
   within 50ms even when no client ever connects. *)
let serve_unix t ~path =
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 64;
  let conns = ref [] in
  let cm = Mutex.create () in
  (* the accept loop doubles as the probe ticker: it already wakes
     every 50ms to poll the drain flag, so GC/rusage/pool gauges stay
     at most [probe_interval_s] stale even while no client scrapes *)
  let last_probe = ref neg_infinity in
  let rec accept_loop () =
    if not (Atomic.get t.drain_flag) then begin
      (if t.cfg.probe_interval_s > 0.0 then
         let now = Obs.monotonic_s () in
         if now -. !last_probe >= t.cfg.probe_interval_s then begin
           last_probe := now;
           Probe.sample ()
         end);
      (match Unix.select [ lfd ] [] [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept lfd with
          | exception Unix.Unix_error (_, _, _) -> ()
          | cfd, _ ->
              let th =
                Thread.create
                  (fun () ->
                    let oc = Unix.out_channel_of_descr cfd in
                    (try handle_connection t ~input:cfd ~output:oc
                     with _ -> ());
                    (* closes [cfd] too *)
                    try close_out oc with Sys_error _ -> ())
                  ()
              in
              Mutex.lock cm;
              conns := th :: !conns;
              Mutex.unlock cm));
      accept_loop ()
    end
  in
  accept_loop ();
  Unix.close lfd;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let live =
    Mutex.lock cm;
    let l = !conns in
    Mutex.unlock cm;
    l
  in
  List.iter Thread.join live
