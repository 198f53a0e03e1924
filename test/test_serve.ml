(* Serve layer: protocol round-trips, malformed-input rejection, request
   execution against direct counting, deadline expiry, bounded admission,
   and graceful drain under a real SIGTERM. *)

open Mcml_serve
module Json = Mcml_obs.Json

let check = Alcotest.check

(* ---------------------------------------------------------------------- *)
(* Protocol                                                                *)
(* ---------------------------------------------------------------------- *)

let mk_query ?scope ?(symmetry = false) ?(negate = false)
    ?(backend = Mcml_counting.Counter.Exact) ?(budget = 12.5) ?(seed = 42) name =
  {
    Protocol.prop = Mcml_props.Props.find_exn name;
    scope;
    symmetry;
    negate;
    backend;
    budget;
    seed;
  }

let roundtrip req =
  let line = Json.to_string (Protocol.request_to_json req) in
  match Protocol.request_of_string line with
  | Ok req' -> req'
  | Error (_, msg) -> Alcotest.failf "round-trip rejected %s: %s" line msg

let check_query (q : Protocol.query) (q' : Protocol.query) =
  check Alcotest.string "prop" q.Protocol.prop.Mcml_props.Props.name
    q'.Protocol.prop.Mcml_props.Props.name;
  check Alcotest.(option int) "scope" q.Protocol.scope q'.Protocol.scope;
  check Alcotest.bool "symmetry" q.Protocol.symmetry q'.Protocol.symmetry;
  check Alcotest.bool "negate" q.Protocol.negate q'.Protocol.negate;
  check Alcotest.bool "backend"
    (match q.Protocol.backend with Mcml_counting.Counter.Exact -> true | _ -> false)
    (match q'.Protocol.backend with Mcml_counting.Counter.Exact -> true | _ -> false);
  check (Alcotest.float 1e-9) "budget" q.Protocol.budget q'.Protocol.budget;
  check Alcotest.int "seed" q.Protocol.seed q'.Protocol.seed

let proto_roundtrip_all_kinds () =
  let q = mk_query ~scope:4 ~symmetry:true "PartialOrder" in
  List.iter
    (fun kind ->
      let req =
        { Protocol.id = Json.Int 7; trace = None; deadline_ms = Some 1500.0; kind }
      in
      let req' = roundtrip req in
      check Alcotest.string "kind"
        (Protocol.kind_name req.Protocol.kind)
        (Protocol.kind_name req'.Protocol.kind);
      check
        Alcotest.(option (float 1e-9))
        "deadline" req.Protocol.deadline_ms req'.Protocol.deadline_ms;
      check Alcotest.string "id" (Json.to_string req.Protocol.id)
        (Json.to_string req'.Protocol.id);
      match (req.Protocol.kind, req'.Protocol.kind) with
      | Protocol.Count a, Protocol.Count b
      | Protocol.Accmc a, Protocol.Accmc b
      | Protocol.Diffmc a, Protocol.Diffmc b ->
          check_query a b
      | Protocol.Health, Protocol.Health | Protocol.Stats, Protocol.Stats -> ()
      | Protocol.Metrics a, Protocol.Metrics b ->
          check Alcotest.bool "metrics format preserved" true (a = b)
      | _ -> Alcotest.fail "kind changed across the round-trip")
    [
      Protocol.Count q;
      Protocol.Accmc q;
      Protocol.Diffmc (mk_query ~backend:Mcml_counting.Counter.Brute "Reflexive");
      Protocol.Health;
      Protocol.Stats;
      Protocol.Metrics `Text;
      Protocol.Metrics `Json;
      Protocol.Metrics `Snapshot;
    ]

let proto_response_roundtrip () =
  let ok = Protocol.ok ~id:(Json.Str "a") (Json.Obj [ ("count", Json.Str "64") ]) in
  let er = Protocol.err ~id:(Json.Int 3) Protocol.Timeout "too slow" in
  List.iter
    (fun r ->
      match Protocol.response_of_string (Protocol.response_to_string r) with
      | Error msg -> Alcotest.failf "response round-trip failed: %s" msg
      | Ok r' ->
          check Alcotest.string "id" (Json.to_string r.Protocol.rid)
            (Json.to_string r'.Protocol.rid);
          check Alcotest.string "body"
            (Protocol.response_to_string r)
            (Protocol.response_to_string r'))
    [ ok; er ]

let expect_bad line =
  match Protocol.request_of_string line with
  | Ok _ -> Alcotest.failf "accepted malformed request: %s" line
  | Error (_, msg) ->
      check Alcotest.bool "error message non-empty" true (String.length msg > 0)

let proto_malformed () =
  expect_bad "{\"kind\":\"count\",\"prop\":\"Reflex";     (* truncated JSON *)
  expect_bad "{\"kind\":\"frobnicate\"}";                 (* unknown kind *)
  expect_bad "{\"kind\":\"count\",\"prop\":\"Reflexive\",\"deadline_ms\":-5}";
  expect_bad "{\"kind\":\"count\",\"prop\":\"NoSuchProp\"}";
  expect_bad "{\"kind\":\"count\",\"prop\":\"Reflexive\",\"backend\":\"cudd\"}";
  expect_bad "{\"kind\":\"count\"}";                      (* missing prop *)
  expect_bad "{\"kind\":\"count\",\"prop\":\"Reflexive\",\"scope\":0}";
  expect_bad "{\"kind\":\"count\",\"prop\":\"Reflexive\",\"budget_s\":0}";
  expect_bad "[1,2,3]";                                   (* not an object *)
  expect_bad "{\"kind\":\"metrics\",\"format\":\"xml\"}"; (* unknown format *)
  (* an absent format defaults to the text exposition *)
  (match Protocol.request_of_string "{\"kind\":\"metrics\"}" with
  | Ok { Protocol.kind = Protocol.Metrics `Text; _ } -> ()
  | Ok _ -> Alcotest.fail "bare metrics request did not default to text"
  | Error (_, msg) -> Alcotest.failf "bare metrics request rejected: %s" msg);
  (* the id still comes back on a rejected request when extractable *)
  match Protocol.request_of_string "{\"id\":9,\"kind\":\"frobnicate\"}" with
  | Error (Json.Int 9, _) -> ()
  | Error (other, _) ->
      Alcotest.failf "rejection lost the id: %s" (Json.to_string other)
  | Ok _ -> Alcotest.fail "accepted unknown kind"

let proto_trace_roundtrip () =
  let has_substr hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (* the wire trace context survives a round-trip... *)
  let req =
    {
      Protocol.id = Json.Int 1;
      trace =
        Some { Protocol.trace_id = 987654321; parent_pid = 41; parent_span = 7 };
      deadline_ms = None;
      kind = Protocol.Health;
    }
  in
  let line = Json.to_string (Protocol.request_to_json req) in
  (match Protocol.request_of_string line with
  | Ok { Protocol.trace = Some w; _ } ->
      check Alcotest.int "trace id" 987654321 w.Protocol.trace_id;
      check Alcotest.int "parent pid" 41 w.Protocol.parent_pid;
      check Alcotest.int "parent span" 7 w.Protocol.parent_span
  | Ok { Protocol.trace = None; _ } -> Alcotest.failf "trace dropped: %s" line
  | Error (_, msg) -> Alcotest.failf "round-trip rejected %s: %s" line msg);
  (* ...an absent or null trace stays absent (and off the wire)... *)
  (match Protocol.request_of_string "{\"kind\":\"health\",\"trace\":null}" with
  | Ok { Protocol.trace = None; _ } -> ()
  | Ok _ -> Alcotest.fail "null trace should parse as None"
  | Error (_, msg) -> Alcotest.failf "null trace rejected: %s" msg);
  (match
     Protocol.request_to_json { req with Protocol.trace = None } |> Json.to_string
   with
  | s when not (has_substr s "trace") -> ()
  | s -> Alcotest.failf "trace = None must not serialize: %s" s);
  (* ...and a malformed one is rejected, not ignored *)
  List.iter expect_bad
    [
      "{\"kind\":\"health\",\"trace\":7}";
      "{\"kind\":\"health\",\"trace\":{\"id\":1,\"pid\":2}}";
      "{\"kind\":\"health\",\"trace\":{\"id\":\"x\",\"pid\":2,\"span\":3}}";
    ]

(* ---------------------------------------------------------------------- *)
(* Execution                                                               *)
(* ---------------------------------------------------------------------- *)

let with_server ?(cfg = Server.default_config) f =
  let srv = Server.create cfg in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) (fun () -> f srv)

let result_member resp field =
  match resp.Protocol.body with
  | Error (code, msg) ->
      Alcotest.failf "expected ok response, got %s: %s" (Protocol.code_name code)
        msg
  | Ok payload -> (
      match Json.member field payload with
      | Some v -> v
      | None ->
          Alcotest.failf "result lacks %S: %s" field (Json.to_string payload))

let code_of resp =
  match resp.Protocol.body with
  | Ok _ -> "ok"
  | Error (code, _) -> Protocol.code_name code

let execute_count_matches_direct () =
  with_server (fun srv ->
      let prop = Mcml_props.Props.find_exn "Reflexive" in
      let req =
        {
          Protocol.id = Json.Int 1;
          trace = None;
          deadline_ms = None;
          kind = Protocol.Count (mk_query ~scope:3 ~budget:30.0 "Reflexive");
        }
      in
      let served = result_member (Server.execute srv req) "count" in
      let direct =
        match
          Mcml_alloy.Analyzer.count ~budget:30.0
            ~backend:Mcml_counting.Counter.Exact
            (Mcml_props.Props.analyzer ~scope:3)
            ~pred:prop.Mcml_props.Props.pred
        with
        | Some o -> Mcml_logic.Bignat.to_string o.Mcml_counting.Counter.count
        | None -> Alcotest.fail "direct count timed out"
      in
      check Alcotest.string "served count = direct count"
        (Json.to_string (Json.Str direct))
        (Json.to_string served))

let execute_health_stats () =
  with_server (fun srv ->
      let exec kind =
        Server.execute srv
          { Protocol.id = Json.Null; trace = None; deadline_ms = None; kind }
      in
      (match (exec Protocol.Health).Protocol.body with
      | Ok payload -> (
          match Json.member "status" payload with
          | Some (Json.Str "ok") -> ()
          | _ -> Alcotest.failf "health payload: %s" (Json.to_string payload))
      | Error (_, msg) -> Alcotest.failf "health failed: %s" msg);
      ignore (exec (Protocol.Count (mk_query ~scope:3 "Reflexive")));
      match (exec Protocol.Stats).Protocol.body with
      | Ok payload -> (
          match (Json.member "requests" payload, Json.member "cache" payload) with
          | Some (Json.Obj _), Some (Json.Obj _) -> ()
          | _ -> Alcotest.failf "stats payload: %s" (Json.to_string payload))
      | Error (_, msg) -> Alcotest.failf "stats failed: %s" msg)

(* a served accmc/diffmc answer equals the direct recipe: the CLI's
   dataset, [Pipeline.train_eval]/[Pipeline.diff_trees] and the counts *)
let execute_accmc_diffmc_match_direct () =
  let module Pipeline = Mcml.Pipeline in
  let backend = Mcml_counting.Counter.Exact and seed = 42 in
  let strings = List.map Mcml_logic.Bignat.to_string in
  with_server (fun srv ->
      List.iter
        (fun name ->
          let prop = Mcml_props.Props.find_exn name in
          let data =
            Pipeline.generate prop
              { Pipeline.scope = 3; symmetry = false; max_positives = 3000; seed }
          in
          let m, _, _ = Pipeline.train_eval ~seed data.Pipeline.dataset in
          let a =
            Option.get
              (Pipeline.accmc ~backend ~prop ~scope:3 ~eval_symmetry:false
                 (Option.get m.Mcml_ml.Model.tree))
          in
          let t1, t2 = Pipeline.diff_trees ~seed data.Pipeline.dataset in
          let d = Option.get (Mcml.Diffmc.counts ~backend ~nprimary:9 t1 t2) in
          let served kind fields =
            let q = mk_query ~scope:3 ~budget:30.0 ~seed name in
            let resp =
              Server.execute srv
                { Protocol.id = Json.Null; trace = None; deadline_ms = None; kind = kind q }
            in
            List.map
              (fun f ->
                match result_member resp f with
                | Json.Str v -> v
                | v -> Alcotest.failf "%s: %s is not a string" f (Json.to_string v))
              fields
          in
          check
            Alcotest.(list string)
            (name ^ ": served accmc = direct")
            (strings Mcml.Accmc.[ a.tp; a.fp; a.tn; a.fn ])
            (served (fun q -> Protocol.Accmc q) [ "tp"; "fp"; "tn"; "fn" ]);
          check
            Alcotest.(list string)
            (name ^ ": served diffmc = direct")
            (strings Mcml.Diffmc.[ d.tt; d.tf; d.ft; d.ff ])
            (served (fun q -> Protocol.Diffmc q) [ "tt"; "tf"; "ft"; "ff" ]))
        [ "Reflexive"; "PartialOrder" ])

(* accmc and diffmc enumerate the dataset's positives at the client's
   scope: Irreflexive at scope 6 has 2^30 of them, so both the request
   deadline and, without one, the request budget must bound generation. *)
let large_scope_generation_bounded () =
  with_server (fun srv ->
      List.iter
        (fun (what, deadline_ms, budget, kind) ->
          let q = mk_query ~scope:6 ~budget "Irreflexive" in
          let t0 = Unix.gettimeofday () in
          let resp =
            Server.execute srv
              { Protocol.id = Json.Null; trace = None; deadline_ms; kind = kind q }
          in
          check Alcotest.string (what ^ ": timeout response") "timeout" (code_of resp);
          check Alcotest.bool (what ^ ": ends soon after its bound") true
            (Unix.gettimeofday () -. t0 < 2.0))
        [
          ("accmc, 200 ms deadline", Some 200.0, 30.0, fun q -> Protocol.Accmc q);
          ("diffmc, 200 ms deadline", Some 200.0, 30.0, fun q -> Protocol.Diffmc q);
          ("accmc, 0.2 s budget", None, 0.2, fun q -> Protocol.Accmc q);
        ])

(* ---------------------------------------------------------------------- *)
(* Connections (socketpair end-to-end)                                     *)
(* ---------------------------------------------------------------------- *)

type conn = {
  cfd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  handler : Thread.t;
}

let connect srv =
  let sfd, cfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let handler =
    Thread.create
      (fun () ->
        let out = Unix.out_channel_of_descr sfd in
        Server.handle_connection srv ~input:sfd ~output:out;
        try close_out out with Sys_error _ -> ())
      ()
  in
  { cfd; ic = Unix.in_channel_of_descr cfd; oc = Unix.out_channel_of_descr cfd; handler }

let send conn line =
  output_string conn.oc line;
  output_char conn.oc '\n';
  flush conn.oc

let recv conn =
  match Protocol.response_of_string (input_line conn.ic) with
  | Ok r -> r
  | Error msg -> Alcotest.failf "bad response line: %s" msg

let finish conn =
  (try Unix.shutdown conn.cfd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  Thread.join conn.handler;
  close_in_noerr conn.ic

let connection_in_order () =
  with_server (fun srv ->
      let conn = connect srv in
      send conn "{\"id\":1,\"kind\":\"count\",\"prop\":\"Reflexive\",\"scope\":3}";
      send conn "{\"id\":2,\"kind\":\"health\"}";
      send conn "{\"id\":3,\"kind\":\"count\",\"prop\":\"NoSuchProp\"}";
      send conn "{\"id\":4,\"kind\":\"stats\"}";
      let r1 = recv conn and r2 = recv conn and r3 = recv conn and r4 = recv conn in
      finish conn;
      check Alcotest.(list string) "ids echoed in request order"
        [ "1"; "2"; "3"; "4" ]
        (List.map (fun r -> Json.to_string r.Protocol.rid) [ r1; r2; r3; r4 ]);
      check Alcotest.(list string) "outcomes"
        [ "ok"; "ok"; "bad_request"; "ok" ]
        (List.map code_of [ r1; r2; r3; r4 ]))

let deadline_expiry_keeps_connection () =
  with_server (fun srv ->
      let conn = connect srv in
      (* a deadline this short expires before the count starts *)
      send conn
        "{\"id\":1,\"kind\":\"count\",\"prop\":\"PartialOrder\",\"scope\":4,\"deadline_ms\":0.001}";
      let r1 = recv conn in
      check Alcotest.string "deadline expiry is a timeout response" "timeout"
        (code_of r1);
      (* ... and the connection is still alive and serving *)
      send conn "{\"id\":2,\"kind\":\"count\",\"prop\":\"Reflexive\",\"scope\":3}";
      let r2 = recv conn in
      finish conn;
      check Alcotest.string "next request on the same connection" "ok" (code_of r2))

let admission_zero_rejects () =
  with_server
    ~cfg:{ Server.default_config with Server.admission = 0 }
    (fun srv ->
      let conn = connect srv in
      send conn "{\"id\":1,\"kind\":\"count\",\"prop\":\"Reflexive\",\"scope\":3}";
      send conn "{\"id\":2,\"kind\":\"health\"}";
      let r1 = recv conn and r2 = recv conn in
      finish conn;
      check Alcotest.string "counting request rejected" "overloaded" (code_of r1);
      check Alcotest.string "admin kind still answered" "ok" (code_of r2))

(* ---------------------------------------------------------------------- *)
(* Live metrics and SLO accounting                                         *)
(* ---------------------------------------------------------------------- *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let metrics_request_scrapes_registry () =
  with_server (fun srv ->
      let conn = connect srv in
      (* prime the registry with one real request first *)
      send conn "{\"id\":1,\"kind\":\"count\",\"prop\":\"Reflexive\",\"scope\":3}";
      send conn "{\"id\":2,\"kind\":\"metrics\"}";
      send conn "{\"id\":3,\"kind\":\"metrics\",\"format\":\"json\"}";
      send conn "{\"id\":4,\"kind\":\"metrics\",\"format\":\"xml\"}";
      let r1 = recv conn and r2 = recv conn and r3 = recv conn and r4 = recv conn in
      finish conn;
      check Alcotest.string "count answered" "ok" (code_of r1);
      (* text format: a lint-clean exposition carrying the probe gauges
         and the server's dynamic sources, live — no flush happened *)
      (match (result_member r2 "format", result_member r2 "exposition") with
      | Json.Str "openmetrics", Json.Str text ->
          (match Mcml_obs.Metrics.lint text with
          | Ok () -> ()
          | Error e -> Alcotest.failf "served exposition fails lint: %s" e);
          List.iter
            (fun family ->
              check Alcotest.bool (Printf.sprintf "exposes %s" family) true
                (contains text family))
            [
              "mcml_gc_heap_words";
              "mcml_proc_max_rss_bytes";
              "mcml_exec_pool_queue_depth";
              "mcml_serve_inflight";
              "mcml_serve_slo_deadline_hit_ratio";
            ]
      | f, e ->
          Alcotest.failf "unexpected metrics payload: %s / %s" (Json.to_string f)
            (Json.to_string e));
      (* json format: the schema-tagged rendering *)
      (match result_member r3 "schema" with
      | Json.Str "mcml.metrics.v1" -> ()
      | other -> Alcotest.failf "metrics json schema: %s" (Json.to_string other));
      check Alcotest.string "unknown format rejected" "bad_request" (code_of r4))

let slo_counters_accumulate () =
  let module Obs = Mcml_obs.Obs in
  Obs.set_sink (Obs.stats_only ());
  Obs.reset_counters ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.null;
      Obs.reset_counters ())
  @@ fun () ->
  with_server (fun srv ->
      let count ?deadline_ms prop scope =
        Server.execute srv
          {
            Protocol.id = Json.Null;
            trace = None;
            deadline_ms;
            kind = Protocol.Count (mk_query ~scope ~budget:30.0 prop);
          }
      in
      (* no deadline: no SLO accounting at all *)
      check Alcotest.string "undeadlined ok" "ok" (code_of (count "Reflexive" 3));
      check (Alcotest.float 1e-9) "no deadline, no slo" 0.0
        (Obs.counter_value "serve.slo.deadline_requests");
      (* a generous deadline is met; one already expired at execution
         (clamped budget ~1µs, blown by the first deadline tick) misses *)
      check Alcotest.string "hit" "ok"
        (code_of (count ~deadline_ms:60000.0 "Reflexive" 3));
      check Alcotest.string "miss" "timeout"
        (code_of (count ~deadline_ms:0.001 "PartialOrder" 4));
      check (Alcotest.float 1e-9) "two deadlined requests" 2.0
        (Obs.counter_value "serve.slo.deadline_requests");
      check (Alcotest.float 1e-9) "one hit" 1.0
        (Obs.counter_value "serve.slo.deadline_hit");
      check (Alcotest.float 1e-9) "one miss" 1.0
        (Obs.counter_value "serve.slo.deadline_miss");
      (* the requested deadlines landed in the serve.deadline_ms histogram *)
      match Obs.histogram_stats "serve.deadline_ms" with
      | Some s -> check Alcotest.int "deadline histogram count" 2 s.Mcml_obs.Obs.count
      | None -> Alcotest.fail "serve.deadline_ms histogram missing")

(* A deadline clamps each request's budget to a fresh value, so the
   count cache must not key on the budget: repeated deadlined requests
   for one count are answered from the cache. *)
let deadlined_requests_hit_cache () =
  with_server (fun srv ->
      let conn = connect srv in
      let line id =
        Printf.sprintf
          "{\"id\":%d,\"kind\":\"count\",\"prop\":\"PreOrder\",\"scope\":4,\"deadline_ms\":60000}"
          id
      in
      let counts =
        List.map
          (fun id ->
            send conn (line id);
            Json.to_string (result_member (recv conn) "count"))
          [ 1; 2; 3; 4 ]
      in
      send conn "{\"id\":5,\"kind\":\"stats\"}";
      let cache = result_member (recv conn) "cache" in
      finish conn;
      check Alcotest.(list string) "one answer" [ "\"355\"" ] (List.sort_uniq compare counts);
      let field f = Json.to_string (Option.get (Json.member f cache)) in
      check Alcotest.(list string) "(hits, misses, size)" [ "3"; "1"; "1" ]
        [ field "hits"; field "misses"; field "size" ])

let overload_rejections_counted () =
  let module Obs = Mcml_obs.Obs in
  Obs.set_sink (Obs.stats_only ());
  Obs.reset_counters ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.null;
      Obs.reset_counters ())
  @@ fun () ->
  with_server
    ~cfg:{ Server.default_config with Server.admission = 0 }
    (fun srv ->
      let conn = connect srv in
      send conn "{\"id\":1,\"kind\":\"count\",\"prop\":\"Reflexive\",\"scope\":3}";
      let r1 = recv conn in
      finish conn;
      check Alcotest.string "rejected" "overloaded" (code_of r1);
      check (Alcotest.float 1e-9) "rejection counted against the SLO" 1.0
        (Obs.counter_value "serve.slo.overload_rejections"))

let drain_completes_in_flight () =
  with_server (fun srv ->
      (* a real SIGTERM, delivered to this process, must end the serve
         loop while the already-read request still gets its answer *)
      let previous =
        Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> Server.drain srv))
      in
      Fun.protect
        ~finally:(fun () -> Sys.set_signal Sys.sigterm previous)
        (fun () ->
          let conn = connect srv in
          send conn "{\"id\":1,\"kind\":\"count\",\"prop\":\"Reflexive\",\"scope\":3}";
          (* let the reader pick the request up before the drain lands *)
          Thread.delay 0.05;
          Unix.kill (Unix.getpid ()) Sys.sigterm;
          (* the handler must terminate on its own now — no EOF from us *)
          Thread.join conn.handler;
          check Alcotest.bool "server is draining" true (Server.draining srv);
          let r1 = recv conn in
          check Alcotest.string "in-flight request completed" "ok" (code_of r1);
          (match input_line conn.ic with
          | exception End_of_file -> ()
          | line -> Alcotest.failf "unexpected extra response: %s" line);
          close_in_noerr conn.ic))

let draining_rejects_new_requests () =
  with_server (fun srv ->
      let conn = connect srv in
      send conn "{\"id\":1,\"kind\":\"health\"}";
      ignore (recv conn);
      Server.drain srv;
      (* requests already buffered when the drain flag flips may race the
         reader; the contract is only that the loop ends and everything
         admitted is answered — so just check termination here *)
      finish conn;
      check Alcotest.bool "draining" true (Server.draining srv))

let () =
  Alcotest.run "mcml_serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip, all kinds" `Quick
            proto_roundtrip_all_kinds;
          Alcotest.test_case "response round-trip" `Quick proto_response_roundtrip;
          Alcotest.test_case "malformed requests rejected" `Quick proto_malformed;
          Alcotest.test_case "trace context round-trip" `Quick
            proto_trace_roundtrip;
        ] );
      ( "execute",
        [
          Alcotest.test_case "count matches direct Analyzer.count" `Quick
            execute_count_matches_direct;
          Alcotest.test_case "health and stats" `Quick execute_health_stats;
          Alcotest.test_case "accmc and diffmc match the direct recipe" `Quick
            execute_accmc_diffmc_match_direct;
          Alcotest.test_case "large-scope generation is bounded" `Quick
            large_scope_generation_bounded;
        ] );
      ( "connection",
        [
          Alcotest.test_case "responses in request order" `Quick connection_in_order;
          Alcotest.test_case "deadline expiry keeps the connection" `Quick
            deadline_expiry_keeps_connection;
          Alcotest.test_case "admission=0 sheds counting load" `Quick
            admission_zero_rejects;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "metrics request scrapes the registry" `Quick
            metrics_request_scrapes_registry;
          Alcotest.test_case "SLO counters" `Quick slo_counters_accumulate;
          Alcotest.test_case "deadlined requests hit the count cache" `Quick
            deadlined_requests_hit_cache;
          Alcotest.test_case "overload rejections counted" `Quick
            overload_rejections_counted;
        ] );
      ( "drain",
        [
          Alcotest.test_case "SIGTERM completes in-flight work" `Quick
            drain_completes_in_flight;
          Alcotest.test_case "drain ends the connection loop" `Quick
            draining_rejects_new_requests;
        ] );
    ]
