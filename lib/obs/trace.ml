type span = {
  pid : int;
  id : int;
  parent : int option;
  remote_parent : (int * int) option;
  trace : int option;
  domain : int;
  name : string;
  dur_ms : float;
  attrs : (string * Obs.attr) list;
  children : span list;
}

type t = {
  roots : span list;
  num_spans : int;
  counters : (string * float) list;
  histograms : (string * Obs.hist_stats) list;
  domains : (int * int * float) list;
  pids : (int * int * float) list;
  remote_edges : int;
  cross_pid_edges : int;
}

(* Mutable shadow of [span] used during reconstruction; frozen into
   the immutable tree once every stream is fully validated. *)
type open_span = {
  o_pid : int;
  o_id : int;
  o_parent : int option;
  o_remote : (int * int) option;
  o_trace : int option;
  o_domain : int;
  o_name : string;
  mutable o_dur_ms : float;
  mutable o_attrs : (string * Obs.attr) list;
  mutable o_children : open_span list; (* reverse start order *)
  mutable o_closed : bool;
}

(* Merge any number of event streams (one per process) into a single
   forest.  Spans are keyed by (pid, id) — span-id counters are
   per-process, so the pid is what makes the key global.  Local parent
   references obey the single-stream discipline (started earlier in the
   same serialized stream); remote parent references are collected in
   pass 1 and resolved across {e all} streams in pass 2, where a
   reference that no stream satisfies is fatal — exactly the v2
   dangling-parent rule lifted to the fleet.  A final reachability walk
   rejects remote-edge cycles, which pass 2's local checks cannot see. *)
let merge_streams streams =
  let errors = ref [] in
  let by_key : (int * int, open_span) Hashtbl.t = Hashtbl.create 256 in
  let roots = ref [] in
  let pending_remote = ref [] in (* (open_span, label, index) reverse order *)
  let counters : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let hists = ref [] in
  let event_pids : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (label, events) ->
      let at i =
        match label with
        | None -> Printf.sprintf "event %d" i
        | Some l -> Printf.sprintf "%s: event %d" l i
      in
      let err i fmt =
        Printf.ksprintf
          (fun m -> errors := Printf.sprintf "%s: %s" (at i) m :: !errors)
          fmt
      in
      (* counters are last-value-wins within a stream, summed across
         streams: each process reports its own final total *)
      let local_counters : (string, float) Hashtbl.t = Hashtbl.create 16 in
      List.iteri
        (fun i ev ->
          match ev with
          | Obs.Span_start { name; id; parent; domain; pid; trace; remote; _ }
            ->
              Hashtbl.replace event_pids pid ();
              if Hashtbl.mem by_key (pid, id) then
                err i "duplicate span id %d (pid %d)" id pid
              else begin
                (* the sink serializes writes, so a resolvable local
                   parent has always been started by an earlier line of
                   the same stream — a forward or unknown reference is
                   corruption, and it also makes local parent cycles
                   impossible in an accepted trace *)
                (match parent with
                | Some p when not (Hashtbl.mem by_key (pid, p)) ->
                    err i "span %d (%s): dangling parent id %d" id name p
                | Some p when p = id ->
                    err i "span %d (%s): parent cycle" id name
                | _ -> ());
                if parent <> None && remote <> None then
                  err i "span %d (%s): both local and remote parent" id name;
                let sp =
                  {
                    o_pid = pid;
                    o_id = id;
                    o_parent = parent;
                    o_remote = remote;
                    o_trace = trace;
                    o_domain = domain;
                    o_name = name;
                    o_dur_ms = 0.0;
                    o_attrs = [];
                    o_children = [];
                    o_closed = false;
                  }
                in
                (match parent with
                | Some p when Hashtbl.mem by_key (pid, p) ->
                    let pn = Hashtbl.find by_key (pid, p) in
                    pn.o_children <- sp :: pn.o_children
                | Some _ -> () (* dangling: already an error *)
                | None -> (
                    match remote with
                    | Some _ -> pending_remote := (sp, label, i) :: !pending_remote
                    | None -> roots := sp :: !roots));
                Hashtbl.add by_key (pid, id) sp
              end
          | Obs.Span_end { name; id; pid; dur_ms; attrs; _ } -> (
              Hashtbl.replace event_pids pid ();
              match Hashtbl.find_opt by_key (pid, id) with
              | None -> err i "span_end for unknown span id %d (%s)" id name
              | Some sp when sp.o_closed ->
                  err i "span id %d (%s) ended twice" id name
              | Some sp when sp.o_name <> name ->
                  err i "span id %d ended as %S but started as %S" id name
                    sp.o_name
              | Some sp ->
                  sp.o_closed <- true;
                  sp.o_dur_ms <- dur_ms;
                  sp.o_attrs <- attrs)
          | Obs.Counter { name; value; pid; _ } ->
              Hashtbl.replace event_pids pid ();
              Hashtbl.replace local_counters name value
          | Obs.Histogram { name; stats; pid; _ } ->
              Hashtbl.replace event_pids pid ();
              hists := (pid, name, stats) :: !hists)
        events;
      Hashtbl.iter
        (fun name value ->
          let prev = Option.value (Hashtbl.find_opt counters name) ~default:0.0 in
          Hashtbl.replace counters name (prev +. value))
        local_counters)
    streams;
  Hashtbl.iter
    (fun (pid, id) sp ->
      if not sp.o_closed then
        errors :=
          Printf.sprintf "span id %d (%s, pid %d) has no span_end" id sp.o_name
            pid
          :: !errors)
    by_key;
  (* pass 2: resolve remote parent references across all streams *)
  let remote_edges = ref 0 in
  let cross_pid_edges = ref 0 in
  List.iter
    (fun (sp, label, i) ->
      let rpid, rid = Option.get sp.o_remote in
      let where =
        match label with
        | None -> Printf.sprintf "event %d" i
        | Some l -> Printf.sprintf "%s: event %d" l i
      in
      match Hashtbl.find_opt by_key (rpid, rid) with
      | None ->
          errors :=
            Printf.sprintf
              "%s: span %d (%s, pid %d): dangling remote parent (pid %d, span %d)"
              where sp.o_id sp.o_name sp.o_pid rpid rid
            :: !errors
      | Some pn when pn == sp ->
          errors :=
            Printf.sprintf "%s: span %d (%s): remote parent cycle" where sp.o_id
              sp.o_name
            :: !errors
      | Some pn ->
          pn.o_children <- sp :: pn.o_children;
          incr remote_edges;
          if rpid <> sp.o_pid then incr cross_pid_edges)
    (List.rev !pending_remote);
  (* remote edges can close a cycle that no local check sees (A remote
     under B, B remote under A): every member of such a ring has a
     parent, so none is a root and the walk from the roots misses all
     of them — count reachable spans and compare *)
  if !errors = [] then begin
    let rec reach sp =
      List.fold_left (fun acc c -> acc + reach c) 1 sp.o_children
    in
    let reachable = List.fold_left (fun acc sp -> acc + reach sp) 0 !roots in
    let total = Hashtbl.length by_key in
    if reachable <> total then
      errors :=
        [
          Printf.sprintf
            "%d span(s) unreachable from any root (remote parent cycle)"
            (total - reachable);
        ]
  end;
  match List.rev !errors with
  | _ :: _ as errs -> Error errs
  | [] ->
      let rec freeze sp =
        {
          pid = sp.o_pid;
          id = sp.o_id;
          parent = sp.o_parent;
          remote_parent = sp.o_remote;
          trace = sp.o_trace;
          domain = sp.o_domain;
          name = sp.o_name;
          dur_ms = sp.o_dur_ms;
          attrs = sp.o_attrs;
          (* o_children is in reverse start order; rev_map restores it
             (remote children were appended in pass 2 and so sort
             before their local siblings — ordering among children is
             cosmetic, [shape] sorts by name anyway) *)
          children = List.rev_map freeze sp.o_children;
        }
      in
      let roots = List.rev_map freeze !roots in
      let num_spans = Hashtbl.length by_key in
      let breakdown key_of =
        let tbl : (int, int ref * float ref) Hashtbl.t = Hashtbl.create 8 in
        Hashtbl.iter
          (fun _ sp ->
            let n, d =
              match Hashtbl.find_opt tbl (key_of sp) with
              | Some cell -> cell
              | None ->
                  let cell = (ref 0, ref 0.0) in
                  Hashtbl.add tbl (key_of sp) cell;
                  cell
            in
            incr n;
            d := !d +. sp.o_dur_ms)
          by_key;
        Hashtbl.fold (fun k (n, d) acc -> (k, !n, !d) :: acc) tbl []
        |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
      in
      let multi_pid = Hashtbl.length event_pids > 1 in
      Ok
        {
          roots;
          num_spans;
          counters =
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []
            |> List.sort (fun (a, _) (b, _) -> String.compare a b);
          histograms =
            List.rev !hists
            |> List.map (fun (pid, name, stats) ->
                   ( (if multi_pid then Printf.sprintf "pid%d/%s" pid name
                      else name),
                     stats ))
            |> List.sort (fun (a, _) (b, _) -> String.compare a b);
          domains = breakdown (fun sp -> sp.o_domain);
          pids = breakdown (fun sp -> sp.o_pid);
          remote_edges = !remote_edges;
          cross_pid_edges = !cross_pid_edges;
        }

let of_events events = merge_streams [ (None, events) ]
let merge streams = merge_streams (List.map (fun (l, e) -> (Some l, e)) streams)

let events_of_file path =
  let ic = open_in path in
  let events = ref [] in
  let errors = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then
         match Json.of_string line with
         | Error msg ->
             errors := Printf.sprintf "line %d: malformed JSON: %s" !lineno msg :: !errors
         | Ok j -> (
             match Obs.event_of_json j with
             | Error msg -> errors := Printf.sprintf "line %d: %s" !lineno msg :: !errors
             | Ok ev -> events := ev :: !events)
     done
   with End_of_file -> close_in ic);
  (List.rev !events, List.rev !errors)

let load path =
  match events_of_file path with
  | _, (_ :: _ as errs) -> Error errs
  | events, [] -> of_events events

let load_dir dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
    |> List.sort String.compare
  in
  if files = [] then Error [ Printf.sprintf "no *.jsonl trace files in %s" dir ]
  else begin
    let errors = ref [] in
    let streams =
      List.map
        (fun f ->
          let events, errs = events_of_file (Filename.concat dir f) in
          List.iter (fun e -> errors := (f ^ ": " ^ e) :: !errors) errs;
          (f, events))
        files
    in
    match List.rev !errors with
    | _ :: _ as errs -> Error errs
    | [] -> merge streams
  end

(* --- aggregation ------------------------------------------------------- *)

(* Collapse same-name siblings: the "shape" of a forest is the tree of
   (name, call count) nodes, children ordered by name. *)
type agg = {
  a_name : string;
  mutable a_calls : int;
  mutable a_total_ms : float;
  mutable a_children : agg list; (* reverse first-seen order *)
}

let agg_child_of parent name =
  match List.find_opt (fun n -> n.a_name = name) parent.a_children with
  | Some n -> n
  | None ->
      let n = { a_name = name; a_calls = 0; a_total_ms = 0.0; a_children = [] } in
      parent.a_children <- n :: parent.a_children;
      n

let aggregate t =
  let root = { a_name = "<root>"; a_calls = 0; a_total_ms = 0.0; a_children = [] } in
  let rec go parent sp =
    let node = agg_child_of parent sp.name in
    node.a_calls <- node.a_calls + 1;
    node.a_total_ms <- node.a_total_ms +. sp.dur_ms;
    List.iter (go node) sp.children
  in
  List.iter (go root) t.roots;
  root

let shape t =
  let buf = Buffer.create 256 in
  let by_name l =
    List.sort (fun a b -> String.compare a.a_name b.a_name) (List.rev l)
  in
  let rec go indent n =
    Buffer.add_string buf
      (Printf.sprintf "%s%s x%d\n" indent n.a_name n.a_calls);
    List.iter (go (indent ^ "  ")) (by_name n.a_children)
  in
  List.iter (go "") (by_name (aggregate t).a_children);
  Buffer.contents buf

(* --- profiling --------------------------------------------------------- *)

(* Self time: a span's duration minus the time accounted to its
   children.  Children that overlap their parent's end (cross-domain
   futures awaited later) could push the sum past the parent; clamp at
   zero so totals never go negative. *)
let span_self_ms sp =
  let children_ms =
    List.fold_left (fun acc c -> acc +. c.dur_ms) 0.0 sp.children
  in
  Float.max 0.0 (sp.dur_ms -. children_ms)

(* In a merged multi-process forest the pid is folded into the span
   name (self-time rows) and the stack root (folded stacks): router and
   shard frames with the same name must not collide, and every stack
   begins at some process's root, so qualifying roots qualifies every
   path.  Single-process traces render exactly as before. *)
let multi_pid t = List.length t.pids > 1

let self_times t =
  let multi = multi_pid t in
  let tbl : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 64 in
  let rec go sp =
    let name =
      if multi then Printf.sprintf "pid%d/%s" sp.pid sp.name else sp.name
    in
    let calls, self =
      match Hashtbl.find_opt tbl name with
      | Some cell -> cell
      | None ->
          let cell = (ref 0, ref 0.0) in
          Hashtbl.add tbl name cell;
          cell
    in
    incr calls;
    self := !self +. span_self_ms sp;
    List.iter go sp.children
  in
  List.iter go t.roots;
  Hashtbl.fold (fun name (calls, self) acc -> (name, !calls, !self) :: acc) tbl []
  |> List.sort (fun (na, _, sa) (nb, _, sb) ->
         match Float.compare sb sa with 0 -> String.compare na nb | c -> c)

let folded t =
  let multi = multi_pid t in
  let tbl : (string, float ref) Hashtbl.t = Hashtbl.create 64 in
  let rec go prefix sp =
    let path =
      if prefix = "" then
        if multi then Printf.sprintf "pid%d/%s" sp.pid sp.name else sp.name
      else prefix ^ ";" ^ sp.name
    in
    let cell =
      match Hashtbl.find_opt tbl path with
      | Some r -> r
      | None ->
          let r = ref 0.0 in
          Hashtbl.add tbl path r;
          r
    in
    cell := !cell +. span_self_ms sp;
    List.iter (go path) sp.children
  in
  List.iter (go "") t.roots;
  Hashtbl.fold (fun path self acc -> (path, !self) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dur_str ms =
  if ms >= 1000.0 then Printf.sprintf "%.2fs" (ms /. 1000.0)
  else if ms >= 1.0 then Printf.sprintf "%.1fms" ms
  else Printf.sprintf "%.3fms" ms

let render ?(per_domain = true) oc t =
  Printf.fprintf oc "-- span forest (%d spans, %d domain%s) %s\n" t.num_spans
    (List.length t.domains)
    (if List.length t.domains = 1 then "" else "s")
    (String.make 30 '-');
  let rec print indent n =
    let calls = if n.a_calls > 1 then Printf.sprintf " x%d" n.a_calls else "" in
    Printf.fprintf oc "%s%s%s  %s\n" indent n.a_name calls (dur_str n.a_total_ms);
    List.iter (print (indent ^ "  ")) (List.rev n.a_children)
  in
  List.iter (print "") (List.rev (aggregate t).a_children);
  if per_domain && List.length t.domains > 1 then begin
    Printf.fprintf oc "-- per domain %s\n" (String.make 51 '-');
    List.iter
      (fun (dom, n, total) ->
        Printf.fprintf oc "domain %-3d %6d spans  %10s total\n" dom n (dur_str total))
      t.domains
  end;
  if List.length t.pids > 1 then begin
    Printf.fprintf oc "-- per process %s\n" (String.make 50 '-');
    List.iter
      (fun (pid, n, total) ->
        Printf.fprintf oc "pid %-7d %6d spans  %10s total\n" pid n
          (dur_str total))
      t.pids;
    Printf.fprintf oc "cross-process parent edges: %d\n" t.cross_pid_edges
  end;
  (match t.histograms with
  | [] -> ()
  | hs ->
      Printf.fprintf oc "-- latency %s\n" (String.make 54 '-');
      Printf.fprintf oc "%-32s %8s %9s %9s %9s %9s\n" "histogram" "count" "p50"
        "p90" "p99" "max";
      List.iter
        (fun (name, s) ->
          let v = if Obs.histogram_in_ms name then dur_str else Printf.sprintf "%.4g" in
          Printf.fprintf oc "%-32s %8d %9s %9s %9s %9s\n" name s.Obs.count (v s.Obs.p50)
            (v s.Obs.p90) (v s.Obs.p99) (v s.Obs.max))
        hs);
  match t.counters with
  | [] -> ()
  | cs ->
      Printf.fprintf oc "-- counters %s\n" (String.make 53 '-');
      List.iter
        (fun (name, v) ->
          let pretty =
            if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
            else Printf.sprintf "%.3f" v
          in
          Printf.fprintf oc "%-40s %14s\n" name pretty)
        cs
