type snapshot = {
  taken_at : float;
  counters : (string * float) list;
  gauges : (string * float) list;
  histograms : (string * Obs.Histogram.t) list;
}

let snapshot () =
  {
    taken_at = Unix.gettimeofday ();
    counters = Obs.monotonic_counters ();
    gauges = Obs.gauges ();
    histograms =
      List.filter
        (fun (_, h) -> Obs.Histogram.count h > 0)
        (Obs.histogram_copies ());
  }

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

let metric_name name =
  let b = Bytes.of_string ("mcml_" ^ name) in
  Bytes.iteri
    (fun i c -> if not (is_name_char c) then Bytes.set b i '_')
    b;
  Bytes.to_string b

(* Render a float the way Prometheus clients do: integral values
   without a fractional part, everything else with enough digits to
   round-trip the interesting ones. *)
let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let add_sample buf name value =
  Buffer.add_string buf name;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (fmt_value value);
  Buffer.add_char buf '\n'

let add_type_line buf name kind =
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)

(* Histogram exposition body (after its TYPE line): cumulative buckets
   — one sample per occupied bucket plus the mandatory +Inf; empty
   buckets add nothing to a cumulative series, so skipping them loses
   no information — then _count and _sum. *)
let add_histogram_samples buf n h =
  let cum = ref 0 in
  for i = 0 to Obs.Histogram.bucket_count - 1 do
    let c = (Obs.Histogram.bucket_count_at h i : int) in
    if c > 0 then begin
      cum := !cum + c;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n
           (fmt_value (Obs.Histogram.bucket_upper i))
           !cum)
    end
  done;
  Buffer.add_string buf
    (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n (Obs.Histogram.count h));
  Buffer.add_string buf
    (Printf.sprintf "%s_count %d\n" n (Obs.Histogram.count h));
  add_sample buf (n ^ "_sum") (Obs.Histogram.sum h)

let to_openmetrics snap =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      let n = metric_name name in
      add_type_line buf n "counter";
      add_sample buf (n ^ "_total") v)
    snap.counters;
  List.iter
    (fun (name, v) ->
      let n = metric_name name in
      add_type_line buf n "gauge";
      add_sample buf n v)
    snap.gauges;
  List.iter
    (fun (name, h) ->
      let n = metric_name name in
      add_type_line buf n "histogram";
      add_histogram_samples buf n h)
    snap.histograms;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let to_json snap =
  let num_obj kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs) in
  let hist_obj (name, h) =
    let base =
      [
        ("count", Json.Int (Obs.Histogram.count h));
        ("sum", Json.Float (Obs.Histogram.sum h));
      ]
    in
    let stats =
      match Obs.Histogram.stats h with None -> [] | Some s -> Obs.stats_fields name s
    in
    (name, Json.Obj (base @ stats))
  in
  Json.Obj
    [
      ("schema", Json.Str "mcml.metrics.v1");
      ("ts", Json.Float snap.taken_at);
      ("counters", num_obj snap.counters);
      ("gauges", num_obj snap.gauges);
      ("histograms", Json.Obj (List.map hist_obj snap.histograms));
    ]

(* --- snapshot wire codec ----------------------------------------------- *)

(* Full-fidelity snapshot serialization for fleet metrics fan-out.
   [to_json] summarizes histograms down to percentiles, which cannot be
   merged; the wire form ships the occupied buckets themselves, so the
   router can rebuild each shard histogram ([Histogram.of_raw]) and
   merge bucket-wise. *)

let wire_schema = "mcml.metrics.snapshot.v1"

let snapshot_to_wire snap =
  let num_obj kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs) in
  let hist_obj (name, h) =
    let buckets = ref [] in
    for i = Obs.Histogram.bucket_count - 1 downto 0 do
      let c = Obs.Histogram.bucket_count_at h i in
      if c > 0 then
        buckets := Json.List [ Json.Int i; Json.Int c ] :: !buckets
    done;
    ( name,
      Json.Obj
        [
          ("count", Json.Int (Obs.Histogram.count h));
          ("sum", Json.Float (Obs.Histogram.sum h));
          ("max", Json.Float (Obs.Histogram.max_value h));
          ("buckets", Json.List !buckets);
        ] )
  in
  Json.Obj
    [
      ("schema", Json.Str wire_schema);
      ("ts", Json.Float snap.taken_at);
      ("counters", num_obj snap.counters);
      ("gauges", num_obj snap.gauges);
      ("histograms", Json.Obj (List.map hist_obj snap.histograms));
    ]

let snapshot_of_wire j =
  let ( let* ) = Result.bind in
  let* () =
    match Json.member "schema" j with
    | Some (Json.Str s) when s = wire_schema -> Ok ()
    | Some (Json.Str s) ->
        Error (Printf.sprintf "expected schema %S, got %S" wire_schema s)
    | _ -> Error "missing \"schema\""
  in
  let* taken_at =
    match Option.bind (Json.member "ts" j) Json.to_float_opt with
    | Some ts -> Ok ts
    | None -> Error "missing or non-numeric \"ts\""
  in
  let num_table field =
    match Json.member field j with
    | Some (Json.Obj kvs) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match Json.to_float_opt v with
            | Some f -> Ok ((k, f) :: acc)
            | None ->
                Error (Printf.sprintf "%s entry %S is not a number" field k))
          (Ok []) kvs
        |> Result.map List.rev
    | _ -> Error (Printf.sprintf "missing object %S" field)
  in
  let* counters = num_table "counters" in
  let* gauges = num_table "gauges" in
  let hist_of (name, hj) =
    let int_field f =
      match Json.member f hj with
      | Some (Json.Int i) -> Ok i
      | _ ->
          Error (Printf.sprintf "histogram %S: missing integer %S" name f)
    in
    let float_field f =
      match Option.bind (Json.member f hj) Json.to_float_opt with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "histogram %S: missing number %S" name f)
    in
    let* count = int_field "count" in
    let* sum = float_field "sum" in
    let* max = float_field "max" in
    let* buckets =
      match Json.member "buckets" hj with
      | Some (Json.List l) ->
          List.fold_left
            (fun acc b ->
              let* acc = acc in
              match b with
              | Json.List [ Json.Int i; Json.Int c ] -> Ok ((i, c) :: acc)
              | _ ->
                  Error
                    (Printf.sprintf "histogram %S: malformed bucket entry" name))
            (Ok []) l
          |> Result.map List.rev
      | _ -> Error (Printf.sprintf "histogram %S: missing \"buckets\"" name)
    in
    match Obs.Histogram.of_raw ~buckets ~count ~sum ~max with
    | h -> Ok (name, h)
    | exception Invalid_argument m ->
        Error (Printf.sprintf "histogram %S: %s" name m)
  in
  let* histograms =
    match Json.member "histograms" j with
    | Some (Json.Obj kvs) ->
        List.fold_left
          (fun acc kv ->
            let* acc = acc in
            let* h = hist_of kv in
            Ok (h :: acc))
          (Ok []) kvs
        |> Result.map List.rev
    | _ -> Error "missing object \"histograms\""
  in
  Ok { taken_at; counters; gauges; histograms }

(* --- fleet-wide merge -------------------------------------------------- *)

(* Merge the router's own snapshot with one snapshot per shard into a
   single lint-clean exposition.  Per family:
   - counters: one sample per source under a [shard] label (the router
     as [shard="router"]) plus an {e unlabeled} sample carrying the sum
     over the numeric shards — the fleet total a dashboard wants,
     reconstructible from (and checkable against) the labeled samples;
   - gauges: labeled per-source samples only (summing point-in-time
     gauges across processes is meaningless), plus a synthetic
     [mcml_fleet_shard_up] family marking unreachable shards 0;
   - histograms: merged bucket-wise across all sources and exposed
     unlabeled — distributions aggregate exactly, per-shard splits
     remain available from each shard's own endpoint. *)

let collect_families sources =
  (* name -> (label, value) list in source order; names sorted *)
  let tbl : (string, (string * float) list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (label, kvs) ->
      List.iter
        (fun (name, v) ->
          let cell =
            match Hashtbl.find_opt tbl name with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.add tbl name r;
                order := name :: !order;
                r
          in
          cell := (label, v) :: !cell)
        kvs)
    sources;
  List.sort String.compare (List.rev !order)
  |> List.map (fun name -> (name, List.rev !(Hashtbl.find tbl name)))

let shard_up_metric = "fleet.shard.up"

let fleet_to_openmetrics ~router ~shards =
  let buf = Buffer.create 8192 in
  let up = List.map (fun (i, r) -> (i, Result.is_ok r)) shards in
  let live =
    List.filter_map
      (fun (i, r) ->
        match r with
        | Ok s -> Some (string_of_int i, s)
        | Error _ -> None)
      shards
  in
  let sources = live @ [ ("router", router) ] in
  let labeled_sample n label v =
    Buffer.add_string buf (Printf.sprintf "%s{shard=\"%s\"} " n label);
    Buffer.add_string buf (fmt_value v);
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun (name, samples) ->
      let n = metric_name name in
      add_type_line buf n "counter";
      List.iter (fun (label, v) -> labeled_sample (n ^ "_total") label v) samples;
      let shard_sum =
        List.fold_left
          (fun acc (label, v) -> if label = "router" then acc else acc +. v)
          0.0 samples
      in
      add_sample buf (n ^ "_total") shard_sum)
    (collect_families (List.map (fun (l, s) -> (l, s.counters)) sources));
  List.iter
    (fun (name, samples) ->
      let n = metric_name name in
      add_type_line buf n "gauge";
      List.iter (fun (label, v) -> labeled_sample n label v) samples)
    (collect_families
       (List.map (fun (l, s) -> (l, s.gauges)) sources
       @ List.map
           (fun (i, ok) ->
             ( string_of_int i,
               [ (shard_up_metric, if ok then 1.0 else 0.0) ] ))
           up));
  let merged_hists =
    let tbl : (string, Obs.Histogram.t) Hashtbl.t = Hashtbl.create 32 in
    let order = ref [] in
    List.iter
      (fun (_, s) ->
        List.iter
          (fun (name, h) ->
            match Hashtbl.find_opt tbl name with
            | Some acc -> Hashtbl.replace tbl name (Obs.Histogram.merge acc h)
            | None ->
                Hashtbl.add tbl name (Obs.Histogram.copy h);
                order := name :: !order)
          s.histograms)
      sources;
    List.sort String.compare (List.rev !order)
    |> List.map (fun name -> (name, Hashtbl.find tbl name))
  in
  List.iter
    (fun (name, h) ->
      let n = metric_name name in
      add_type_line buf n "histogram";
      add_histogram_samples buf n h)
    merged_hists;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let fleet_to_json ~router ~shards =
  let shard_obj (i, r) =
    match r with
    | Ok s -> (
        match to_json s with
        | Json.Obj kvs -> Json.Obj (("shard", Json.Int i) :: kvs)
        | j -> j)
    | Error msg ->
        Json.Obj [ ("shard", Json.Int i); ("error", Json.Str msg) ]
  in
  Json.Obj
    [
      ("schema", Json.Str "mcml.metrics.fleet.v1");
      ("ts", Json.Float router.taken_at);
      ("router", to_json router);
      ("shards", Json.List (List.map shard_obj shards));
    ]

(* --- exposition linter ------------------------------------------------- *)

type family_kind = Counter_family | Gauge_family | Histogram_family

let valid_name s =
  String.length s > 0
  && (not (s.[0] >= '0' && s.[0] <= '9'))
  && String.for_all is_name_char s

(* Strip a known suffix and report which family a sample belongs to. *)
let family_of_sample families name =
  let strip suffix =
    if
      String.length name > String.length suffix
      && String.ends_with ~suffix name
    then Some (String.sub name 0 (String.length name - String.length suffix))
    else None
  in
  let check base kinds =
    match Hashtbl.find_opt families base with
    | Some k when List.mem k kinds -> true
    | _ -> false
  in
  match strip "_total" with
  | Some base when check base [ Counter_family ] -> Some base
  | _ -> (
      let hist_suffix =
        List.find_map
          (fun s ->
            match strip s with
            | Some base when check base [ Histogram_family ] -> Some base
            | _ -> None)
          [ "_bucket"; "_count"; "_sum" ]
      in
      match hist_suffix with
      | Some base -> Some base
      | None -> if check name [ Gauge_family ] then Some name else None)

let lint text =
  let ( let* ) = Result.bind in
  let families : (string, family_kind) Hashtbl.t = Hashtbl.create 64 in
  let lines = String.split_on_char '\n' text in
  (* a trailing newline yields one final empty element; drop it *)
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let err i msg = Error (Printf.sprintf "line %d: %s" (i + 1) msg) in
  let n_lines = List.length lines in
  let check_line i line =
    if line = "# EOF" then
      if i = n_lines - 1 then Ok () else err i "# EOF is not the last line"
    else if String.length line = 0 then err i "blank line"
    else if line.[0] = '#' then
      match String.split_on_char ' ' line with
      | "#" :: "TYPE" :: name :: kind :: [] ->
          let* k =
            match kind with
            | "counter" -> Ok Counter_family
            | "gauge" -> Ok Gauge_family
            | "histogram" -> Ok Histogram_family
            | k -> err i (Printf.sprintf "unknown metric type %S" k)
          in
          if not (valid_name name) then
            err i (Printf.sprintf "invalid family name %S" name)
          else if Hashtbl.mem families name then
            err i (Printf.sprintf "duplicate TYPE for family %S" name)
          else begin
            Hashtbl.add families name k;
            Ok ()
          end
      | "#" :: "HELP" :: _ -> Ok ()
      | _ -> err i "malformed comment (expected # TYPE, # HELP or # EOF)"
    else begin
      (* sample: name[{labels}] value *)
      let name_end =
        match (String.index_opt line '{', String.index_opt line ' ') with
        | Some b, Some sp when b < sp -> b
        | _, Some sp -> sp
        | _, None -> String.length line
      in
      let name = String.sub line 0 name_end in
      let* rest =
        if name_end < String.length line && line.[name_end] = '{' then
          match String.index_from_opt line name_end '}' with
          | Some close
            when close + 1 < String.length line && line.[close + 1] = ' ' ->
              Ok (String.sub line (close + 2) (String.length line - close - 2))
          | _ -> err i "malformed label set"
        else if name_end < String.length line then
          Ok (String.sub line (name_end + 1) (String.length line - name_end - 1))
        else err i "sample has no value"
      in
      if not (valid_name name) then
        err i (Printf.sprintf "invalid sample name %S" name)
      else if rest <> "+Inf" && Float.of_string_opt rest = None then
        err i (Printf.sprintf "unparseable sample value %S" rest)
      else
        match family_of_sample families name with
        | Some _ -> Ok ()
        | None ->
            err i
              (Printf.sprintf
                 "sample %S does not belong to a declared family" name)
    end
  in
  let rec walk i = function
    | [] -> if i = 0 then Error "empty exposition" else Ok ()
    | line :: rest ->
        let* () = check_line i line in
        walk (i + 1) rest
  in
  let* () = walk 0 lines in
  match List.rev lines with
  | "# EOF" :: _ -> Ok ()
  | _ -> Error "exposition does not end with # EOF"
