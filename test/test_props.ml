(* Tests for the 16-property registry: checkers vs the Alloy evaluator,
   closed forms vs exhaustive enumeration, scope selection. *)

open Mcml_logic
open Mcml_props

let check = Alcotest.check
let qtest ?(count = 200) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let registry () =
  check Alcotest.int "sixteen properties" 16 (List.length Props.all);
  let names = List.map (fun p -> p.Props.name) Props.all in
  check Alcotest.int "unique names" 16 (List.length (List.sort_uniq compare names));
  check Alcotest.bool "sorted like the paper (alphabetical)" true
    (names = List.sort compare names)

let find_case_insensitive () =
  check Alcotest.bool "lowercase" true (Props.find "partialorder" <> None);
  check Alcotest.bool "mixed" true (Props.find "PaRtIaLoRdEr" <> None);
  check Alcotest.bool "unknown" true (Props.find "NotAProperty" = None);
  Alcotest.check_raises "find_exn"
    (Invalid_argument "Props.find_exn: unknown property \"nope\"") (fun () ->
      ignore (Props.find_exn "nope"))

(* every direct checker agrees with the Alloy evaluator on random
   instances — one qcheck property per relational property, so a failure
   names the culprit *)
let checker_vs_evaluator prop =
  qtest ~count:120
    (Printf.sprintf "checker = evaluator: %s" prop.Props.name)
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 3 5))
    (fun (seed, scope) ->
      let analyzer = Props.analyzer ~scope in
      let inst =
        Mcml_alloy.Instance.random (Splitmix.create seed) (Props.spec ()) ~scope
      in
      let bits = Mcml_alloy.Instance.to_bits inst in
      prop.Props.check ~scope bits
      = Mcml_alloy.Analyzer.evaluate analyzer ~pred:prop.Props.pred inst)

(* closed forms are validated against brute-force enumeration of ALL
   2^(n^2) matrices at scope 3 — fully independent of the SAT pipeline *)
let closed_form_vs_truth prop =
  Alcotest.test_case
    (Printf.sprintf "closed form matches exhaustive truth: %s" prop.Props.name)
    `Quick
    (fun () ->
      let scope = 3 in
      let n2 = scope * scope in
      let count = ref 0 in
      let bits = Array.make n2 false in
      for mask = 0 to (1 lsl n2) - 1 do
        for b = 0 to n2 - 1 do
          bits.(b) <- mask land (1 lsl b) <> 0
        done;
        if prop.Props.check ~scope bits then incr count
      done;
      match prop.Props.closed_form scope with
      | Some cf -> check Alcotest.string "count" (string_of_int !count) (Bignat.to_string cf)
      | None -> Alcotest.skip ())

(* enumeration through the full SAT pipeline agrees with the closed form
   at scope 4 *)
let enumeration_vs_closed_form prop =
  Alcotest.test_case
    (Printf.sprintf "SAT enumeration matches closed form: %s" prop.Props.name)
    `Slow
    (fun () ->
      let scope = 4 in
      match prop.Props.closed_form scope with
      | None -> Alcotest.skip ()
      | Some cf ->
          let n = Props.count_positives prop ~scope ~symmetry:false in
          check Alcotest.string "count" (Bignat.to_string cf) (string_of_int n))

(* exact counter agrees with closed forms at scope 4 as well *)
let exact_count_vs_closed_form prop =
  Alcotest.test_case
    (Printf.sprintf "exact counter matches closed form: %s" prop.Props.name)
    `Slow
    (fun () ->
      let scope = 4 in
      match prop.Props.closed_form scope with
      | None -> Alcotest.skip ()
      | Some cf ->
          let analyzer = Props.analyzer ~scope in
          let cnf = Mcml_alloy.Analyzer.cnf analyzer ~pred:prop.Props.pred in
          check Alcotest.string "count" (Bignat.to_string cf)
            (Bignat.to_string (Mcml_counting.Exact.count cnf)))

let symmetry_reduces_counts () =
  (* partial symmetry breaking never increases, and for these properties
     strictly decreases, the number of solutions *)
  List.iter
    (fun name ->
      let prop = Props.find_exn name in
      let full = Props.count_positives prop ~scope:4 ~symmetry:false in
      let broken = Props.count_positives prop ~scope:4 ~symmetry:true in
      if broken > full then
        Alcotest.failf "%s: symmetry breaking increased count %d -> %d" name full broken;
      if broken = 0 then Alcotest.failf "%s: symmetry breaking removed everything" name;
      if name <> "Reflexive" && broken >= full then
        Alcotest.failf "%s: expected a strict reduction (%d vs %d)" name broken full)
    [ "Equivalence"; "TotalOrder"; "Function"; "PartialOrder" ]

let select_scope_respects_threshold () =
  let prop = Props.find_exn "Function" in
  (* Function has n^n positives: 27 at scope 3, 256 at scope 4 *)
  check Alcotest.int "threshold 100 -> scope 4" 4
    (Props.select_scope prop ~symmetry:false ~threshold:100 ~max_scope:7);
  check Alcotest.int "threshold 20 -> scope 3" 3
    (Props.select_scope prop ~symmetry:false ~threshold:20 ~max_scope:7);
  check Alcotest.int "cap respected" 2
    (Props.select_scope prop ~symmetry:false ~threshold:1_000_000 ~max_scope:2)

(* The rule scope selection used to follow: enumerate every positive
   and compare the total with the threshold (plain ϕ reads its closed
   form).  It is kept here only as the oracle the counted selection is
   held to; each (property, symmetry, scope) is enumerated once. *)
let enumerated_positives = Hashtbl.create 64

let enumerated_scope prop ~symmetry ~threshold ~max_scope =
  let positives scope =
    let key = (prop.Props.name, symmetry, scope) in
    match Hashtbl.find_opt enumerated_positives key with
    | Some c -> c
    | None ->
        let c =
          match if symmetry then None else prop.Props.closed_form scope with
          | Some c -> c
          | None -> Bignat.of_int (Props.count_positives prop ~scope ~symmetry)
        in
        Hashtbl.replace enumerated_positives key c;
        c
  in
  let rec go scope =
    if scope >= max_scope then max_scope
    else if Bignat.compare (positives scope) (Bignat.of_int threshold) >= 0 then scope
    else go (scope + 1)
  in
  go 1

let select_scope_matches_enumeration () =
  let cache = Mcml_counting.Counter.cache_create () in
  List.iter
    (fun prop ->
      List.iter
        (fun symmetry ->
          List.iter
            (fun threshold ->
              check Alcotest.int
                (Printf.sprintf "%s symmetry=%b threshold=%d" prop.Props.name symmetry threshold)
                (enumerated_scope prop ~symmetry ~threshold ~max_scope:5)
                (Props.select_scope ~cache prop ~symmetry ~threshold ~max_scope:5))
            [ 20; 150; 800 ])
        [ true; false ])
    Props.all

(* a timed-out count must never pass for "too few positives" *)
let select_scope_timeout_raises () =
  let prop = Props.find_exn "PartialOrder" in
  match Props.select_scope ~budget:(-1.0) prop ~symmetry:true ~threshold:150 ~max_scope:5 with
  | scope -> Alcotest.failf "returned scope %d after a timed-out count" scope
  | exception Failure msg ->
      let mentions sub =
        let n = String.length sub in
        let rec at i = i + n <= String.length msg && (String.sub msg i n = sub || at (i + 1)) in
        at 0
      in
      check Alcotest.bool ("names the property: " ^ msg) true (mentions "PartialOrder");
      check Alcotest.bool ("names the scope: " ^ msg) true (mentions "scope 1")

let specific_closed_forms () =
  let expect name scope value =
    let prop = Props.find_exn name in
    match prop.Props.closed_form scope with
    | Some c -> check Alcotest.string (Printf.sprintf "%s@%d" name scope) value (Bignat.to_string c)
    | None -> Alcotest.failf "%s has no closed form at scope %d" name scope
  in
  (* the paper's Table 1 exact counts (ProjMC, no symmetry breaking) *)
  expect "Antisymmetric" 5 "1889568";
  expect "Connex" 6 "14348907";
  expect "Function" 8 "16777216";
  expect "Functional" 8 "43046721";
  expect "Injective" 8 "16777216";
  expect "Irreflexive" 5 "1048576";
  expect "NonStrictOrder" 7 "6129859";
  expect "PartialOrder" 6 "8321472";
  expect "PreOrder" 7 "9535241";
  expect "Reflexive" 5 "1048576";
  expect "StrictOrder" 7 "6129859";
  expect "Transitive" 6 "9415189"

let () =
  Alcotest.run "props"
    [
      ( "registry",
        [
          Alcotest.test_case "sixteen unique properties" `Quick registry;
          Alcotest.test_case "find" `Quick find_case_insensitive;
        ] );
      ("checker-vs-evaluator", List.map checker_vs_evaluator Props.all);
      ("closed-form-vs-truth", List.map closed_form_vs_truth Props.all);
      ("enumeration-vs-closed-form", List.map enumeration_vs_closed_form Props.all);
      ("exact-count-vs-closed-form", List.map exact_count_vs_closed_form Props.all);
      ( "scopes-and-symmetry",
        [
          Alcotest.test_case "symmetry reduces counts" `Slow symmetry_reduces_counts;
          Alcotest.test_case "select_scope thresholds" `Quick select_scope_respects_threshold;
          Alcotest.test_case "select_scope = enumeration-based selection" `Quick
            select_scope_matches_enumeration;
          Alcotest.test_case "select_scope raises on a timed-out count" `Quick
            select_scope_timeout_raises;
          Alcotest.test_case "paper Table 1 exact counts" `Quick specific_closed_forms;
        ] );
    ]
