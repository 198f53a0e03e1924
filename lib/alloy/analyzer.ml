open Mcml_logic

type t = { spec : Ast.spec; scope : int }

let make spec ~scope =
  Check.check_spec spec;
  if scope < 1 then raise (Check.Error "scope must be at least 1");
  { spec; scope }

let of_source src ~scope =
  let spec = Parser.parse_spec src in
  make spec ~scope

let field_index t name =
  let rec go k = function
    | [] -> raise (Check.Error (Printf.sprintf "unknown field %S" name))
    | (f : Ast.field) :: rest -> if f.Ast.field_name = name then k else go (k + 1) rest
  in
  go 0 t.spec.Ast.fields

let nprimary t = List.length t.spec.Ast.fields * t.scope * t.scope

let state_space t = Bignat.pow2 (nprimary t)

let var_of t ~field i j =
  let n = t.scope in
  if i < 0 || i >= n || j < 0 || j >= n then invalid_arg "Analyzer.var_of: atom out of scope";
  (field_index t field * n * n) + (i * n) + j + 1

module FSem = Semantics.Make (Semantics.Formulas)
module BSem = Semantics.Make (Semantics.Bools)

let formula ?(negate = false) ?(symmetry = false) t ~pred =
  let env =
    {
      FSem.scope = t.scope;
      field = (fun name i j -> Formula.var (var_of t ~field:name i j));
      spec = t.spec;
    }
  in
  let phi = FSem.pred env pred in
  let phi = if negate then Formula.not_ phi else phi in
  if symmetry then
    Formula.and_
      [ phi; Symmetry.breaking_formula ~var_of:(fun ~field i j -> var_of t ~field i j) t.spec ~scope:t.scope ]
  else phi

let cnf ?negate ?symmetry t ~pred =
  Tseitin.cnf_of ~nprimary:(nprimary t) (formula ?negate ?symmetry t ~pred)

let iter_solutions ?symmetry ?limit ?budget t ~pred f =
  let open Mcml_obs in
  let n = ref 0 and complete = ref false in
  let t0 = Obs.monotonic_s () in
  Obs.with_span "alloy.enumerate"
    ~attrs:(fun () ->
      let dt = Obs.monotonic_s () -. t0 in
      [
        ("pred", Obs.Str pred);
        ("scope", Obs.Int t.scope);
        ("symmetry", Obs.Bool (Option.value symmetry ~default:false));
        ("solutions", Obs.Int !n);
        ("complete", Obs.Bool !complete);
        ("solutions_per_sec", Obs.Float (if dt > 0.0 then float_of_int !n /. dt else 0.0));
      ])
    (fun () ->
      let outcome =
        Mcml_sat.Enumerate.run ?limit ?budget ~keep_models:false
          ~on_model:(fun bits ->
            incr n;
            f bits)
          (cnf ?symmetry t ~pred)
      in
      complete := outcome.Mcml_sat.Enumerate.complete);
  !complete

let enumerate ?symmetry ?limit t ~pred =
  let instances = ref [] in
  let complete =
    iter_solutions ?symmetry ?limit t ~pred (fun bits ->
        instances := Instance.of_bits t.spec ~scope:t.scope bits :: !instances)
  in
  (List.rev !instances, complete)

let evaluate t ~pred inst =
  if inst.Instance.scope <> t.scope then
    invalid_arg "Analyzer.evaluate: instance scope mismatch";
  let env =
    {
      BSem.scope = t.scope;
      field = (fun name i j -> Instance.get inst ~field:name i j);
      spec = t.spec;
    }
  in
  BSem.pred env pred

let count ?negate ?symmetry ?budget ?cache ~backend t ~pred =
  Mcml_counting.Counter.count ?budget ?cache ~backend
    (cnf ?negate ?symmetry t ~pred)
