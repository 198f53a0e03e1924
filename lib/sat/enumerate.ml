open Mcml_logic

type status = Complete | Limit | Unknown

type outcome = { models : bool array list; complete : bool; status : status }

let string_of_status = function
  | Complete -> "complete"
  | Limit -> "limit"
  | Unknown -> "unknown"

let run ?(limit = max_int) ?(max_conflicts = 0) ?budget ?(keep_models = true)
    ?(on_model = fun _ -> ()) (cnf : Cnf.t) =
  let open Mcml_obs in
  let models = ref [] in
  let n = ref 0 in
  let status = ref Limit in
  let t0 = Obs.monotonic_s () in
  let deadline = Option.fold ~none:infinity ~some:(fun b -> t0 +. b) budget in
  Obs.with_span "sat.enumerate"
    ~attrs:(fun () ->
      let dt = Obs.monotonic_s () -. t0 in
      [
        ("models", Obs.Int !n);
        ("status", Obs.Str (string_of_status !status));
        ("complete", Obs.Bool (!status = Complete));
        ("models_per_sec", Obs.Float (if dt > 0.0 then float_of_int !n /. dt else 0.0));
      ])
    (fun () ->
      if limit > 0 then begin
        let s = Solver.of_cnf cnf in
        let before = Solver.stats s in
        let stop =
          Solver.enumerate ~max_conflicts ~deadline s ~projection:(Cnf.projection_vars cnf) (fun m ->
              if keep_models then models := m :: !models;
              incr n;
              on_model m;
              !n < limit)
        in
        let after = Solver.stats s in
        Obs.add "enumerate.models" !n;
        Obs.add "solver.conflicts" (after.conflicts - before.conflicts);
        Obs.add "solver.decisions" (after.decisions - before.decisions);
        Obs.add "solver.propagations" (after.propagations - before.propagations);
        status :=
          match stop with
          | Solver.Exhausted -> Complete
          | Solver.Stopped -> Limit
          | Solver.Out_of_budget -> Unknown
      end);
  { models = !models; complete = !status = Complete; status = !status }

let count ?limit cnf =
  let n = ref 0 in
  let outcome = run ?limit ~keep_models:false ~on_model:(fun _ -> incr n) cnf in
  (!n, outcome.complete)
