open Mcml_logic
open Mcml_ml
open Mcml_counting

type counts = {
  tp : Bignat.t;
  fp : Bignat.t;
  tn : Bignat.t;
  fn : Bignat.t;
  time : float;
}

type style = Direct | Complement

let default_style = function
  | Counter.Exact | Counter.Brute -> Complement
  | Counter.Approx _ -> Direct

let style_name = function Direct -> "direct" | Complement -> "complement"

(* Generalized core: works for any classifier whose true/false sides are
   given as (count-preserving) CNFs over the primary variables — decision
   trees via Tree2cnf, binarized networks via Bnn2cnf. *)
let counts_sides ?budget ?style ?pool ?cache ~backend ~phi ~not_phi ~space
    ~nprimary ((side_true : Cnf.t), (side_false : Cnf.t)) =
  let style = match style with Some s -> s | None -> default_style backend in
  let open Mcml_obs in
  let start = Obs.monotonic_s () in
  let problems =
    match style with
    | Direct ->
        (* the literal reduction of the paper: tp, fp, tn, fn *)
        [ (phi, side_true); (not_phi, side_true); (not_phi, side_false); (phi, side_false) ]
    | Complement ->
        (* ϕ is a total function of the primary variables, so within
           the evaluation universe the models of [τ] split exactly
           into [ϕ ∧ τ] and [¬ϕ ∧ τ]; counting the universe side and
           subtracting avoids the expensive ¬ϕ formulas entirely.
           Only valid with an exact backend.  Counts tp, denom_t,
           denom_f, fn *)
        [ (phi, side_true); (space, side_true); (space, side_false); (phi, side_false) ]
  in
  let time = ref 0.0 and result = ref None in
  Obs.with_span "accmc.counts"
    ~attrs:(fun () ->
      [
        ("style", Obs.Str (style_name style));
        ("backend", Obs.Str (Counter.name backend));
        ("nprimary", Obs.Int nprimary);
        ("outcome", Obs.Str (if Option.is_none !result then "timeout" else "complete"));
        ("time_s", Obs.Float !time);
      ])
    (fun () ->
      let outcomes =
        Counter.count_all ?pool ?budget ?cache ~backend
          (List.map (fun (gt, side) -> Cnf.conjoin ~nshared:nprimary gt side) problems)
      in
      time := Obs.monotonic_s () -. start;
      result :=
        Option.map
          (fun outcomes ->
            match List.map (fun o -> o.Counter.count) outcomes with
            | [ tp; x; y; fn ] ->
                let fp, tn =
                  match style with
                  | Direct -> (x, y)
                  | Complement -> (Bignat.sub x tp, Bignat.sub y fn)
                in
                { tp; fp; tn; fn; time = !time }
            | _ -> assert false)
          outcomes;
      Obs.add "accmc.evaluations" 1;
      if Option.is_none !result then Obs.add "accmc.timeouts" 1;
      !result)

let counts ?budget ?style ?pool ?cache ~backend ~phi ~not_phi ~space ~nprimary
    (tree : Decision_tree.t) =
  counts_sides ?budget ?style ?pool ?cache ~backend ~phi ~not_phi ~space
    ~nprimary
    ( Tree2cnf.cnf_of_label ~nfeatures:nprimary tree ~label:true,
      Tree2cnf.cnf_of_label ~nfeatures:nprimary tree ~label:false )

let confusion c =
  {
    Metrics.tp = Bignat.to_float c.tp;
    fp = Bignat.to_float c.fp;
    tn = Bignat.to_float c.tn;
    fn = Bignat.to_float c.fn;
  }

let check_total c ~nprimary =
  let total = List.fold_left Bignat.add Bignat.zero [ c.tp; c.fp; c.tn; c.fn ] in
  Bignat.compare total (Bignat.pow2 nprimary) <= 0
