open Mcml_logic
open Mcml_ml
open Mcml_props

type data_config = {
  scope : int;
  symmetry : bool;
  max_positives : int;
  seed : int;
}

exception Timeout

type generated = {
  dataset : Dataset.t;
  num_positive_solutions : int;
  positives_complete : bool;
  scope : int;
  symmetry : bool;
}

(* Rejection-sample [num_pos] distinct negatives of [prop] at [scope].
   All randomness comes from the [rng] handed in — there is no hidden
   global stream, so the sample depends only on that rng's seed and is
   reproducible regardless of what other domains are doing. *)
let sample_negatives ~rng (prop : Props.t) ~scope ~num_pos =
  let nfeatures = scope * scope in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create (2 * num_pos) in
  let key bits =
    String.init (Array.length bits) (fun i -> if bits.(i) then '1' else '0')
  in
  let negatives = ref [] in
  let found = ref 0 in
  let attempts = ref 0 in
  let max_attempts = 1000 * num_pos in
  while !found < num_pos && !attempts < max_attempts do
    incr attempts;
    let bits = Array.init nfeatures (fun _ -> Splitmix.bool rng) in
    if not (prop.Props.check ~scope bits) then begin
      let k = key bits in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        negatives := bits :: !negatives;
        incr found
      end
    end
  done;
  if !found < num_pos then
    invalid_arg
      (Printf.sprintf
         "Pipeline.generate: could not sample %d distinct negatives for %s (scope %d)"
         num_pos prop.Props.name scope);
  !negatives

(* Algorithm R (Vitter): offer every item of [iter] once; the result is
   a uniform [cap]-subset of them (all of them if there are at most
   [cap]), drawn from [rng], with the number of items offered and
   [iter]'s result.  Holds at most [cap] items at any time. *)
let reservoir ~rng ~cap iter =
  let sample = Array.make cap [||] and seen = ref 0 in
  let result =
    iter (fun x ->
        let i = !seen in
        incr seen;
        let slot = if i < cap then i else Splitmix.int rng (i + 1) in
        if slot < cap then sample.(slot) <- x)
  in
  (Array.sub sample 0 (min cap !seen), !seen, result)

let generate_core ?budget (prop : Props.t) (cfg : data_config) : generated =
  let analyzer = Props.analyzer ~scope:cfg.scope in
  (* every solution is streamed through the reservoir, so a capped set
     of positives is a uniform sample of the exhaustive one.  The sample
     is determined by the CNF (the stream is lexicographic) and the
     seed; sorting it fixes the order in which it enters the shuffle *)
  let sample, total, complete =
    reservoir ~rng:(Splitmix.create (cfg.seed + 2)) ~cap:cfg.max_positives
      (Mcml_alloy.Analyzer.iter_solutions ?budget ~symmetry:cfg.symmetry analyzer
         ~pred:prop.Props.pred)
  in
  (* with no limit, an incomplete enumeration ran out of budget *)
  if not complete then raise Timeout;
  Array.sort compare sample;
  let positives = Array.to_list sample in
  let num_pos = Array.length sample in
  if num_pos = 0 then
    invalid_arg
      (Printf.sprintf "Pipeline.generate: %s has no solutions at scope %d"
         prop.Props.name cfg.scope);
  (* one negative per positive; sampling rng and shuffle rng are derived
     from the config seed only *)
  let negatives =
    sample_negatives ~rng:(Splitmix.create cfg.seed) prop ~scope:cfg.scope
      ~num_pos
  in
  let nfeatures = cfg.scope * cfg.scope in
  let dataset =
    Dataset.balanced
      (Splitmix.create (cfg.seed + 1))
      ~positives ~negatives ~nfeatures
  in
  {
    dataset;
    num_positive_solutions = num_pos;
    positives_complete = total <= cfg.max_positives;
    scope = cfg.scope;
    symmetry = cfg.symmetry;
  }

let generate ?budget (prop : Props.t) (cfg : data_config) : generated =
  let open Mcml_obs in
  let generated = ref None in
  Obs.with_span "pipeline.generate"
    ~attrs:(fun () ->
      [
        ("prop", Obs.Str prop.Props.name);
        ("scope", Obs.Int cfg.scope);
        ("symmetry", Obs.Bool cfg.symmetry);
      ]
      @ Option.fold ~none:[]
          ~some:(fun g ->
            [
              ("positives", Obs.Int g.num_positive_solutions);
              ("samples", Obs.Int (Mcml_ml.Dataset.size g.dataset));
              ("positives_complete", Obs.Bool g.positives_complete);
            ])
          !generated)
    (fun () ->
      let g = generate_core ?budget prop cfg in
      Obs.add "pipeline.generates" 1;
      generated := Some g;
      g)

let train_eval ?(kind = Model.DT) ?(train_fraction = 0.75) ~seed dataset =
  let train, test =
    Dataset.split (Splitmix.create (seed + 5)) ~train_fraction dataset
  in
  (Model.train ~sizes:Model.fast_sizes ~seed kind train, train, test)

let diff_trees ~seed dataset =
  let train, _ =
    Dataset.split (Splitmix.create (seed + 29)) ~train_fraction:0.5 dataset
  in
  (* [train_tree] always returns its tree *)
  let tree ?params seed = Option.get (Model.train_tree ?params ~seed train).Model.tree in
  let t1 = tree (seed + 1) in
  let t2 =
    tree
      ~params:{ Decision_tree.max_depth = Some 4; min_samples_split = 8; max_features = None }
      (seed + 2)
  in
  (t1, t2)

let ground_truth (prop : Props.t) ~scope ~symmetry =
  let analyzer = Props.analyzer ~scope in
  let phi = Mcml_alloy.Analyzer.cnf ~symmetry analyzer ~pred:prop.Props.pred in
  let not_phi =
    Mcml_alloy.Analyzer.cnf ~negate:true ~symmetry analyzer ~pred:prop.Props.pred
  in
  (phi, not_phi)

let space_cnf ~scope ~symmetry =
  let nprimary = scope * scope in
  if not symmetry then
    Cnf.make ~projection:(Array.init nprimary (fun i -> i + 1)) ~nvars:nprimary []
  else begin
    let analyzer = Props.analyzer ~scope in
    let var_of ~field i j = Mcml_alloy.Analyzer.var_of analyzer ~field i j in
    let breaking =
      Mcml_alloy.Symmetry.breaking_formula ~var_of (Props.spec ()) ~scope
    in
    Tseitin.cnf_of ~nprimary breaking
  end

let accmc ?budget ?style ?pool ?cache ~backend ~prop ~scope ~eval_symmetry tree
    =
  let phi, not_phi = ground_truth prop ~scope ~symmetry:eval_symmetry in
  let space = space_cnf ~scope ~symmetry:eval_symmetry in
  Accmc.counts ?budget ?style ?pool ?cache ~backend ~phi ~not_phi ~space
    ~nprimary:(scope * scope) tree

let train_fraction_of_ratio (a, b) = float_of_int a /. float_of_int (a + b)
