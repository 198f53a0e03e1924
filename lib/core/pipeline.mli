(** End-to-end data pipeline: property → bounded-exhaustive positives,
    random rejection-sampled negatives, balanced dataset — the
    "Generation of positive and negative samples" procedure of §5.

    {b Determinism.}  All randomness (negative sampling, dataset
    shuffling, the positive reservoir) is drawn from SplitMix streams
    created locally from [data_config.seed]; no global RNG is
    consulted.  Generation for
    different properties may therefore run on different domains and
    still produce exactly the datasets of a sequential run. *)

open Mcml_logic
open Mcml_ml
open Mcml_counting

type data_config = {
  scope : int;
  symmetry : bool;  (** apply partial symmetry breaking to the positives *)
  max_positives : int;
      (** cap on the positives in the dataset.  Enumeration is always
          exhaustive, as in the paper; above the cap the positives are a
          uniform sample of all solutions (recorded in the result) *)
  seed : int;
}

exception Timeout
(** Raised by {!generate} when enumeration outlives its budget. *)

type generated = {
  dataset : Dataset.t;  (** balanced, shuffled *)
  num_positive_solutions : int;
      (** positives in the dataset before balancing:
          [min max_positives (number of solutions)] *)
  positives_complete : bool;
      (** [true] iff the positives are every solution of the predicate
          (there are at most [max_positives]); [false] means they are a
          seeded uniform sample of [max_positives] of them *)
  scope : int;
  symmetry : bool;
}

val generate : ?budget:float -> Mcml_props.Props.t -> data_config -> generated
(** Positives: every solution of the property's predicate at the scope
    is streamed from the analyzer's SAT enumeration
    ({!Mcml_alloy.Analyzer.iter_solutions}, lexicographic order) through
    a reservoir of [max_positives] slots — Algorithm R: the [i]-th
    solution (from 0) fills slot [i] while [i < max_positives], else
    replaces slot [Splitmix.int rng (i + 1)] when that is below the cap,
    with [rng = Splitmix.create (seed + 2)].  So a capped positive set
    is a uniform sample of the exhaustive one, and only the reservoir
    is held in memory.  The sample is sorted lexicographically before
    balancing.  Negatives: uniformly random instances filtered by the
    property's direct checker (the Alloy-Evaluator fast path),
    deduplicated, one per positive ([Splitmix.create seed]); the
    balanced dataset is shuffled with [Splitmix.create (seed + 1)].

    {b Cost.}  Enumeration visits every solution, whatever
    [max_positives] is, so its time is linear in the number of
    solutions (under 1 µs each at scope 4): milliseconds at the
    scopes the tables use, but [2{^n(n-1)}] solutions for a dense
    property such as Irreflexive at scope [n] — about [10{^9}] at
    scope 6.  [budget] bounds the enumeration's wall clock in seconds
    (default: no bound); callers that take the scope from a user pass
    one.  The reservoir holds at most [max_positives] solutions.
    @raise Timeout when enumeration does not finish within [budget]. *)

val train_eval :
  ?kind:Model.kind ->
  ?train_fraction:float ->
  seed:int ->
  Dataset.t ->
  Model.t * Dataset.t * Dataset.t
(** The train-and-evaluate step of [mcml train-eval], [mcml stats] and
    the served [accmc] request: split the dataset with
    [Splitmix.create (seed + 5)] ([train_fraction], default [0.75]),
    then train [kind] (default [DT]) at {!Model.fast_sizes} with
    [seed].  Returns the model, the training set and the test set. *)

val diff_trees : seed:int -> Dataset.t -> Decision_tree.t * Decision_tree.t
(** The DiffMC tree pair of Table 8, [mcml diff] and the served
    [diffmc] request: on the half of the dataset kept by a split with
    [Splitmix.create (seed + 29)], one tree with default
    hyperparameters (seed [seed + 1]) and one with [max_depth = 4],
    [min_samples_split = 8] (seed [seed + 2]). *)

val ground_truth :
  Mcml_props.Props.t -> scope:int -> symmetry:bool -> Cnf.t * Cnf.t
(** [(ϕ, ¬ϕ)] as CNFs over the primary variables; when [symmetry],
    both are conjoined with the lex-leader predicate (the
    symmetry-constrained evaluation universe of Tables 3 and 7). *)

val space_cnf : scope:int -> symmetry:bool -> Cnf.t
(** The evaluation universe as a CNF: trivial (full space) or the
    symmetry-breaking predicate alone.  (Property-independent: all 16
    properties share one spec, so the universe depends only on the
    scope and the symmetry flag.) *)

val accmc :
  ?budget:float ->
  ?style:Accmc.style ->
  ?pool:Mcml_exec.Pool.t ->
  ?cache:Counter.cache ->
  backend:Counter.backend ->
  prop:Mcml_props.Props.t ->
  scope:int ->
  eval_symmetry:bool ->
  Decision_tree.t ->
  Accmc.counts option
(** Convenience wrapper: build the ground truth and run {!Accmc}. *)

val train_fraction_of_ratio : int * int -> float
(** [(75, 25)] ↦ [0.75] etc. *)
