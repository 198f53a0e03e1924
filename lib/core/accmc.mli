(** AccMC: quantifying a decision tree's performance over the entire
    bounded input space by model counting (paper §4, equations 1–4).

    Given ground truth [ϕ] (and its negation, both as CNFs over the
    primary variables) and a trained tree [d],

    {ul
    {- [tp = mc(ϕ ∧ paths_true(d))]}
    {- [fp = mc(¬ϕ ∧ paths_true(d))]}
    {- [tn = mc(¬ϕ ∧ paths_false(d))]}
    {- [fn = mc(ϕ ∧ paths_false(d))]}}

    all counted over the primary variables.  Accuracy, precision,
    recall and F1 are then derived exactly as from a test-set
    confusion — but with respect to all [2^n] inputs.

    Two computation styles are provided.  [Direct] performs the four
    counting calls literally, as the paper's reduction states.
    [Complement] exploits that [ϕ] is a total function of the primary
    variables: within the evaluation universe [U] (all of [2^n], or
    the symmetry-broken subspace), [mc(¬ϕ ∧ τ) = mc(U ∧ τ) − mc(ϕ ∧ τ)]
    — replacing the expensive negated-ground-truth formulas by cheap
    subtractions.  Both styles compute the same four counts; exact
    backends default to [Complement], the approximate backend to
    [Direct] (a difference of two estimates would compound error). *)

open Mcml_logic
open Mcml_ml
open Mcml_counting

type counts = {
  tp : Bignat.t;
  fp : Bignat.t;
  tn : Bignat.t;
  fn : Bignat.t;
  time : float;  (** total wall-clock for all four counts, as in Table 3 *)
}

type style = Direct | Complement

val default_style : Counter.backend -> style
(** The counting style each backend defaults to: [Complement] for
    exact counters (two counts instead of four), [Direct] for
    approximate ones (complement counts don't subtract soundly under
    approximation). *)

val counts :
  ?budget:float ->
  ?style:style ->
  ?pool:Mcml_exec.Pool.t ->
  ?cache:Counter.cache ->
  backend:Counter.backend ->
  phi:Cnf.t ->
  not_phi:Cnf.t ->
  space:Cnf.t ->
  nprimary:int ->
  Decision_tree.t ->
  counts option
(** [phi]/[not_phi] are the ground truth and its negation (both
    already conjoined with the symmetry-breaking predicate when
    evaluating the symmetry-constrained universe); [space] is that
    universe itself (the symmetry predicate alone, or an empty CNF for
    the full space).  [None] if any counting call times out (the paper
    reports "-" for the whole row in that case).

    The four counts run as one {!Counter.count_all} batch — on [pool]
    when given — and are recombined in a fixed order, so the counts do
    not depend on the pool; the first timeout stops the counts not yet
    started.  [cache] memoizes each (backend, CNF) count outcome — see
    {!Counter.cache}. *)

val counts_sides :
  ?budget:float ->
  ?style:style ->
  ?pool:Mcml_exec.Pool.t ->
  ?cache:Counter.cache ->
  backend:Counter.backend ->
  phi:Cnf.t ->
  not_phi:Cnf.t ->
  space:Cnf.t ->
  nprimary:int ->
  Cnf.t * Cnf.t ->
  counts option
(** Generalized entry point: the classifier is given as the
    [(true_side, false_side)] pair of
    count-preserving CNFs characterizing its [true] and [false] sides
    over the primary variables.  Decision trees use {!Tree2cnf};
    binarized neural networks use {!Bnn2cnf} — the generalization the
    paper's §2 describes. *)

val confusion : counts -> Metrics.confusion
(** Float view for metric derivation (exact for counts below [2^53],
    monotone beyond). *)

val check_total : counts -> nprimary:int -> bool
(** Sanity invariant: the four counts sum to at most the size of the
    full input space (equality on the unconstrained universe with an
    exact backend); used by tests. *)
