(** All-solutions enumeration over a projection set.

    This is how the Alloy-analyzer substrate produces the
    bounded-exhaustive positive sample sets of the study.  It is
    blocking-free ({!Solver.enumerate}): the projection variables are
    decided first, in the order of [Cnf.projection_vars] and false
    first, and each model or dead branch moves on by chronological
    backtracking to the deepest projection decision that still has an
    unexplored branch.  No clause is added per model, so the cost is
    linear in the number of models.  Every distinct valuation of the
    projection variables is produced exactly once, in lexicographic
    order of those valuations ([false < true]); the order depends only
    on the CNF. *)

open Mcml_logic

type status =
  | Complete  (** every projected model was produced *)
  | Limit
      (** stopped because [limit] models were produced (also when the
          [limit]-th model happens to be the last one) *)
  | Unknown
      (** stopped because [max_conflicts] conflicts passed without a
          new model, or [budget] ran out: the models seen are a genuine
          lexicographic prefix, but nothing was proved about the rest
          of the space *)

type outcome = {
  models : bool array list;
      (** each model restricted to the projection set, in the order of
          [Cnf.projection_vars]; most recent (lexicographically
          largest) first.  Empty when [keep_models] is false. *)
  complete : bool;  (** [status = Complete] *)
  status : status;  (** why the enumeration stopped *)
}

val run :
  ?limit:int ->
  ?max_conflicts:int ->
  ?budget:float ->
  ?keep_models:bool ->
  ?on_model:(bool array -> unit) ->
  Cnf.t ->
  outcome
(** [run cnf] enumerates all models of [cnf] projected onto its
    projection set.  [limit] bounds the number of models (default:
    unlimited); the models produced are then the lexicographically
    first [limit].  [max_conflicts] is a conflict budget per model:
    the conflicts spent finding the next model (default 0 = unlimited;
    exhaustion yields [status = Unknown] rather than silently posing
    as the end of the space).  [budget] bounds the wall clock of the
    whole call in seconds (default: none); it is checked after every
    conflict and every model, and running out also yields
    [status = Unknown].  [on_model] is called on each model as
    it is found.  [keep_models] (default true) controls whether models
    are accumulated in the outcome — pass false for count-only or
    [on_model]-streaming uses so large enumerations don't hold every
    model live.

    With telemetry enabled the call is one [sat.enumerate] span (models,
    status, rate) and adds to the [enumerate.models] and
    [solver.conflicts]/[solver.decisions]/[solver.propagations]
    counters. *)

val count : ?limit:int -> Cnf.t -> int * bool
(** Number of projected models (and whether enumeration completed)
    without retaining them ([keep_models = false]). *)
