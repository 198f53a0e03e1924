(** The analyzer: bounded translation, solving, enumeration, counting.

    This module plays the role of the Alloy Analyzer in the paper's
    toolchain: it translates a predicate of a spec, with respect to an
    exact scope, into (a) a hash-consed propositional formula over the
    primary variables, (b) a CNF (via the count-preserving Tseitin
    transform) whose projection set is the primary variables, and it
    (c) enumerates all solutions with the CDCL backend (blocking-free,
    in lexicographic order of the primary variables) and (d) counts
    them with a chosen model counter.  Symmetry breaking mirrors
    Alloy's default partial scheme and can be toggled, as the study
    requires. *)

open Mcml_logic

type t = private { spec : Ast.spec; scope : int }

val make : Ast.spec -> scope:int -> t
(** Checks the spec ({!Check.check_spec}) and fixes the scope.
    @raise Check.Error on an ill-formed spec. *)

val of_source : string -> scope:int -> t
(** Parse, check, and fix a scope in one step. *)

val nprimary : t -> int
(** Number of primary variables: [#fields * scope²]. *)

val state_space : t -> Bignat.t
(** [2^nprimary] — the size of the bounded input space. *)

val var_of : t -> field:string -> int -> int -> int
(** Primary variable of field entry [(i, j)]; fields are numbered in
    declaration order, entries row-major, variables from 1. *)

val formula : ?negate:bool -> ?symmetry:bool -> t -> pred:string -> Formula.t
(** Propositional semantics of the predicate at the scope.  [negate]
    negates the predicate; [symmetry] conjoins the partial lex-leader
    predicate (outside the negation, matching the paper's use of a
    symmetry-constrained evaluation universe). *)

val cnf : ?negate:bool -> ?symmetry:bool -> t -> pred:string -> Cnf.t
(** CNF of {!formula} with projection onto the primary variables. *)

val iter_solutions :
  ?symmetry:bool ->
  ?limit:int ->
  ?budget:float ->
  t ->
  pred:string ->
  (bool array -> unit) ->
  bool
(** [iter_solutions t ~pred f] streams every solution of the predicate
    to [f] as its primary-variable bits ({!Instance.to_bits} layout),
    in lexicographic order of those bits, holding none of them; at most
    [limit] solutions (default: all), within [budget] seconds of
    enumeration (default: no bound).  Returns [true] when the
    enumeration completed, i.e. [f] saw every solution; [false] when
    it stopped at [limit] or ran out of [budget].  Solutions
    come from blocking-free projected enumeration ({!Mcml_sat.Enumerate}),
    so the cost is linear in their number and the order depends only
    on the CNF. *)

val enumerate :
  ?symmetry:bool -> ?limit:int -> t -> pred:string -> Instance.t list * bool
(** {!iter_solutions} collected as instances (the positive samples of
    the study), in the same lexicographic order; with [limit], the
    first [limit] solutions in that order.  The boolean is [true] when
    enumeration completed. *)

val evaluate : t -> pred:string -> Instance.t -> bool
(** The Alloy Evaluator: checks a concrete instance by constant
    propagation, no solving. *)

val count :
  ?negate:bool ->
  ?symmetry:bool ->
  ?budget:float ->
  ?cache:Mcml_counting.Counter.cache ->
  backend:Mcml_counting.Counter.backend ->
  t ->
  pred:string ->
  Mcml_counting.Counter.outcome option
(** Model count of the predicate over the bounded space.  [cache]
    memoizes the outcome by full (backend, CNF) content
    ({!Mcml_counting.Counter.cache}).

    {b Thread safety.}  An analyzer value is immutable; translation,
    enumeration, and counting build fresh per-call state, so one
    analyzer may be shared across domains. *)
