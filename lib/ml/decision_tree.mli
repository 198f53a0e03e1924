(** CART decision trees over boolean features.

    This is the model class MCML's counting metrics are defined on: a
    trained tree is a set of root-to-leaf paths; each path is a
    conjunction of literals over input variables ([feature i] true or
    false), and {!paths} exposes exactly that view for the Tree2CNF
    translation.

    Training is standard CART with Gini impurity, optional sample
    weights (for boosting) and optional per-split feature subsampling
    (for random forests). *)

open Mcml_logic

type node = Leaf of bool | Split of { feature : int; if_false : node; if_true : node }

type t = { nfeatures : int; root : node }

type params = {
  max_depth : int option;  (** [None] = unbounded *)
  min_samples_split : int;  (** don't split nodes smaller than this *)
  max_features : int option;
      (** per-split random feature subsample size; [None] = all *)
}

val default_params : params
(** unbounded depth, [min_samples_split = 2], all features —
    scikit-learn's out-of-the-box [DecisionTreeClassifier]. *)

val train :
  ?params:params ->
  ?weights:float array ->
  ?rng:Splitmix.t ->
  Dataset.t ->
  t
(** [train ds] grows a tree.  [weights] (parallel to [ds.samples])
    default to 1; [rng] draws the candidate features of each split when
    [max_features] is set, and is not consulted otherwise.  An empty
    dataset yields a single [Leaf false].

    @raise Invalid_argument if [weights] has the wrong length, if
    [max_features = Some k] with [k < 1], or if [max_features] is set
    and no [rng] is given. *)

val predict : t -> bool array -> bool

val paths : t -> ((int * bool) list * bool) list
(** Root-to-leaf paths: each is the list of [(feature, value)] branch
    conditions followed, paired with the leaf's label. *)

val num_leaves : t -> int
val depth : t -> int
(** Size measures of the learned tree. *)

val eval_all : t -> scope_bits:int -> (bool array -> bool) -> Metrics.confusion
(** Exhaustively evaluate the tree against an oracle over all
    [2^scope_bits] inputs (tests / tiny scopes only). *)

val pp : Format.formatter -> t -> unit
