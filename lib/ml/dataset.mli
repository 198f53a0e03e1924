(** Labeled datasets of boolean feature vectors.

    Matches the paper's data pipeline: samples are flattened adjacency
    matrices with a binary label; datasets are balanced (same number of
    positive and negative samples), split into train/test at the
    paper's ratios with no overlap, and optionally re-sampled to a
    prescribed class ratio (Table 9). *)

open Mcml_logic

type sample = { features : bool array; label : bool }

type t = { nfeatures : int; samples : sample array }

val make : nfeatures:int -> sample list -> t
(** @raise Invalid_argument on a feature-length mismatch. *)

val of_arrays : nfeatures:int -> (bool array * bool) list -> t

val size : t -> int
val num_positive : t -> int
val num_negative : t -> int
(** Sample counts: total, positive-labelled, negative-labelled. *)

val shuffle : Splitmix.t -> t -> t
(** Fisher-Yates shuffle driven by the given RNG (deterministic per
    seed). *)

val split : Splitmix.t -> train_fraction:float -> t -> t * t
(** Random split with no overlap; the paper's ratios 75:25 … 1:99 map
    to fractions 0.75 … 0.01.  Each class is split at the same
    fraction (stratified), so a balanced set stays balanced. *)

val balanced : Splitmix.t -> positives:bool array list -> negatives:bool array list ->
  nfeatures:int -> t
(** Balanced dataset: keeps [min (#pos) (#neg)] samples of each class,
    sampled without replacement, then shuffles. *)

val with_class_ratio :
  Splitmix.t -> pos_weight:int -> neg_weight:int -> size:int -> t -> t
(** Resample (with replacement within each class) to [size] samples at
    the class ratio [pos_weight:neg_weight] — the Table 9 workload. *)

val subset : t -> int list -> t

val partition : t -> int array -> feature:int -> true_count:int -> int array * int array
(** [partition t idx ~feature ~true_count] splits the sample indices
    [idx] by the value of [feature], keeping their order on both sides;
    [true_count] is the number of them with the feature set (the tree
    learners have it from their split statistics). *)
