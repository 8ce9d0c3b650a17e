(** Empirical distributions (Fig. 2(b), Tab. 6). *)

type t

(** Requires a non-empty sample array. *)
val of_samples : float array -> t

val n : t -> int

(** Empirical P[X <= x]. *)
val at : t -> float -> float

(** Inverse CDF; [q] in [0, 1]. *)
val quantile : t -> float -> float

val min : t -> float
val max : t -> float
val mean : t -> float
val stddev : t -> float
val range : t -> float
