(** Deterministic splitmix64 pseudo-random number generator.

    All randomness in the simulator flows through an explicit generator so
    that experiments are reproducible from their seed. *)

type t

(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)
val create : int -> t

(** Uniform float in [0, 1). *)
val float : t -> float

(** [uniform t ~lo ~hi] draws uniformly from [lo, hi). Requires
    [hi >= lo]. *)
val uniform : t -> lo:float -> hi:float -> float

(** [int t bound] draws an integer in [0, bound). Requires [bound > 0]. *)
val int : t -> int -> int

(** [bool t ~p] is true with probability [p]. *)
val bool : t -> p:float -> bool

(** Standard normal deviate (Box-Muller). *)
val normal : t -> float

(** Normal deviate with mean [mu] and standard deviation [sigma]. *)
val gaussian : t -> mu:float -> sigma:float -> float

(** Exponential deviate with the given mean. *)
val exponential : t -> mean:float -> float

(** [split t] derives an independent generator from [t]'s stream. *)
val split : t -> t

(** [split_key t ~key] derives an independent generator from [t]'s
    original seed and [key] alone. Unlike {!split} it neither consumes
    nor observes the parent's draw position: the derived stream is the
    same no matter how many draws the parent has made, so keyed
    components stay deterministic under any draw interleaving. *)
val split_key : t -> key:int -> t

(** Full generator state (position, seed) — opaque words for
    checkpointing; round-trips through {!set_state}. *)
val state : t -> int64 * int64

(** [set_state t s] rewinds [t] to snapshot [s] in place. Raises
    [Invalid_argument] if [s] came from a generator with a different
    seed. *)
val set_state : t -> int64 * int64 -> unit
