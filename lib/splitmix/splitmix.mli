(** The splitmix64 construction every keyed random stream derives from.

    [Netsim.Rng]'s generators, [Obs.Sample]'s flow sampling and
    [Chaos.Plane]'s fault draws all use these functions, so a decision
    keyed by (seed, key) is the same draw whichever layer makes it.
    This library depends on nothing: chaos and obs sit below netsim. *)

(** The splitmix64 increment (the golden ratio, 2^64 / phi). *)
val golden : int64

(** The splitmix64 finalizer: scrambles a counter into an output word. *)
val mix64 : int64 -> int64

(** [child ~seed ~key] is the starting state of the stream keyed by
    [(seed, key)]: two finalizer rounds over the seed and the key, so
    nearby keys yield unrelated streams. *)
val child : seed:int64 -> key:int -> int64

(** Uniform float in [0, 1) from a word's top 53 bits. *)
val to_unit : int64 -> float

(** [draw s ~n] is the [n]-th draw (from 0) of the stream whose state
    starts at [s], as a uniform float in [0, 1). *)
val draw : int64 -> n:int -> float
