(** Metrics registry: named counters, gauges and fixed-bucket
    histograms, updated through integer probe handles.

    Updates go to the ambient registry installed by {!run};
    with no registry attached anywhere, an update is a single atomic
    load + compare + branch and allocates nothing. *)

type kind = Counter | Gauge | Histogram of float array

type probe

(** Register (or look up) a probe. Re-registering a name with the same
    kind returns the existing probe; a different kind raises. *)
val counter : string -> probe

val gauge : string -> probe
val histogram : string -> bounds:float array -> probe

val incr : probe -> unit
val add : probe -> int -> unit
val set : probe -> float -> unit
val observe : probe -> float -> unit

type registry

val create_registry : unit -> registry

(** [run reg f] runs [f] with [reg] as the ambient registry; nested
    runs save and restore the outer one. A pool task without a registry
    of its own writes into a fresh one, merged into its caller's at the
    join in submission order. *)
val run : registry -> (unit -> 'a) -> 'a

(** [quantile reg p q] is the interpolated q-th quantile of histogram
    probe [p] in [reg] (Prometheus-style: linear inside the winning
    bucket, last finite bound for the overflow bucket). [q] is clamped
    to [0, 1]. Defined edge cases: [None] for an empty histogram, a
    non-histogram probe, or a histogram with no finite bounds; with a
    single sample every [q] returns the sample's bucket upper bound.
    The result is monotone (non-decreasing) in [q]. *)
val quantile : registry -> probe -> float -> float option

(** Merge [src] into [into]: counters and histogram buckets add,
    written gauges overwrite. Merge pool-task registries in task order
    for determinism. *)
val merge : into:registry -> registry -> unit

(** Rows (metric, kind, field, value) in probe-registration order;
    untouched probes are omitted. *)
val dump : registry -> (string * string * string * string) list

val to_csv : registry -> string
val write_csv : registry -> string -> unit
