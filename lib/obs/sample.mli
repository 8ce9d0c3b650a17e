(** Deterministic head-based flow sampling for trace exports.

    A sampling spec [1/N] keeps every event of roughly one flow in [N]
    and drops every event of the others. The keep/drop decision for a
    flow is the first draw of the {!Splitmix} stream keyed by
    [(seed, flow id)], the one [Netsim.Rng.split_key] derives — a pure
    function of the seed and the flow
    id, independent of any other randomness, of draw position, and of
    the [--domains] pool size. Two runs with the same seed therefore
    sample the same flows, and a sampled trace is byte-identical at any
    pool size (the same contract as the unsampled export).

    Flow-less events (link rate changes, stages, cycles, run markers,
    harness records, violations) are never sampled out: they are the
    structural skeleton consumers need to interpret the kept flows. *)

type t

(** [create ?seed n] keeps each flow with probability [1/n]. [n] must
    be >= 1; [n = 1] keeps everything. Raises [Invalid_argument]
    otherwise. *)
val create : ?seed:int -> int -> t

(** Parse a [--trace-sample] spec: ["1/N"] or plain ["N"] both mean
    keep one flow in [N]. The sampler has seed 0; a run re-creates it
    with its own seed from {!denominator}. *)
val parse : string -> (t, string) result

(** The denominator [N] of the spec. *)
val denominator : t -> int

(** Renders as ["1/N"]. *)
val to_string : t -> string

(** [keep t ~flow] — deterministic: depends on the sampler's seed and
    [flow] alone. Flows with negative ids (structural events) are
    always kept. *)
val keep : t -> flow:int -> bool
