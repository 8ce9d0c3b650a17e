(** Buffered experiment reports: lines plus key/value results.

    Experiments run under {!capture}, which installs an ambient sink;
    everything emitted via {!printf}/{!text} (including all of [Table])
    is buffered into the report. The registry renders finished reports in
    registry order, making output byte-identical regardless of how many
    domains ran the experiments. Pool tasks without a capture of their
    own write into a child report appended to the caller's at the join,
    in submission order. *)

type t

val create : unit -> t

(** Append one line to the report. *)
val line : t -> string -> unit

val linef : t -> ('a, unit, string, unit) format4 -> 'a

(** Record a key/value result (machine-readable side channel; not part
    of the rendered text). *)
val kv : t -> string -> string -> unit

(** Key/value results in insertion order. *)
val results : t -> (string * string) list

(** The buffered text. *)
val render : t -> string

val print : t -> unit

(** Serialize a finished report for the checkpoint store. Text and
    key/value results round-trip exactly through {!of_json}. *)
val to_json : t -> Obs.Json.t

(** Rebuild a checkpointed report; [None] on any shape mismatch (a
    checkpoint written by an incompatible version is treated as
    absent, not an error). *)
val of_json : Obs.Json.t -> t option

(** Run [f] with a fresh report installed as the sink; returns the
    report. Nested captures save and restore the outer sink. *)
val capture : (unit -> unit) -> t

(** Emit into the current sink, or stdout when no capture is active. *)
val printf : ('a, unit, string, unit) format4 -> 'a

val text : string -> unit

(** Record a key/value result on the current sink (no-op outside
    [capture]). *)
val result : string -> string -> unit

val resultf : string -> ('a, unit, string, unit) format4 -> 'a
