(** Online invariant checking over the Obs event stream.

    [create specs] compiles an invariant pack to one mutable state
    machine per spec; {!on_event} consumes events as they are emitted
    (install it as [Obs.Trace.run ~observer]) and records violations in
    stream order. The first few violations per spec are re-emitted into
    the trace as [Violation] events; {!raise_if_violated} turns a dirty
    checker into {!Violation_error} for the supervisor. [Run_start]
    events reset all machines (obligations do not cross run
    boundaries, and a pending [eventually] at end-of-run is not a
    violation). *)

type violation = {
  spec : string;
  kind : string;
  index : int;  (** 0-based index of the offending event in the checker's stream *)
  time : float;  (** sim time of the offending event *)
  detail : string;
}

exception
  Violation_error of { spec : string; kind : string; index : int; count : int }

type t

(** [create ?rtt specs] — [rtt] (seconds, default 0.03) scales
    [within N rtt] windows. *)
val create : ?rtt:float -> Spec.t list -> t

val specs : t -> Spec.t list

(** Events consumed so far. *)
val events_seen : t -> int

(** Total violations (keeps counting past the recording cap). *)
val total : t -> int

(** Recorded violations in stream order (capped at 1024). *)
val violations : t -> violation list

val first : t -> violation option

(** The flight-recorder dump captured at the first violation —
    [(path, event count)]; [None] when the checker is clean or no
    [Obs.Flight] ring was installed. *)
val flight : t -> (string * int) option

(** The [Obs.Trace.run ~observer] hook: consume one event. Profiled
    under the [check.eval] span when a recorder is active. *)
val on_event : t -> Obs.Event.t -> unit

(** Raise {!Violation_error} describing the first violation (and the
    total count) if any was recorded. *)
val raise_if_violated : t -> unit

(** Human-readable multi-line report: one line per recorded violation,
    or a single "clean" summary line. *)
val report : t -> string
