(** Deterministic sim-time tracing.

    A tracer is a session: a category mask plus lane buffers. {!run}
    installs the tracer as the ambient sink for the duration of a
    callback; probe sites all over the stack test {!on} (one atomic
    load + branch when tracing is off) and {!emit} into the current
    lane. Lanes are keyed by caller-chosen logical ids (task indices
    under [Exec.Pool]); pool tasks without a lane of their own reach
    their caller's lane at the join, in submission order. Exports merge
    lanes in ascending (lane, within-lane order) — byte-identical at
    any pool size. *)

type t

(** [create ?ring_capacity ?manifest ?sample ?categories ()] makes a
    tracer subscribing to [categories] (default: all). With
    [ring_capacity] each lane keeps only the most recent events
    (in-memory ring sink for tests); without it lanes grow unboundedly.
    [manifest] (default {!Manifest.default}) is emitted as the first
    line of JSONL exports. [sample] enables deterministic head-based
    flow sampling: flow-scoped events of sampled-out flows are neither
    buffered nor handed to observers (see {!Sample} and
    {!on_flow}). *)
val create :
  ?ring_capacity:int ->
  ?manifest:Json.t ->
  ?sample:Sample.t ->
  ?categories:Category.t list ->
  unit ->
  t

(** [run t ~lane ?observer f] runs [f] with [t] installed as the
    ambient sink, recording into a fresh buffer for [lane]. Nested
    runs save and restore the outer sink. Lane ids must be chosen
    deterministically by the caller (e.g. the task index of a pool
    fan-out). [observer] is called synchronously on every event the
    tracer admits — the invariant checker's online hook; it may itself
    {!emit} (e.g. a violation verdict), which re-enters this lane. *)
val run : t -> ?lane:int -> ?observer:(Event.t -> unit) -> (unit -> 'a) -> 'a

(** Probe guard: true iff a tracer subscribing to [cat] — or a flight
    recorder ({!Flight}) — is installed for the current task. When
    nothing is active anywhere this is a single atomic load + compare.
    Guard event construction behind it. *)
val on : Category.t -> bool

(** Probe guard for flow-scoped events: like {!on}, but also false when
    the ambient tracer's sampler drops [flow] (and no flight recorder
    is live — flight rings keep every flow). {!emit} re-applies the
    same pure sampling decision via [Event.flow_id], so probe sites
    guarded by plain {!on} still export the identical kept set. *)
val on_flow : Category.t -> flow:int -> bool

(** Record an event into the current tracer, if any (and if it
    subscribes to the event's category), and into the flight ring. *)
val emit : Event.t -> unit

(** All recorded events, merged in (lane, order-within-lane) order. *)
val events : t -> Event.t list

(** Total events currently buffered. *)
val length : t -> int

(** Events discarded by full ring buffers (0 for unbounded tracers). *)
val dropped : t -> int

val to_jsonl : t -> string
val to_csv : t -> string

(** Write choosing the format by extension ([.csv] gets CSV, anything
    else JSONL). *)
val write : t -> string -> unit

(** Always-on crash flight recorder ([Obs.Flight]): a bounded per-lane
    ring of the most recent events, fed by every probe whether or not a
    tracer exports anything — cheap enough (one ring store per event)
    to leave on for every run. When a supervised task fails
    ([Exec.Supervisor]) or an invariant records its first violation
    ([Check.Checker]), the current ring is dumped to JSONL. Lanes are
    logical ids and dump paths derive from the supervision context, so
    dumps are byte-identical at any pool size; pool tasks without a
    ring of their own reach their caller's at the join.
    [Ambient.unobserved] masks the ring along with the tracer; with
    nothing installed anywhere, probes pay [on]'s one load + branch. *)
module Flight : sig
  type t

  (** [create ?capacity ()] makes a recorder whose lanes each keep the
      most recent [capacity] events (default 2048). *)
  val create : ?capacity:int -> unit -> t

  (** [run t ~lane f] runs [f] with [t] recording its events into a
      fresh ring for [lane]. Nests with [Trace.run] in either order. *)
  val run : t -> ?lane:int -> (unit -> 'a) -> 'a

  (** True iff a flight recorder is installed for the current task. *)
  val active : unit -> bool

  (** Events currently held by each lane, ascending lane id, oldest
      first within a lane. *)
  val events : t -> (int * Event.t list) list

  (** Total events overwritten by full rings, across lanes. *)
  val dropped : t -> int

  (** Directory that [dump] writes into (default: the system temp
      directory; CLIs expose it as [--flight-dir]). *)
  val set_dump_dir : string -> unit

  val dump_dir : unit -> string

  (** [dump ~reason ()] writes the current task's ring to
      [dump_dir()/flight-<sanitized reason>.jsonl] (one event per line,
      same schema as trace exports, no manifest header) and returns the
      path and event count — or [None] when no flight recorder is
      installed. Never raises: write errors return [None]. In a pool task
      without a ring of its own the write happens at the join, where the
      caller's ring holds what it holds inline. *)
  val dump : reason:string -> unit -> (string * int) option
end
