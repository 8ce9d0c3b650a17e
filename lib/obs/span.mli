(** Hierarchical host-time span profiler.

    Spans attribute *host* cost — monotonic nanoseconds plus GC minor/
    major words allocated — to named phases, nested into a calling-
    context tree. They are the host-side complement of {!Trace} (which
    records sim-time events): a span answers "where did the CPU go",
    a trace answers "what did the simulation do".

    Discipline mirrors {!Metrics} and {!Trace}:
    - probes are integer handles registered once at module init;
    - recording goes to the ambient recorder installed by {!run} (a
      pool task without one of its own records into a child context
      that the join grafts under the caller's [pool.map] span); with
      no recorder active anywhere, {!timed} is a single
      atomic load + compare + branch around calling [f] (the
      [obs/span-off] micro-bench enforces this);
    - lanes are keyed by caller-chosen logical ids and exported in
      ascending (lane, first-entry order), so span {!structure} —
      names, nesting, counts — is byte-identical at any pool size.
      Durations and GC words are host measurements and are therefore
      excluded from the determinism digest (see DESIGN.md §4f). *)

type probe

(** Register (or look up) a span probe by name. Idempotent. *)
val probe : string -> probe

(** A recorder: a set of per-lane calling-context trees. *)
type t

val create : unit -> t

(** [run t ~lane f] runs [f] with [t] installed as the ambient
    recorder, recording into a fresh context for [lane].
    Nested runs save and restore the outer recorder. Lane ids must be
    chosen deterministically (e.g. the task index of a pool fan-out);
    contexts sharing a lane id are merged at export. *)
val run : t -> ?lane:int -> (unit -> 'a) -> 'a

(** True iff any recorder is active anywhere (one atomic load). Spans
    sit at coarse grain only (a run, a simulation loop, a Libra cycle,
    an RL forward, a pool fan-out, an experiment); per-event counts
    come from [Netsim.Sim.dispatched] and the invariant checker. *)
val enabled : unit -> bool

(** [timed p f] runs [f] inside a span for [p] on the ambient recorder
    (no-op without one). Exception-safe: the span closes on raise. *)
val timed : probe -> (unit -> 'a) -> 'a

(** Lanes in ascending lane order, one JSON span-tree list per lane.
    Node shape: [{"name","count","total_s","self_s","minor_words",
    "major_words","children"}]; children in first-entry order. *)
val lanes_json : t -> (int * Json.t) list

(** Deterministic structure digest: lane ids, span names, nesting and
    counts — no durations, no GC words. Byte-identical at any pool
    size. *)
val structure : t -> string
