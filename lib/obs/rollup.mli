(** Fixed-window rollups of the trace event stream.

    A rollup folds events into aggregates over fixed sim-time windows
    — per-link queue depth min/mean/max, drop and delivery counts,
    delivered bytes, per-flow pacing-rate aggregates and Libra utility
    triples — in O(1) per event, allocating nothing on the per-event
    path (one small row record per *completed window*, amortized away
    by the thousands of events each window covers). Installed as a
    [Trace.run ~observer] it sees exactly the events the tracer
    admits, so a rollup recomputed offline from the full exported
    trace bit-agrees with the online one (the qcheck property in
    test_obs enforces this).

    Windows are indexed on the sim clock ([floor (t / window)]); a
    [Run_start] marker closes the open window and restarts indexing
    under the next run number, so lanes that run several simulations
    back-to-back stay segmentable. Events stamped outside the sim
    clock (harness records at t=0) fold into whatever window is
    currently open rather than reopening an old one.

    Exports are merged in ascending lane order like trace exports —
    byte-identical at any pool size. *)

type t

type row = {
  run : int;  (* 0-based run (Run_start marker) index within the lane *)
  window : int;  (* window index within the run *)
  t0 : float;
  t1 : float;  (* window bounds: [t0, t1) on the sim clock *)
  events : int;  (* every event observed, structural included *)
  enq : int;
  deq : int;
  drops : int;
  delivered : int;  (* bytes leaving the link *)
  q_min : int;
  q_mean : float;
  q_max : int;  (* queue-backlog samples at enqueue/dequeue, bytes *)
  acks : int;
  lost : int;
  rate_mean : float;
  rate_max : float;  (* flow pacing rates, bytes/s; nan when no sample *)
  mi_tput_mean : float;  (* monitor-interval throughput, bytes/s *)
  u_prev_mean : float;
  u_rl_mean : float;
  u_cl_mean : float;  (* Libra utility triples (finite samples only) *)
  cycles : int;
}

(** [create ?window ()] aggregates over [window]-second sim-time
    windows (default 0.1; must be positive). *)
val create : ?window:float -> unit -> t

val window : t -> float

(** Fold one event — the [Trace.run ~observer] hook (composes with the
    invariant checker by chaining). *)
val observe : t -> Event.t -> unit

(** Completed windows in order. Only windows that saw at least one
    event produce rows. The currently open window is not included —
    call {!flush} first to close it (exporters do). *)
val rows : t -> row list

(** Number of completed windows. *)
val windows : t -> int

(** Close the currently open window, if any. Idempotent. *)
val flush : t -> unit

(** CSV header for {!add_csv} rows (leading [lane] column). *)
val csv_header : string

(** Append one CSV row per completed window (flushes first). *)
val add_csv : t -> lane:int -> Buffer.t -> unit

(** Append one JSON object per completed window (flushes first). *)
val add_jsonl : t -> lane:int -> Buffer.t -> unit

(** [write ?manifest ~lanes path] merges per-lane rollups in ascending
    lane order and writes CSV ([.csv]) or JSONL (anything else; opens
    with the manifest header line when given, like trace exports). *)
val write : ?manifest:Json.t -> lanes:(int * t) list -> string -> unit

(** Ambient rollup for the current task, so experiments can report
    windowed aggregates without plumbing: [with_ambient t f] installs
    [t] for the duration of [f]; [ambient ()] reads it. Pool tasks
    inherit it read-only: it has not yet folded their own events,
    which reach it at the join. *)
val with_ambient : t -> (unit -> 'a) -> 'a

val ambient : unit -> t option
