(** Supervised execution: crash isolation, deterministic deadlines and
    bounded retries.

    {!protect} turns exceptions from a harness task into structured
    {!failure} values, optionally bounding the task by a deterministic
    logical budget ([Netsim.Budget] ticks: sim events / train steps)
    and retrying with a bit-reproducible recorded backoff schedule. *)

type kind =
  | Crash  (** the protected thunk raised *)
  | Deadline of { spent : int; budget : int }
      (** the logical event budget was exhausted — deterministic *)
  | Wall of { budget_s : float }
      (** the optional wall-clock backstop fired — nondeterministic,
          excluded from {!digest} *)
  | Invariant of { spec : string; index : int; count : int }
      (** the online invariant checker recorded violations
          ([Check.Checker.Violation_error]): [spec]/[index] identify
          the first, [count] the total *)
  | Corrupt of { path : string; fault : string }
      (** a host fault surfaced ([Chaos.Io.Fault]): [fault] names the
          class (torn/enospc/eio), [path] the file it hit. [path] is
          host-chosen and excluded from {!digest}. *)

type failure = {
  context : string;
  exn : string;
  backtrace : string;  (** 16-hex digest of the backtrace, or ["none"] *)
  attempts : int;
  backoffs : float list;  (** recorded (never slept) schedule, seconds *)
  kind : kind;
  flight : (string * int) option;
      (** flight-recorder dump written on the final failed attempt —
          [(path, event count)]; [None] when no [Obs.Flight] ring was
          installed for the task. Byte-stable across pool sizes, but
          excluded from {!digest} (the dump directory is
          host-chosen). *)
}

(** [protect ?retries ?deadline_events ?wall_s ?seed ~context f] runs
    [f ~attempt:1] (attempts are 1-based) under a fresh budget, retrying
    up to [retries] more times on any exception. Each retry derives a
    recorded backoff from [Rng.split_key] on [seed] (default 0) and the
    attempt number, so the whole schedule — and hence the final report —
    is a function of [seed] alone. Emits [harness] trace events
    ([retry], then [failure]/[deadline]) when a tracer is installed. *)
val protect :
  ?retries:int ->
  ?deadline_events:int ->
  ?wall_s:float ->
  ?seed:int ->
  context:string ->
  (attempt:int -> 'a) ->
  ('a, failure) result

(** Trace-event kind for a failure: ["failure"] for crashes,
    ["deadline"] for budget or wall expiry, ["violation"] for invariant
    violations, ["corrupt"] for host faults. *)
val kind_name : kind -> string

(** Deterministic 16-hex digest of a failure. Covers context, kind,
    exception text, attempts and the backoff schedule — but none of the
    wall-clock backstop's host-dependent parameters. *)
val digest : failure -> string

(** Report lines describing the failure (deterministic modulo the
    exception's own rendering). Four lines, plus a fifth naming the
    flight-recorder dump when one was written. *)
val render : failure -> string list
