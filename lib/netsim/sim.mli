(** Discrete-event simulation clock and scheduler.

    Every event has one shape: a {!kind} plus two int operands, held in
    one time-ordered heap. A component registers a handler per kind of
    event it schedules ({!register}); {!run} dispatches each event to
    its kind's handler with the two operands. Any number of components
    (flow tables, links, arrival processes) register on one simulation.
    Scheduling and dispatching an event allocates nothing, which is what
    lets one simulation carry thousands of flows (see {!Flow_table}). *)

type t

(** An index into a simulation's handler table, as {!register} hands
    them out (0, 1, 2, ...). *)
type kind = int

val create : unit -> t

(** Current simulation time in seconds. *)
val now : t -> float

(** [register t handler] appends [handler] to the table and returns its
    kind; an event of that kind runs [handler a b]. *)
val register : t -> (int -> int -> unit) -> kind

(** [at t time ~kind ~a ~b] schedules an event of [kind] with operands
    [a] and [b] at absolute [time]. Requires [time >= now t].
    Allocation-free. *)
val at : t -> float -> kind:kind -> a:int -> b:int -> unit

(** [after t delay ~kind ~a ~b] schedules it at [now t +. delay]. *)
val after : t -> float -> kind:kind -> a:int -> b:int -> unit

(** Events executed so far across all {!run} calls — the logical
    work metric the events-per-sec bench lane reports. *)
val events : t -> int

(** Pre-size the event heap (keeps growth out of benchmark windows). *)
val reserve : t -> int -> unit

(** Abort the event loop after the current event. *)
val stop : t -> unit

(** [run t ~until] processes events in time order until the queue is
    empty or the horizon is reached; the clock finishes at [until]. An
    event whose kind has no handler in this table raises
    [Invalid_argument]. *)
val run : t -> until:float -> unit
