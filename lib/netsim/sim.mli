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

(** {2 Tickets}

    Events due at the same instant run in the order of their tickets,
    which {!at} takes from one counter as it pushes. A timer that is
    re-armed far more often than it fires can instead take a ticket at
    each arm with {!ticket} and push with {!at_ticket} only when the
    deadline moves earlier than its pending event; when that event pops
    early it re-pushes itself under the latest arm's time and ticket.
    The timer then runs at exactly the (time, ticket) key that pushing
    on every arm gives it, ahead of or behind every other event as
    before, while the heap holds one entry for it instead of one per
    arm. *)

(** Take the next ticket without scheduling anything. Take it where a
    push would have taken it: every ticket taken shifts the order of
    later same-instant events. *)
val ticket : t -> int

(** [at_ticket t time ~ticket ~kind ~a ~b] schedules an event under a
    ticket taken earlier with {!ticket}. Requires [time >= now t]; the
    event always goes into the heap, since its ticket may be older than
    those of events already due at [time]. Allocation-free. *)
val at_ticket : t -> float -> ticket:int -> kind:kind -> a:int -> b:int -> unit

(** Events executed so far across all {!run} calls — the logical
    work metric the events-per-sec bench lane reports, and the unit
    {!Budget} charges. A lazily moved timer counts only the events it
    pushes, not its re-arms. *)
val events : t -> int

(** Number of kinds registered so far; kinds are [0 .. kinds t - 1]. *)
val kinds : t -> int

(** [dispatched t kind] is the number of events of [kind] executed so
    far across all {!run} calls; they sum to {!events}. *)
val dispatched : t -> kind -> int

(** Pre-size the event heap (keeps growth out of benchmark windows). *)
val reserve : t -> int -> unit

(** [run t ~until] processes events in time order until the queue is
    empty or the next event lies past [until]; the clock finishes at
    [until]. Events past the horizon stay queued, so [run ~until:t1]
    then [run ~until:t2] runs the same events as [run ~until:t2]. An
    event whose kind has no handler in this table raises
    [Invalid_argument]. *)
val run : t -> until:float -> unit
