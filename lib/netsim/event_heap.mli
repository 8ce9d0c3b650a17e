(** Binary min-heap of timed events, ties broken by ticket.

    Every entry carries a ticket, a sequence number from the heap's
    counter; events scheduled for the same instant pop in ticket order,
    which keeps simulations deterministic. {!push} takes the next ticket,
    so plain pushes pop FIFO on ties; {!ticket} and {!push_ticket} split
    that into reserving a ticket now and pushing with it later.

    An event is an int [kind] plus two int operands; the simulator
    dispatches it through its handler table ({!Sim.register}). The heap
    is struct-of-arrays, and [push]/[pop_into] allocate nothing. *)

type t

val create : unit -> t

(** Number of pending events. *)
val size : t -> int

val is_empty : t -> bool

(** Pre-size the arrays to hold at least [n] entries (benchmarks use
    this to keep growth out of measured windows). *)
val reserve : t -> int -> unit

(** [push t ~time ~kind ~a ~b] schedules event [kind] with operands
    [a] and [b] at [time], under the next ticket. Allocation-free. *)
val push : t -> time:float -> kind:int -> a:int -> b:int -> unit

(** Take the next ticket without pushing anything. *)
val ticket : t -> int

(** [push_ticket t ~time ~ticket ~kind ~a ~b] is {!push} under a ticket
    taken earlier with {!ticket}. The entry is ordered by [(time,
    ticket)] like any other, even when [ticket] is older than tickets
    already queued for [time]. Push each reserved ticket at most once
    at a time; the heap does not check. Allocation-free. *)
val push_ticket : t -> time:float -> ticket:int -> kind:int -> a:int -> b:int -> unit

exception Empty

(** Time of the earliest event, without removing it; raises [Empty] on
    an empty heap. *)
val top_time : t -> float

(** Remove the earliest event into the scratch slot (read it back with
    the [scratch_*] accessors before the next pop); raises [Empty] on an
    empty heap. Allocation-free. *)
val pop_into : t -> unit

val scratch_time : t -> float
val scratch_seq : t -> int
val scratch_kind : t -> int
val scratch_a : t -> int
val scratch_b : t -> int
