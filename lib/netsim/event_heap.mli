(** Binary min-heap of timed events with FIFO tie-breaking.

    Events scheduled for the same instant fire in insertion order, which
    keeps simulations deterministic.

    An event is an int [kind] plus two int operands; the simulator
    dispatches it through its handler table ({!Sim.register}). The heap
    is struct-of-arrays, and [push]/[pop_into] allocate nothing when
    span profiling is disabled. *)

type t

val create : unit -> t

(** Number of pending events. *)
val size : t -> int

val is_empty : t -> bool

(** Pre-size the arrays to hold at least [n] entries (benchmarks use
    this to keep growth out of measured windows). *)
val reserve : t -> int -> unit

(** [push t ~time ~kind ~a ~b] schedules event [kind] with operands
    [a] and [b] at [time]. Allocation-free. *)
val push : t -> time:float -> kind:int -> a:int -> b:int -> unit

exception Empty

(** Remove the earliest event into the scratch slot (read it back with
    the [scratch_*] accessors before the next pop); raises [Empty] on an
    empty heap. Allocation-free. *)
val pop_into : t -> unit

val scratch_time : t -> float
val scratch_seq : t -> int
val scratch_kind : t -> int
val scratch_a : t -> int
val scratch_b : t -> int
