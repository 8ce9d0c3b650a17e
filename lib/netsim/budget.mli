(** Deterministic execution budgets.

    A budget bounds work in logical units (sim events, train steps),
    never wall clock, so expiry is bit-reproducible across machines and
    pool sizes. Ticking sites — the sim event loop, the RL trainer's
    step loop — call {!tick}, a single atomic load + branch when no
    budget is installed anywhere. *)

(** Raised by {!tick} when the installed event budget is exhausted. *)
exception Exceeded of { spent : int; budget : int }

(** Raised by {!tick} when the optional wall-clock ceiling passed. Its
    expiry point is nondeterministic by nature; supervisors record it
    but keep it out of determinism digests. *)
exception Wall_exceeded of { budget_s : float }

(** [with_budget ?events ?wall_s f] runs [f] with a fresh countdown
    budget installed: [events] logical ticks and/or a
    [wall_s]-second wall ceiling (checked every 4096 ticks). With
    neither argument this is just [f ()]. Nested budgets shadow the
    outer one; the outer budget is not charged for inner ticks, nor for
    [Exec.Pool] tasks, which start with the budget masked. *)
val with_budget : ?events:int -> ?wall_s:float -> (unit -> 'a) -> 'a

(** Charge one logical unit against the ambient budget, if any. One
    atomic load + branch when no budget is installed anywhere. *)
val tick : unit -> unit

(** Ticks charged to the ambient budget so far ([None] outside
    {!with_budget}). *)
val spent : unit -> int option
