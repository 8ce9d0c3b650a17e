(** CoDel AQM's control law (Nichols & Jacobson 2012): head-drop when
    packet sojourn time has exceeded a 5 ms target for at least a
    100 ms interval, accelerating as 1/sqrt(count). The law holds no
    packets: the link keeps both disciplines' packets in one ring and
    asks [drop] about each head it pops. Used by the extension bench to
    compare CUBIC+CoDel against Libra's end-to-end delay control. *)

type t

val create : unit -> t

(** [drop t ~now ~sojourn ~backlog] decides the head just popped:
    [true] drops it (the link then pops the next head and asks again).
    [sojourn] is [now] minus its admission time, [backlog] the bytes
    still queued after the pop. Inlined, so the float arguments stay
    unboxed. *)
val drop : t -> now:float -> sojourn:float -> backlog:int -> bool

(** The queue ran empty at dequeue: leave the dropping state. *)
val reset : t -> unit
