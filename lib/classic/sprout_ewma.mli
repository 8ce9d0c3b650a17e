(** Sprout-EWMA, Pantheon's simplified Sprout baseline: forecast the
    delivery rate with an EWMA and size the window to keep queueing
    delay within a target budget. *)

type t

val create : unit -> t

(** Current delivery-rate forecast, bytes/s. *)
val rate_ewma : t -> float

val cwnd : t -> float

val on_ack : t -> Netsim.Cca.ack_info -> unit
val on_loss : t -> Netsim.Cca.loss_info -> unit

val as_cca : t -> Netsim.Cca.t
val make : unit -> Netsim.Cca.t
