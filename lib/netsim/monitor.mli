(** Monitor-interval accumulator: throughput, average RTT, RTT slope
    (least squares) and loss rate between resets. Rate-based schemes
    (Libra's evaluation stage, PCC, RL agents) judge candidate rates
    with these statistics. *)

type t

type snapshot = {
  duration : float;
  throughput : float;  (** bytes/s *)
  avg_rtt : float;  (** seconds; [nan] when no ACK arrived *)
  min_rtt : float;
  rtt_gradient : float;  (** d RTT / dt over the interval *)
  rtt_grad_se : float;  (** standard error of the slope estimate *)
  loss_rate : float;
  acked : int;
  lost_pkts : int;
}

val create : now:float -> t
val reset : t -> now:float -> unit
val on_ack : t -> Cca.ack_info -> unit

(** Account losses detected by timeout (no ACK carries them). *)
val on_timeout_loss : t -> pkts:int -> unit

val snapshot : t -> now:float -> snapshot
