(** The congestion-control interface.

    Every algorithm in the repository -- classic, learning-based, and
    the Libra framework itself -- is a {!t}: callbacks invoked by the
    sending endpoint plus the two knobs the sender obeys (pacing rate,
    congestion window). Window-based schemes expose a finite [cwnd] and
    an over-provisioned pacing rate so sending stays ACK-clocked;
    rate-based schemes expose a finite [pacing_rate] and a generous
    window. *)

type ack_info = {
  now : float;
  seq : int;  (** sequence number of the acknowledged packet *)
  rtt : float;  (** this packet's measured RTT, seconds *)
  acked_bytes : int;
  inflight : int;  (** packets still in flight after this ACK *)
  delivered_bytes : int;  (** flow-cumulative *)
  rate_sample : float;  (** BBR-style delivery-rate sample, bytes/s *)
  newly_lost : int;  (** packets declared lost while processing this ACK *)
}

type loss_kind = Gap_detected | Timeout

type loss_info = { now : float; lost : int; kind : loss_kind; inflight : int }

type send_info = { now : float; seq : int; size : int; inflight : int }

type t = {
  name : string;
  on_ack : ack_info -> unit;
  on_loss : loss_info -> unit;
  on_send : send_info -> unit;
  pacing_rate : now:float -> float;  (** bytes/s *)
  cwnd : now:float -> float;  (** packets *)
}

(** An effectively unlimited window, for rate-based senders. *)
val no_window : float

(** Inflight cap for rate-based senders, packets: one BDP at [rate]
    (bytes/s) over [min_rtt] plus 250 ms of slack, at least 4. *)
val rate_cwnd : rate:float -> min_rtt:float -> float

(** Unresponsive constant-bit-rate source (UDP cross traffic), named
    ["cbr"]. *)
val constant_rate : float -> t

(** Standard smoothed-RTT / RTT-variance / minimum tracking. *)
module Rtt_tracker : sig
  type tracker

  val create : unit -> tracker
  val observe : tracker -> float -> unit

  (** Estimates default to 100 ms before the first sample. *)
  val srtt : tracker -> float

  val min_rtt : tracker -> float
  val rttvar : tracker -> float
  val samples : tracker -> int
end

(** Sliding-window maximum via a monotonic deque (O(1) amortised);
    negate samples for a windowed minimum. Used by BBR's bandwidth and
    RTT filters. *)
module Windowed_max : sig
  type wmax

  val create : window:float -> wmax
  val observe : wmax -> now:float -> float -> unit

  (** Maximum over the window; 0 when empty. *)
  val get : wmax -> now:float -> float

  (** Forget all samples. *)
  val reset : wmax -> unit
end
