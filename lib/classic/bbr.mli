(** BBR (Cardwell et al. 2017): model-based congestion control pacing
    at gain * btl_bw with inflight capped at cwnd_gain * BDP, with the
    BBRv1 state machine (STARTUP / DRAIN / PROBE_BW / PROBE_RTT). *)

type mode = Startup | Drain | Probe_bw | Probe_rtt

type t

val create : unit -> t

val mode : t -> mode

(** Bottleneck-bandwidth estimate (windowed max of delivery-rate
    samples), bytes/s. *)
val btl_bw : t -> now:float -> float

(** Round-trip propagation estimate (windowed min RTT), seconds. *)
val rtprop : t -> now:float -> float

(** Current pacing rate, bytes/s. *)
val pacing : t -> now:float -> float

val cwnd : t -> now:float -> float

val on_ack : t -> Netsim.Cca.ack_info -> unit
val on_loss : t -> Netsim.Cca.loss_info -> unit

val as_cca : t -> Netsim.Cca.t
val make : unit -> Netsim.Cca.t

(** BBR as a Libra subroutine: 3-RTT exploration stage (the first
    three RTTs of its probing loop, Sec. 4.3 of the paper). *)
val embedded : unit -> Embedded.t
