(** The shell every window-based CCA shares: the window and slow-start
    threshold, the RTT estimator, the one-reduction-per-RTT recovery
    gate, the pacing rule and the Libra embedding. A window CCA is only
    its control law: an ACK and a loss callback over a {!t}
    ([lib/classic/reno.ml] is the pattern). *)

type t = {
  mutable cwnd : float;  (** packets *)
  mutable ssthresh : float;  (** packets *)
  mutable recovery_until : float;  (** end of the current recovery, s *)
  rtt : Netsim.Cca.Rtt_tracker.tracker;
}

(** Packet size the window counts in, bytes (the MTU). *)
val mss : float

(** A fresh window: 10 packets and no slow-start threshold unless
    given. *)
val create : ?cwnd:float -> ?ssthresh:float -> unit -> t

(** Smoothed and minimum RTT, seconds (100 ms before the first
    sample). *)
val srtt : t -> float

val min_rtt : t -> float

(** [now >= recovery_until]: the last reduction is an RTT old, so the
    window may grow and a loss may reduce it again. *)
val recovered : t -> now:float -> bool

(** Start a recovery period of one smoothed RTT from [now]. *)
val enter_recovery : t -> now:float -> unit

(** [grow w incr]: one packet per ACK below the slow-start threshold,
    [incr / cwnd] above it ([incr] packets per RTT). *)
val grow : t -> float -> unit

(** The CCA record over a law. Each ACK feeds the RTT sample to the
    estimator before [on_ack] runs. Pacing is 1.2 * cwnd * MTU / srtt,
    so sending stays ACK-clocked; the window query returns [cwnd]. *)
val cca :
  name:string ->
  t ->
  on_ack:(Netsim.Cca.ack_info -> unit) ->
  on_loss:(Netsim.Cca.loss_info -> unit) ->
  Netsim.Cca.t

(** The law as a Libra subroutine (paper Sec. 4.3): rate = cwnd * MTU /
    srtt, and setting a rate rewrites the window (floored at 2 packets)
    through [set_cwnd] (default: assign [cwnd]). The exploration stage
    lasts 1 RTT. *)
val embedded : ?set_cwnd:(float -> unit) -> t -> Netsim.Cca.t -> Embedded.t
