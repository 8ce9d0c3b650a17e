(** Libra's utility function (Eq. 1 of the paper):

    u(x) = alpha * x^t - beta * x * max(0, dRTT/dt) - gamma * x * L

    with [0 < t < 1] and positive weights. Rates are in Mbit/s, as in
    the PCC family the constants were tuned for. Concavity in the
    sender's own rate gives the unique fair Nash equilibrium of the
    paper's Theorem 4.1. *)

type params = { t_exp : float; alpha : float; beta : float; gamma : float }

(** The paper's defaults: t = 0.9, alpha = 1, beta = 900, gamma = 11.35. *)
val default : params

(** Fig. 11 preference presets: throughput-oriented double/triple alpha,
    latency-oriented double/triple beta. *)
val throughput_1 : params

val throughput_2 : params
val latency_1 : params
val latency_2 : params

(** Named presets: "default", "Th-1", "Th-2", "La-1", "La-2". *)
val presets : (string * params) list

(** Pure form on already-extracted statistics; a negative RTT gradient
    counts as zero. Requires [0 < t_exp < 1]. *)
val eval_raw :
  params -> rate_mbps:float -> rtt_gradient:float -> loss_rate:float -> float

(** Utility of a measured interval at the given sending rate (bytes/s). *)
val eval : params -> rate_bps:float -> Netsim.Monitor.snapshot -> float

(** Like {!eval_raw} but taking an already-detrended, signed RTT slope
    (no clipping); used by the controller's ambient-noise de-biasing. *)
val eval_signed :
  params -> rate_mbps:float -> rtt_gradient:float -> loss_rate:float -> float

(** Closed-form fluid-model utility used by the convergence analysis
    (Appendix A): [n] senders sharing capacity [capacity], this sender
    at [x], the others totalling [others] (all Mbit/s). *)
val fluid : params -> x:float -> others:float -> capacity:float -> float
