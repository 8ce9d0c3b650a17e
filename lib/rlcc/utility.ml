(* Libra's utility function (Eq. 1):

     u(x) = alpha * x^t - beta * x * max(0, dRTT/dt) - gamma * x * L

   with 0 < t < 1 and alpha, beta, gamma > 0, evaluated on the
   statistics gathered over an evaluation interval. Rates are expressed
   in Mbit/s as in the PCC family, matching the paper's constants
   (t = 0.9, alpha = 1, beta = 900, gamma = 11.35).

   Concavity in x (t < 1) gives the unique fair Nash equilibrium of
   Theorem 4.1; the preference presets below rescale alpha (throughput-
   oriented) or beta (latency-oriented) exactly as the paper's
   flexibility experiments (Fig. 11) do.

   This is the one copy of Eq. 1: Libra's controller scores its
   candidate rates with it, PCC Vivace and Proteus their monitor
   intervals, and the Modified-RL baseline's reward is it on normalised
   throughput. *)

type params = { t_exp : float; alpha : float; beta : float; gamma : float }

let default = { t_exp = 0.9; alpha = 1.0; beta = 900.0; gamma = 11.35 }

(* Fig. 11's preference variants. *)
let throughput_1 = { default with alpha = 2.0 *. default.alpha }
let throughput_2 = { default with alpha = 3.0 *. default.alpha }
let latency_1 = { default with beta = 2.0 *. default.beta }
let latency_2 = { default with beta = 3.0 *. default.beta }

let presets =
  [
    ("default", default);
    ("Th-1", throughput_1);
    ("Th-2", throughput_2);
    ("La-1", latency_1);
    ("La-2", latency_2);
  ]

(* Pure form taking an already-detrended, signed RTT slope: Libra's
   controller subtracts the flow's ambient slope before scoring, and
   clipping the result at zero would bias the comparison (see
   Controller). Loss is expected already non-negative. *)
let eval_signed params ~rate_mbps ~rtt_gradient ~loss_rate =
  assert (params.t_exp > 0.0 && params.t_exp < 1.0);
  let x = Float.max 0.0 rate_mbps in
  (params.alpha *. (x ** params.t_exp))
  -. (params.beta *. x *. rtt_gradient)
  -. (params.gamma *. x *. loss_rate)

(* Eq. 1 as written, on already-extracted statistics: only a rising
   RTT is penalised. Property tests exercise concavity and
   monotonicity on this. *)
let eval_raw params ~rate_mbps ~rtt_gradient ~loss_rate =
  eval_signed params ~rate_mbps ~rtt_gradient:(Float.max 0.0 rtt_gradient) ~loss_rate

(* Utility of an interval in the packet simulator. *)
let eval params ~rate_bps (snap : Netsim.Monitor.snapshot) =
  eval_raw params
    ~rate_mbps:(Netsim.Units.bps_to_mbps rate_bps)
    ~rtt_gradient:snap.Netsim.Monitor.rtt_gradient
    ~loss_rate:snap.Netsim.Monitor.loss_rate

(* The closed-form fluid-model utility used by the convergence proof
   (Appendix A): under a droptail queue with n senders totalling S on
   capacity C, L = max(0, 1 - C/S) and dRTT/dt = max(0, (S-C)/C). *)
let fluid params ~x ~others ~capacity =
  let s = x +. others in
  let loss = if s >= capacity then 1.0 -. (capacity /. s) else 0.0 in
  let grad = Float.max 0.0 ((s -. capacity) /. capacity) in
  eval_raw params ~rate_mbps:x ~rtt_gradient:grad ~loss_rate:loss
