(* Monitor-interval accumulator.

   Rate-based schemes (Libra's evaluation stage, PCC, the RL agents)
   judge a sending rate by what happened during an interval: achieved
   throughput, average RTT, RTT gradient (d RTT / dt, by least squares),
   and loss rate. This helper accumulates those statistics between
   resets. *)

type t = {
  mutable started_at : float;
  mutable acked_bytes : int;
  mutable acks : int;
  mutable lost : int;
  mutable rtt_sum : float;
  mutable rtt_min : float;
  (* Least-squares accumulators for the RTT-over-time slope; the count
     is [acks] and the RTT sum is [rtt_sum]. *)
  mutable sum_t : float;
  mutable sum_tr : float;
  mutable sum_tt : float;
  mutable sum_rr : float;
}

type snapshot = {
  duration : float;
  throughput : float;  (* bytes/s *)
  avg_rtt : float;  (* seconds; nan when no ACK *)
  min_rtt : float;
  rtt_gradient : float;  (* d RTT / dt, dimensionless *)
  rtt_grad_se : float;  (* standard error of the slope estimate *)
  loss_rate : float;
  acked : int;
  lost_pkts : int;
}

let create ~now =
  {
    started_at = now;
    acked_bytes = 0;
    acks = 0;
    lost = 0;
    rtt_sum = 0.0;
    rtt_min = infinity;
    sum_t = 0.0;
    sum_tr = 0.0;
    sum_tt = 0.0;
    sum_rr = 0.0;
  }

let reset t ~now =
  t.started_at <- now;
  t.acked_bytes <- 0;
  t.acks <- 0;
  t.lost <- 0;
  t.rtt_sum <- 0.0;
  t.rtt_min <- infinity;
  t.sum_t <- 0.0;
  t.sum_tr <- 0.0;
  t.sum_tt <- 0.0;
  t.sum_rr <- 0.0

let on_ack t (ack : Cca.ack_info) =
  t.acked_bytes <- t.acked_bytes + ack.acked_bytes;
  t.acks <- t.acks + 1;
  t.lost <- t.lost + ack.newly_lost;
  t.rtt_sum <- t.rtt_sum +. ack.rtt;
  if ack.rtt < t.rtt_min then t.rtt_min <- ack.rtt;
  (* Centre timestamps on the interval start for numerical stability. *)
  let x = ack.now -. t.started_at in
  t.sum_t <- t.sum_t +. x;
  t.sum_tr <- t.sum_tr +. (x *. ack.rtt);
  t.sum_tt <- t.sum_tt +. (x *. x);
  t.sum_rr <- t.sum_rr +. (ack.rtt *. ack.rtt)

let on_timeout_loss t ~pkts = t.lost <- t.lost + pkts

(* Emit the snapshot on the trace stream, when subscribed. *)
let publish ~now snap =
  if Obs.Trace.on Obs.Category.Monitor then
    Obs.Trace.emit
      (Obs.Event.Mi_snapshot
         {
           t = now;
           duration = snap.duration;
           throughput = snap.throughput;
           avg_rtt = snap.avg_rtt;
           loss_rate = snap.loss_rate;
           rtt_gradient = snap.rtt_gradient;
           acked = snap.acked;
           lost = snap.lost_pkts;
         });
  snap

let snapshot t ~now =
  let duration = now -. t.started_at in
  if duration <= 0.0 then
    (* Zero-length interval (a snapshot taken at the reset instant, or
       a clock that has not advanced): no byte or time denominator is
       meaningful, so return explicit zeros/nan instead of dividing. *)
    publish ~now
      {
        duration = 0.0;
        throughput = 0.0;
        avg_rtt = (if t.acks = 0 then nan else t.rtt_sum /. float_of_int t.acks);
        min_rtt = t.rtt_min;
        rtt_gradient = 0.0;
        rtt_grad_se = infinity;
        loss_rate = 0.0;
        acked = t.acks;
        lost_pkts = t.lost;
      }
  else begin
  let duration = Float.max 1e-9 duration in
  let throughput = float_of_int t.acked_bytes /. duration in
  let avg_rtt = if t.acks = 0 then nan else t.rtt_sum /. float_of_int t.acks in
  let n = float_of_int t.acks in
  let denom = (n *. t.sum_tt) -. (t.sum_t *. t.sum_t) in
  let rtt_gradient =
    if t.acks < 2 || Float.abs denom < 1e-12 then 0.0
    else ((n *. t.sum_tr) -. (t.sum_t *. t.rtt_sum)) /. denom
  in
  (* Standard error of the least-squares slope: residual variance over
     the spread of the regressor. Decision code uses it to ignore
     slopes indistinguishable from measurement noise. *)
  let rtt_grad_se =
    if t.acks < 3 || Float.abs denom < 1e-12 then infinity
    else begin
      let sxx = denom /. n in
      let mean_r = t.rtt_sum /. n in
      let ss_tot = t.sum_rr -. (n *. mean_r *. mean_r) in
      let ss_reg = rtt_gradient *. rtt_gradient *. sxx in
      let ss_res = Float.max 0.0 (ss_tot -. ss_reg) in
      let var_resid = ss_res /. (n -. 2.0) in
      (* Slope variance = residual variance / Sxx, flooring the
         residual at packet-serialization jitter (~0.1 ms of RTT) so a
         perfectly linear handful of samples is not treated as
         infinitely precise. *)
      let var_resid = Float.max var_resid 1e-8 in
      sqrt (var_resid /. Float.max 1e-12 sxx)
    end
  in
  let total = t.lost + t.acks in
  let loss_rate =
    if total = 0 then 0.0 else float_of_int t.lost /. float_of_int total
  in
  publish ~now
    {
      duration;
      throughput;
      avg_rtt;
      min_rtt = t.rtt_min;
      rtt_gradient;
      rtt_grad_se;
      loss_rate;
      acked = t.acks;
      lost_pkts = t.lost;
    }
  end
