(* CUBIC (Ha, Rhee, Xu 2008), the Linux default and the paper's primary
   underlying classic CCA (C-Libra).

   The window grows along W(t) = C (t - K)^3 + W_max between loss
   events, where K = cbrt(W_max (1 - beta) / C), so that the window
   plateaus near the last saturation point and then probes beyond it.
   A TCP-friendly lower envelope keeps it no slower than AIMD at small
   BDPs. The epoch state sits over a [Window.t], which keeps the window
   itself, the RTT estimate, the recovery gate and pacing. *)

let c = 0.4
let beta = 0.7

type t = {
  w : Window.t;
  mutable w_max : float;
  mutable epoch_start : float;  (* nan when no epoch is active *)
  mutable k : float;
  mutable origin : float;
}

let create w = { w; w_max = 0.0; epoch_start = nan; k = 0.0; origin = 0.0 }

(* Impose a window from outside (Orca's agent) and restart the cubic
   epoch from the new operating point. *)
let set_cwnd t cwnd =
  t.w.cwnd <- Float.max 2.0 cwnd;
  t.epoch_start <- nan

(* The cubic curve itself; exposed for unit tests. *)
let w_cubic ~c ~k ~origin elapsed = (c *. ((elapsed -. k) ** 3.0)) +. origin

let start_epoch t ~now =
  t.epoch_start <- now;
  if t.w.cwnd < t.w_max then begin
    t.k <- Float.cbrt ((t.w_max -. t.w.cwnd) /. c);
    t.origin <- t.w_max
  end
  else begin
    t.k <- 0.0;
    t.origin <- t.w.cwnd
  end

let on_ack t (ack : Netsim.Cca.ack_info) =
  let w = t.w in
  if Window.recovered w ~now:ack.now then begin
    if w.cwnd < w.ssthresh then w.cwnd <- w.cwnd +. 1.0
    else begin
      if Float.is_nan t.epoch_start then start_epoch t ~now:ack.now;
      let rtt = Window.srtt w in
      let elapsed = ack.now -. t.epoch_start +. rtt in
      let target = w_cubic ~c ~k:t.k ~origin:t.origin elapsed in
      if target > w.cwnd then w.cwnd <- w.cwnd +. ((target -. w.cwnd) /. w.cwnd)
      else w.cwnd <- w.cwnd +. (0.01 /. w.cwnd);
      (* TCP-friendly region (standard W_est envelope). *)
      let friendliness = 3.0 *. (1.0 -. beta) /. (1.0 +. beta) in
      let w_est =
        (t.origin *. beta)
        +. (friendliness *. (ack.now -. t.epoch_start) /. Float.max 1e-3 rtt)
      in
      if w_est > w.cwnd then w.cwnd <- w_est
    end
  end

let on_loss t (loss : Netsim.Cca.loss_info) =
  let w = t.w in
  if Window.recovered w ~now:loss.now then begin
    t.w_max <- w.cwnd;
    (match loss.kind with
    | Netsim.Cca.Gap_detected ->
      w.cwnd <- Float.max 2.0 (w.cwnd *. beta);
      w.ssthresh <- w.cwnd
    | Netsim.Cca.Timeout ->
      w.ssthresh <- Float.max 2.0 (w.cwnd *. beta);
      w.cwnd <- 2.0);
    t.epoch_start <- nan;
    Window.enter_recovery w ~now:loss.now
  end

let as_cca t = Window.cca ~name:"cubic" t.w ~on_ack:(on_ack t) ~on_loss:(on_loss t)
let make () = as_cca (create (Window.create ()))

let embedded () =
  let t = create (Window.create ()) in
  (* Restart the cubic epoch only when the imposed operating point
     actually moved: when Libra adopts CUBIC's own decision cycle after
     cycle, the epoch keeps accumulating and the window curve
     accelerates past its plateau, preserving CUBIC's multi-second
     aggressiveness inside 100ms control cycles. *)
  let set_cwnd cwnd =
    if Float.abs (cwnd -. t.w.cwnd) > 0.05 *. t.w.cwnd then t.epoch_start <- nan;
    t.w.cwnd <- cwnd
  in
  Window.embedded ~set_cwnd t.w (as_cca t)
