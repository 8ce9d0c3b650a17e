(* TCP Westwood+ : AIMD whose decrease step is informed by a bandwidth
   estimate -- on loss the window is set to the estimated BDP instead
   of half, which makes it robust to random (non-congestion) loss.
   The paper's Sec. 7 names Westwood as a classic CCA its parameter
   guidelines extend to; Libra embeds it like every window law
   ([Window.embedded], 1-RTT exploration). *)

let as_cca (w : Window.t) =
  let bw_est = ref 0.0 (* bytes/s, EWMA of delivery-rate samples *) in
  let on_ack (ack : Netsim.Cca.ack_info) =
    (* Westwood+'s low-pass bandwidth filter. *)
    if !bw_est <= 0.0 then bw_est := ack.rate_sample
    else bw_est := (0.9 *. !bw_est) +. (0.1 *. ack.rate_sample);
    if Window.recovered w ~now:ack.now then Window.grow w 1.0
  in
  (* On loss: cwnd <- BWE * RTT_min (the estimated BDP), the "faster
     recovery" that distinguishes Westwood from Reno. *)
  let on_loss (loss : Netsim.Cca.loss_info) =
    if Window.recovered w ~now:loss.now then begin
      w.ssthresh <- Float.max 2.0 (!bw_est *. Window.min_rtt w /. Window.mss);
      (match loss.kind with
      | Netsim.Cca.Gap_detected -> w.cwnd <- w.ssthresh
      | Netsim.Cca.Timeout -> w.cwnd <- 2.0);
      Window.enter_recovery w ~now:loss.now
    end
  in
  Window.cca ~name:"westwood" w ~on_ack ~on_loss

let make () = as_cca (Window.create ())

let embedded () =
  let w = Window.create () in
  Window.embedded w (as_cca w)
