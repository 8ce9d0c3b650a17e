(* TCP Vegas (Brakmo & Peterson 1995): delay-based. Once per RTT the
   expected rate (cwnd / base RTT) is compared with the actual rate
   (cwnd / observed RTT); the window steps up when fewer than [alpha]
   packets sit in the queue and down when more than [beta] do. A law
   over [Window]; slow start ends at 64 packets. *)

let alpha = 2.0
let beta = 4.0

let as_cca (w : Window.t) =
  let next_update = ref 0.0 in
  let on_ack (ack : Netsim.Cca.ack_info) =
    if ack.now >= !next_update && Window.recovered w ~now:ack.now then begin
      next_update := ack.now +. Window.srtt w;
      let base = Window.min_rtt w in
      let cur = Window.srtt w in
      (* Queued packets = cwnd * (1 - base/cur). *)
      let diff = w.cwnd *. (1.0 -. (base /. Float.max base cur)) in
      if w.cwnd < w.ssthresh then w.cwnd <- w.cwnd +. 1.0
      else if diff < alpha then w.cwnd <- w.cwnd +. 1.0
      else if diff > beta then w.cwnd <- Float.max 2.0 (w.cwnd -. 1.0)
    end
  in
  let on_loss (loss : Netsim.Cca.loss_info) =
    if Window.recovered w ~now:loss.now then begin
      (match loss.kind with
      | Netsim.Cca.Gap_detected -> w.cwnd <- Float.max 2.0 (w.cwnd *. 0.75)
      | Netsim.Cca.Timeout -> w.cwnd <- 2.0);
      w.ssthresh <- Float.max 2.0 w.cwnd;
      Window.enter_recovery w ~now:loss.now
    end
  in
  Window.cca ~name:"vegas" w ~on_ack ~on_loss

let window () = Window.create ~ssthresh:64.0 ()
let make () = as_cca (window ())

let embedded () =
  let w = window () in
  Window.embedded w (as_cca w)
