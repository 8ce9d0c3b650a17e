(* TCP NewReno-style AIMD: the canonical loss-based scheme and the
   simplest "classic" baseline. Slow start doubles per RTT, congestion
   avoidance adds one packet per RTT, a loss halves the window. Only
   the control law lives here; [Window] keeps the window, the RTT
   estimate, the recovery gate, pacing and the Libra embedding. *)

let on_ack w (ack : Netsim.Cca.ack_info) =
  if Window.recovered w ~now:ack.now then Window.grow w 1.0

let on_loss (w : Window.t) (loss : Netsim.Cca.loss_info) =
  if Window.recovered w ~now:loss.now then begin
    w.ssthresh <- Float.max 2.0 (w.cwnd /. 2.0);
    (match loss.kind with
    | Netsim.Cca.Gap_detected -> w.cwnd <- w.ssthresh
    | Netsim.Cca.Timeout -> w.cwnd <- 2.0);
    Window.enter_recovery w ~now:loss.now
  end

let as_cca w = Window.cca ~name:"reno" w ~on_ack:(on_ack w) ~on_loss:(on_loss w)
let make () = as_cca (Window.create ())

let embedded () =
  let w = Window.create () in
  Window.embedded w (as_cca w)
