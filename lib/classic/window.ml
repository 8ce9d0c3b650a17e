(* The shell of a window-based CCA.

   Reno, CUBIC, Vegas, Westwood+, Illinois, Copa and the Remy and
   Indigo stand-ins all keep a congestion window and a slow-start
   threshold, track RTT the same way, pace at 1.2 windows per smoothed
   RTT so sending stays ACK-clocked, and (the loss-based ones) reduce
   the window at most once per RTT. Libra embeds any of them the same
   way (Sec. 4.3): its rate is one window per smoothed RTT, and imposing
   a rate rewrites the window. This module holds all of that once, so
   each CCA is only its control law. *)

type t = {
  mutable cwnd : float;  (* packets *)
  mutable ssthresh : float;
  mutable recovery_until : float;
  rtt : Netsim.Cca.Rtt_tracker.tracker;
}

let mss = float_of_int Netsim.Units.mtu

let create ?(cwnd = 10.0) ?(ssthresh = infinity) () =
  { cwnd; ssthresh; recovery_until = 0.0; rtt = Netsim.Cca.Rtt_tracker.create () }

let srtt w = Netsim.Cca.Rtt_tracker.srtt w.rtt
let min_rtt w = Netsim.Cca.Rtt_tracker.min_rtt w.rtt
let recovered w ~now = now >= w.recovery_until
let enter_recovery w ~now = w.recovery_until <- now +. srtt w

let grow w incr =
  if w.cwnd < w.ssthresh then w.cwnd <- w.cwnd +. 1.0
  else w.cwnd <- w.cwnd +. (incr /. w.cwnd)

let cca ~name w ~on_ack ~on_loss =
  {
    Netsim.Cca.name;
    on_ack =
      (fun (ack : Netsim.Cca.ack_info) ->
        Netsim.Cca.Rtt_tracker.observe w.rtt ack.rtt;
        on_ack ack);
    on_loss;
    on_send = (fun _ -> ());
    pacing_rate = (fun ~now:_ -> 1.2 *. w.cwnd *. mss /. Float.max 1e-3 (srtt w));
    cwnd = (fun ~now:_ -> w.cwnd);
  }

let embedded ?set_cwnd w cca =
  let set_cwnd =
    match set_cwnd with Some f -> f | None -> fun cwnd -> w.cwnd <- cwnd
  in
  {
    Embedded.cca;
    get_rate = (fun ~now:_ -> w.cwnd *. mss /. Float.max 1e-3 (srtt w));
    set_rate =
      (fun ~now:_ rate -> set_cwnd (Float.max 2.0 (rate *. Float.max 1e-3 (srtt w) /. mss)));
    exploration_rtts = 1.0;
  }
