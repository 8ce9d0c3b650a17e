(* Sprout-EWMA, the simplified Sprout variant used by Pantheon as a
   baseline: forecast the link's delivery rate with an exponentially
   weighted moving average and size the window so queueing delay stays
   within a target budget. (Full Sprout infers a stochastic model of
   the cellular link; the EWMA forecast is the standard stand-in and is
   what the Sprout paper itself compares against.) *)

let tau = 0.25 (* EWMA time constant, seconds *)
let target_delay = 0.06 (* queueing-delay budget, seconds *)

type t = {
  mutable rate_ewma : float;  (* bytes/s *)
  mutable last_ack_at : float;
  rtt : Netsim.Cca.Rtt_tracker.tracker;
}

let create () =
  {
    rate_ewma = 0.0;
    last_ack_at = 0.0;
    rtt = Netsim.Cca.Rtt_tracker.create ();
  }

let rate_ewma t = t.rate_ewma

let on_ack t (ack : Netsim.Cca.ack_info) =
  Netsim.Cca.Rtt_tracker.observe t.rtt ack.rtt;
  if t.rate_ewma <= 0.0 then t.rate_ewma <- ack.rate_sample
  else begin
    let dt = Float.max 1e-6 (ack.now -. t.last_ack_at) in
    let w = exp (-.dt /. tau) in
    t.rate_ewma <- (w *. t.rate_ewma) +. ((1.0 -. w) *. ack.rate_sample)
  end;
  t.last_ack_at <- ack.now

let on_loss t (loss : Netsim.Cca.loss_info) =
  match loss.kind with
  | Netsim.Cca.Gap_detected -> t.rate_ewma <- t.rate_ewma *. 0.9
  | Netsim.Cca.Timeout -> t.rate_ewma <- t.rate_ewma *. 0.5

let cwnd t =
  if t.rate_ewma <= 0.0 then 4.0
  else
    let min_rtt = Netsim.Cca.Rtt_tracker.min_rtt t.rtt in
    Float.max 2.0
      (0.9 *. t.rate_ewma *. (min_rtt +. target_delay) /. Window.mss)

let pacing t =
  if t.rate_ewma <= 0.0 then 10.0 *. Window.mss /. 0.1
  else 1.1 *. t.rate_ewma

let as_cca t =
  {
    Netsim.Cca.name = "sprout";
    on_ack = on_ack t;
    on_loss = on_loss t;
    on_send = (fun _ -> ());
    pacing_rate = (fun ~now:_ -> pacing t);
    cwnd = (fun ~now:_ -> cwnd t);
  }

let make () = as_cca (create ())
