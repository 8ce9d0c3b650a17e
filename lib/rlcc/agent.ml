(* A trained policy driving a sending rate in the packet simulator.

   The agent works per monitor interval (MI) of one minimum RTT: ACKs
   accumulate into a {!Netsim.Monitor}; when the MI elapses, the
   observation is pushed onto the feature history, the policy samples
   an action, and the action updates the rate. The state set, the
   action space and the history length are the ones the policy was
   trained with, read from its training outcome. Decisions are sampled
   (the paper attributes Orca's safety problems partly to decision
   stochasticity, which Tab. 6 exercises by varying the agent's
   seed). *)

type t = {
  policy : Ppo.t;
  ws : Ppo.ws;  (* this agent's own: the policy is shared across domains *)
  action : Actions.mode;
  history : Features.History.t;
  monitor : Netsim.Monitor.t;
  rng : Netsim.Rng.t;
  mutable rate : float;  (* bytes/s *)
  mutable mi_end : float;
  mutable min_rtt : float;
  mutable rate_norm : float;
  mutable ack_gap : float;
  mutable send_gap : float;
  mutable last_ack_at : float;
  mutable last_send_at : float;
  mutable decisions : int;
  mutable loss_discount : float;  (* ambient loss subtracted from the
                                     loss feature (Libra sets this) *)
}

let create ~seed ~initial_rate (outcome : Train.outcome) =
  let cfg = outcome.Train.config in
  {
    policy = outcome.Train.policy;
    ws = Ppo.workspace outcome.Train.policy ~rows:1;
    action = cfg.Train.action;
    history = Features.History.create ~set:cfg.Train.state_set ~h:Train.history;
    monitor = Netsim.Monitor.create ~now:0.0;
    rng = Netsim.Rng.create seed;
    rate = initial_rate;
    mi_end = 0.0;
    min_rtt = 0.1;
    (* Match the training-time normaliser: there x_max ratchets towards
       the top of the training distribution (200 Mbit/s), so a fresh
       agent that normalised by its own small initial rate would sit at
       feature value 1 ("at capacity") and never push. *)
    rate_norm = Netsim.Units.mbps_to_bps 200.0;
    ack_gap = 0.0;
    send_gap = 0.0;
    last_ack_at = nan;
    last_send_at = nan;
    decisions = 0;
    loss_discount = 0.0;
  }

let rate t = t.rate

(* Libra feeds the flow's ambient loss level so the agent judges only
   the loss in excess of it (see Controller's de-biasing); standalone
   agents keep the raw feature. *)
let set_loss_discount t v = t.loss_discount <- Float.max 0.0 v
let set_rate t r = t.rate <- Float.min Actions.max_rate (Float.max 1500.0 r)
let decisions t = t.decisions
let min_rtt t = t.min_rtt

(* Restart the current monitor interval (Libra calls this when its
   exploration stage re-opens after the agent was dormant). *)
let begin_mi t ~now =
  Netsim.Monitor.reset t.monitor ~now;
  t.mi_end <- now +. t.min_rtt

let blend old v = if old <= 0.0 then v else (0.8 *. old) +. (0.2 *. v)

let observe_send t (send : Netsim.Cca.send_info) =
  if not (Float.is_nan t.last_send_at) then
    t.send_gap <- blend t.send_gap (send.now -. t.last_send_at);
  t.last_send_at <- send.now

let observation t ~now =
  let snap = Netsim.Monitor.snapshot t.monitor ~now in
  {
    Features.send_rate = t.rate;
    throughput = snap.Netsim.Monitor.throughput;
    avg_rtt =
      (if Float.is_nan snap.Netsim.Monitor.avg_rtt then t.min_rtt
       else snap.Netsim.Monitor.avg_rtt);
    min_rtt = t.min_rtt;
    rtt_gradient = snap.Netsim.Monitor.rtt_gradient;
    loss_rate = Float.max 0.0 (snap.Netsim.Monitor.loss_rate -. t.loss_discount);
    ack_gap_ewma = t.ack_gap;
    send_gap_ewma = t.send_gap;
    rate_norm = t.rate_norm;
  }

let span_forward = Obs.Span.probe "rl.forward"

(* Run one decision: consume the finished MI and update the rate. *)
let decide t ~now =
  let obs = observation t ~now in
  (* Pure ratchet, as in training (see Env.reset). *)
  t.rate_norm <- Float.max t.rate_norm obs.Features.throughput;
  Features.History.push t.history obs;
  let state = Features.History.state t.history in
  let a =
    Obs.Span.timed span_forward (fun () ->
        let action, _ = Ppo.sample t.policy t.ws t.rng state in
        action)
  in
  t.decisions <- t.decisions + 1;
  t.rate <-
    Actions.apply t.action ~rate:t.rate ~min_rtt:t.min_rtt ~mss:Netsim.Units.mtu a;
  if Obs.Trace.on Obs.Category.Rl then
    Obs.Trace.emit
      (Obs.Event.Rl_step
         { t = now; episode = -1; step = t.decisions; rate = t.rate;
           reward = nan; action = a });
  Netsim.Monitor.reset t.monitor ~now;
  t.mi_end <- now +. t.min_rtt

(* Feed an ACK; returns [true] when this ACK closed an MI (a fresh
   decision was made). The paper's "no ACK in the interval" rule is
   implicit: with no ACKs, no decision fires and the rate persists. *)
let on_ack t (ack : Netsim.Cca.ack_info) =
  if ack.rtt < t.min_rtt then t.min_rtt <- ack.rtt;
  if not (Float.is_nan t.last_ack_at) then
    t.ack_gap <- blend t.ack_gap (ack.now -. t.last_ack_at);
  t.last_ack_at <- ack.now;
  Netsim.Monitor.on_ack t.monitor ack;
  if ack.now >= t.mi_end then begin
    decide t ~now:ack.now;
    true
  end
  else false

let on_timeout_loss t ~pkts = Netsim.Monitor.on_timeout_loss t.monitor ~pkts
