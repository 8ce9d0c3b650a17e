(* PCC Vivace (Dong et al., NSDI 2018): online-learning congestion
   control by gradient ascent on a utility function, no neural network.

   Sending time is divided into monitor intervals (MIs). Each MI is
   scheduled with a rate and a purpose; its ACKs -- which arrive one RTT
   later -- are attributed to it exactly by sequence tagging, and its
   utility is computed when the next MI's ACKs start arriving. The
   controller follows PCC's phases:

   - Starting: double the rate each completed MI while utility rises;
     on the first drop, keep the previous rate and start probing.
   - Probing: schedule a pair of MIs at base*(1+eps) and base*(1-eps);
     their utility difference estimates the gradient, and the base
     moves along it with a confidence amplifier (consecutive
     same-direction steps grow the step, a sign flip resets it), with
     the per-decision change bounded by omega.

   Proteus (Meng et al., SIGCOMM 2020) reuses this machinery with a
   more delay-averse utility; see {!Proteus}. *)

type purpose = Normal | Double | Probe_up | Probe_down

type mi_record = { rate : float; purpose : purpose; monitor : Netsim.Monitor.t }

type phase =
  | Starting
  | Wait_double of int  (* MI id of the in-flight doubling attempt *)
  | Probing  (* probe pair not yet scheduled *)
  | Wait_probe of { up_id : int; down_id : int; mutable u_up : float option;
                    mutable u_down : float option }

let theta = 1.0  (* gradient step in Mbps per unit gradient *)
let omega = 0.25  (* max relative base change per decision *)

type t = {
  u : Utility.params;
  eps : float;
  tagger : int Netsim.Tagger.t;
  mis : (int, mi_record) Hashtbl.t;
  mutable next_id : int;
  mutable last_finalized : int;
  mutable phase : phase;
  mutable base_rate : float;  (* bytes/s *)
  mutable applied : float;
  mutable prev_utility : float;
  mutable amplifier : float;
  mutable last_dir : int;
  mutable mi_end : float;
  mutable min_rtt : float;
  mutable decisions : int;
  (* Probe rates scheduled next, queue of (rate, purpose). *)
  plan : (float * purpose) Queue.t;
}

let create ?(u = Utility.default) ?(eps = 0.05) () =
  let initial_rate = Netsim.Units.mbps_to_bps 2.0 in
  {
    u;
    eps;
    tagger = Netsim.Tagger.create ~initial:(-1);
    mis = Hashtbl.create 16;
    next_id = 0;
    last_finalized = -1;
    phase = Starting;
    base_rate = initial_rate;
    applied = initial_rate;
    prev_utility = neg_infinity;
    amplifier = 1.0;
    last_dir = 0;
    mi_end = 0.0;
    min_rtt = 0.1;
    decisions = 0;
    plan = Queue.create ();
  }

let rate t = t.applied
let base_rate t = t.base_rate
let decisions t = t.decisions

let clamp_step t step =
  let bound = omega *. t.base_rate in
  Float.min bound (Float.max (-.bound) step)

(* Schedule the next MI: honour the plan queue, else run at base. *)
let start_mi t ~now =
  let rate, purpose =
    match Queue.take_opt t.plan with
    | Some planned -> planned
    | None -> (
      match t.phase with
      | Starting ->
        let doubled = Float.min Actions.max_rate (t.base_rate *. 2.0) in
        t.phase <- Wait_double t.next_id;
        (doubled, Double)
      | Probing ->
        (* Schedule the probe pair: up now, down next. *)
        Queue.push (t.base_rate *. (1.0 -. t.eps), Probe_down) t.plan;
        t.phase <-
          Wait_probe { up_id = t.next_id; down_id = t.next_id + 1; u_up = None; u_down = None };
        (t.base_rate *. (1.0 +. t.eps), Probe_up)
      | Wait_double _ | Wait_probe _ -> (t.base_rate, Normal))
  in
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.mis id { rate; purpose; monitor = Netsim.Monitor.create ~now };
  Netsim.Tagger.mark t.tagger id;
  t.applied <- Float.max 1500.0 rate;
  t.mi_end <- now +. Float.max 0.01 t.min_rtt

(* Both probe results are in: take the gradient step (Vivace's rate
   translating step with confidence amplification). *)
let apply_gradient t ~u_up ~u_down =
  let denom = 2.0 *. t.eps *. Netsim.Units.bps_to_mbps t.base_rate in
  let grad = (u_up -. u_down) /. Float.max 1e-9 denom in
  let dir = if grad > 0.0 then 1 else -1 in
  if dir = t.last_dir then t.amplifier <- Float.min 10.0 (t.amplifier +. 1.0)
  else t.amplifier <- 1.0;
  t.last_dir <- dir;
  let step_mbps = theta *. t.amplifier *. grad in
  let step = clamp_step t (Netsim.Units.mbps_to_bps step_mbps) in
  t.base_rate <-
    Float.min Actions.max_rate (Float.max 1500.0 (t.base_rate +. step));
  t.decisions <- t.decisions + 1;
  t.phase <- Probing

(* An MI completed with utility [u_val]. *)
let on_result t ~id ~rate_bps ~u_val =
  match t.phase with
  | Wait_double want_id when id = want_id ->
    if u_val >= t.prev_utility then begin
      t.prev_utility <- u_val;
      t.base_rate <- rate_bps;
      t.phase <- Starting
    end
    else
      (* Overshot: the base stays at the pre-doubling rate. *)
      t.phase <- Probing
  | Wait_probe w ->
    if id = w.up_id then w.u_up <- Some u_val
    else if id = w.down_id then w.u_down <- Some u_val;
    (match (w.u_up, w.u_down) with
    | Some u_up, Some u_down ->
      t.prev_utility <- Float.max u_up u_down;
      apply_gradient t ~u_up ~u_down
    | Some _, None | None, Some _ | None, None -> ())
  | Starting | Probing | Wait_double _ -> ()

(* Finalize every MI strictly older than [upto]. *)
let finalize_older t ~upto ~now =
  let rec go id =
    if id < upto then begin
      (match Hashtbl.find_opt t.mis id with
      | Some mi ->
        let snap = Netsim.Monitor.snapshot mi.monitor ~now in
        if snap.Netsim.Monitor.acked >= 2 then
          on_result t ~id ~rate_bps:mi.rate ~u_val:(Utility.eval t.u ~rate_bps:mi.rate snap);
        Hashtbl.remove t.mis id
      | None -> ());
      go (id + 1)
    end
  in
  go (t.last_finalized + 1);
  t.last_finalized <- max t.last_finalized (upto - 1)

let on_ack t (ack : Netsim.Cca.ack_info) =
  if ack.rtt < t.min_rtt then t.min_rtt <- ack.rtt;
  let label = Netsim.Tagger.on_ack t.tagger ~seq:ack.Netsim.Cca.seq in
  (match Hashtbl.find_opt t.mis label with
  | Some mi -> Netsim.Monitor.on_ack mi.monitor ack
  | None -> ());
  finalize_older t ~upto:label ~now:ack.now;
  if ack.now >= t.mi_end then start_mi t ~now:ack.now

let on_send t (send : Netsim.Cca.send_info) =
  Netsim.Tagger.on_send t.tagger ~seq:send.Netsim.Cca.seq;
  if send.Netsim.Cca.now >= t.mi_end then start_mi t ~now:send.Netsim.Cca.now

let on_loss t (loss : Netsim.Cca.loss_info) =
  match loss.Netsim.Cca.kind with
  | Netsim.Cca.Timeout ->
    t.base_rate <- Float.max 1500.0 (t.base_rate /. 2.0);
    t.applied <- t.base_rate;
    Queue.clear t.plan;
    t.phase <- Starting;
    t.prev_utility <- neg_infinity;
    t.amplifier <- 1.0
  | Netsim.Cca.Gap_detected -> ()

let as_cca ?(name = "vivace") t =
  {
    Netsim.Cca.name;
    on_ack = on_ack t;
    on_loss = on_loss t;
    on_send = on_send t;
    pacing_rate = (fun ~now:_ -> t.applied);
    cwnd = (fun ~now:_ -> Netsim.Cca.rate_cwnd ~rate:t.applied ~min_rtt:t.min_rtt);
  }

let make () = as_cca (create ())
