(* The shared bottleneck link: a droptail buffer drained by a server
   whose rate may vary over time (trace-driven), plus optional Bernoulli
   stochastic loss at ingress.

   The serialization time of the packet at the head of the queue is
   computed from the instantaneous rate when its transmission starts;
   variable-rate traces are piecewise constant at a fine grain, so this
   per-packet sampling tracks the trace closely. When the instantaneous
   rate is (near) zero -- cellular outage -- the server retries at the
   trace grain.

   Fault injection attaches through [hooks]: an ingress transform that
   may drop, delay, duplicate, corrupt or reorder arriving packets
   before they reach the loss/queue stages, and a rate shaper that
   rewrites the instantaneous service rate (outages, clamps, flaps).
   Both are plain closures so the substrate stays decoupled from the
   impairment library (lib/faults) that builds them.

   The link schedules three kinds of event, registered at [create]:
   service completion, the outage retry, and the admission of a packet
   the ingress hook deferred (operand a keys the packet in [held]). *)

type qdisc = Fifo of Droptail.t | Codel_q of Codel.t

type hooks = {
  ingress : now:float -> Packet.t -> (Packet.t * float) list;
      (* arriving packet -> (packet, extra delay) to admit; an empty
         list drops, several entries duplicate, a positive delay defers
         admission (jitter / reordering relative to the FIFO) *)
  shape_rate : now:float -> float -> float;
      (* trace rate -> effective service rate (outage windows, clamps) *)
}

type t = {
  sim : Sim.t;
  rate_fn : float -> float;  (* time -> bytes/s *)
  grain : float;  (* retry interval when the rate is zero *)
  queue : qdisc;
  loss_p : float;
  rng : Rng.t;
  hooks : hooks option;
  deliver : Packet.t -> unit;  (* invoked when a packet finishes service *)
  fast_rate : float;  (* constant unshaped service rate, or nan *)
  held : (int, Packet.t) Hashtbl.t;  (* deferred admissions, by key *)
  mutable next_held : int;  (* next key *)
  mutable ev_finish : Sim.kind;
  mutable ev_retry : Sim.kind;
  mutable ev_admit : Sim.kind;
  mutable busy : bool;
  mutable delivered_bytes : int;
  mutable delivered_pkts : int;
  mutable random_drops : int;
  mutable queue_delay_sum : float;
  mutable queue_delay_samples : int;
  mutable traced_rate : float;  (* last service rate put on the trace *)
}

let min_rate = 1.0 (* bytes/s; below this the link is treated as stalled *)

(* Observability probes (no-ops unless a registry is attached). *)
let m_enqueued = Obs.Metrics.counter "netsim.link.enqueued_pkts"
let m_delivered = Obs.Metrics.counter "netsim.link.delivered_pkts"
let m_tail_drops = Obs.Metrics.counter "netsim.link.tail_drops"
let m_random_drops = Obs.Metrics.counter "netsim.link.random_drops"
let m_queue_bytes = Obs.Metrics.gauge "netsim.link.queue_bytes"

let queue_bytes t =
  match t.queue with Fifo q -> Droptail.bytes q | Codel_q q -> Codel.bytes q

let queue_drops t =
  match t.queue with Fifo q -> Droptail.drops q | Codel_q q -> Codel.drops q

let queue_is_empty t =
  match t.queue with Fifo q -> Droptail.is_empty q | Codel_q q -> Codel.is_empty q

let delivered_bytes t = t.delivered_bytes
let delivered_pkts t = t.delivered_pkts
let random_drops t = t.random_drops

(* Effective service rate: the trace rate, rewritten by the fault
   shaper when one is attached. *)
let rate_at t time =
  match t.hooks with
  | None -> t.rate_fn time
  | Some h -> h.shape_rate ~now:time (t.rate_fn time)

let mean_queue_delay t =
  if t.queue_delay_samples = 0 then 0.0
  else t.queue_delay_sum /. float_of_int t.queue_delay_samples

(* The egress path (start_service / finish_service) is a zero-allocation
   contract when tracing is off: service events carry no payload, the
   droptail branch pops without options, and a constant-rate unshaped
   link skips the (boxing) rate-closure call.
   The events-per-sec bench asserts the contract with Gc.counters. *)
let rec start_service t =
  if queue_is_empty t then t.busy <- false
  else begin
    t.busy <- true;
    let now = Sim.now t.sim in
    let rate =
      if Float.is_nan t.fast_rate then rate_at t now else t.fast_rate
    in
    if Obs.Trace.on Obs.Category.Link && rate <> t.traced_rate then begin
      t.traced_rate <- rate;
      Obs.Trace.emit (Obs.Event.Link_rate { t = now; rate })
    end;
    if rate < min_rate then
      (* Outage: look again one grain later. *)
      Sim.after t.sim t.grain ~kind:t.ev_retry ~a:0 ~b:0
    else begin
      let size =
        match t.queue with
        | Fifo q -> (Droptail.peek_exn q).Packet.size
        | Codel_q q -> (
          match Codel.peek q with Some p -> p.Packet.size | None -> 0)
      in
      let tx_time = float_of_int size /. rate in
      Sim.after t.sim tx_time ~kind:t.ev_finish ~a:0 ~b:0
    end
  end

and finish_service t =
  match t.queue with
  | Fifo q ->
    if Droptail.is_empty q then t.busy <- false
    else deliver_finished t (Droptail.dequeue_exn q)
  | Codel_q q -> (
    (* CoDel may drop its way to an empty queue at dequeue time. *)
    match Codel.dequeue q ~now:(Sim.now t.sim) with
    | None -> t.busy <- false
    | Some pkt -> deliver_finished t pkt)

(* [now] is re-read from the clock inside the gated branch rather than
   passed in: a float argument to a call within this recursive group
   cannot be inlined away and would box on every delivery. *)
and deliver_finished t pkt =
  t.delivered_bytes <- t.delivered_bytes + pkt.Packet.size;
  t.delivered_pkts <- t.delivered_pkts + 1;
  Obs.Metrics.incr m_delivered;
  Obs.Metrics.set m_queue_bytes (float_of_int (queue_bytes t));
  if Obs.Trace.on_flow Obs.Category.Pkt ~flow:pkt.Packet.flow then
    Obs.Trace.emit
      (Obs.Event.Dequeue
         { t = Sim.now t.sim; flow = pkt.Packet.flow; seq = pkt.Packet.seq;
           size = pkt.Packet.size; backlog = queue_bytes t });
  t.deliver pkt;
  start_service t

(* Bench/test hook: run one service completion directly (exactly the
   event the link schedules for itself); the allocation-contract bench
   drives egress through this without spinning the event loop. *)
let drain_one t = finish_service t

(* Admit a packet: Bernoulli stochastic loss first, then droptail. *)
let admit t pkt =
  if t.loss_p > 0.0 && Rng.bool t.rng ~p:t.loss_p then begin
    t.random_drops <- t.random_drops + 1;
    Obs.Metrics.incr m_random_drops;
    if Obs.Trace.on_flow Obs.Category.Pkt ~flow:pkt.Packet.flow then
      Obs.Trace.emit
        (Obs.Event.Drop
           { t = Sim.now t.sim; flow = pkt.Packet.flow; seq = pkt.Packet.seq;
             size = pkt.Packet.size; reason = Obs.Event.Random })
  end
  else begin
    let now = Sim.now t.sim in
    let admitted =
      match t.queue with
      | Fifo q -> Droptail.enqueue q pkt
      | Codel_q q -> Codel.enqueue q pkt ~now
    in
    if admitted then begin
      Obs.Metrics.incr m_enqueued;
      Obs.Metrics.set m_queue_bytes (float_of_int (queue_bytes t));
      if Obs.Trace.on_flow Obs.Category.Pkt ~flow:pkt.Packet.flow then
        Obs.Trace.emit
          (Obs.Event.Enqueue
             { t = now; flow = pkt.Packet.flow; seq = pkt.Packet.seq;
               size = pkt.Packet.size; backlog = queue_bytes t })
    end
    else begin
      Obs.Metrics.incr m_tail_drops;
      if Obs.Trace.on_flow Obs.Category.Pkt ~flow:pkt.Packet.flow then
        Obs.Trace.emit
          (Obs.Event.Drop
             { t = now; flow = pkt.Packet.flow; seq = pkt.Packet.seq;
               size = pkt.Packet.size; reason = Obs.Event.Tail })
    end;
    if admitted then begin
      (* Track queueing delay via the backlog at admission. *)
      let rate = Float.max min_rate (rate_at t now) in
      t.queue_delay_sum <-
        t.queue_delay_sum +. (float_of_int (queue_bytes t) /. rate);
      t.queue_delay_samples <- t.queue_delay_samples + 1;
      if not t.busy then start_service t
    end
  end

let create ?(aqm = `Fifo) ?hooks ?const_rate ~sim ~rate_fn ~grain ~buffer_bytes
    ~loss_p ~rng ~deliver () =
  (* The fast service path reads a stored constant instead of calling
     the (boxing) rate closure — valid only when no shaper can rewrite
     the rate. *)
  let fast_rate =
    match (hooks, const_rate) with None, Some r -> r | _ -> nan
  in
  let t =
    {
      sim;
      rate_fn;
      grain;
      hooks;
      queue =
        (match aqm with
        | `Fifo -> Fifo (Droptail.create ~capacity:buffer_bytes)
        | `Codel -> Codel_q (Codel.create ~capacity:buffer_bytes ()));
      loss_p;
      rng;
      deliver;
      fast_rate;
      held = Hashtbl.create 16;
      next_held = 0;
      ev_finish = -1;
      ev_retry = -1;
      ev_admit = -1;
      busy = false;
      delivered_bytes = 0;
      delivered_pkts = 0;
      random_drops = 0;
      queue_delay_sum = 0.0;
      queue_delay_samples = 0;
      traced_rate = nan;
    }
  in
  (* The handlers close over [t], so the kinds are filled in last. *)
  t.ev_finish <- Sim.register sim (fun _ _ -> finish_service t);
  t.ev_retry <- Sim.register sim (fun _ _ -> start_service t);
  t.ev_admit <-
    Sim.register sim (fun key _ ->
        let pkt = Hashtbl.find t.held key in
        Hashtbl.remove t.held key;
        admit t pkt);
  t

(* Link ingress: run the impairment pipeline (if any), then admit each
   surviving copy -- immediately, or after its extra delay (jitter /
   held-for-reordering). *)
let send t pkt =
  match t.hooks with
  | None -> admit t pkt
  | Some h ->
    let now = Sim.now t.sim in
    List.iter
      (fun (pkt, delay) ->
        if delay <= 0.0 then admit t pkt
        else begin
          let key = t.next_held in
          t.next_held <- key + 1;
          Hashtbl.replace t.held key pkt;
          Sim.after t.sim delay ~kind:t.ev_admit ~a:key ~b:0
        end)
      (h.ingress ~now pkt)
