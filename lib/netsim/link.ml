(* The shared bottleneck link: a byte-bounded FIFO buffer, optionally
   under CoDel, drained by a server whose rate may vary over time
   (trace-driven), plus optional Bernoulli stochastic loss at ingress.

   Both disciplines keep their packets in one queue: a power-of-two
   ring with two columns, the packet and its admission time. Admission
   tail-drops when the packet would take the queued bytes past
   [buffer_bytes]; under CoDel the link asks the control law (Codel)
   about each head it pops, and a head drop pops again.

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
  (* The queue: a ring of [len] packets from [head], with each packet's
     admission time in the same slot of [admitted_at]. *)
  mutable pkts : Packet.t array;  (* power-of-two length *)
  mutable admitted_at : float array;
  mutable head : int;
  mutable len : int;
  buffer_bytes : int;
  mutable bytes : int;  (* queued bytes *)
  mutable drops : int;  (* tail drops plus CoDel head drops *)
  codel : Codel.t option;
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
  mutable random_drops : int;
  mutable traced_rate : float;  (* last service rate put on the trace *)
}

let min_rate = 1.0 (* bytes/s; below this the link is treated as stalled *)

(* Observability probes (no-ops unless a registry is attached). *)
let m_enqueued = Obs.Metrics.counter "netsim.link.enqueued_pkts"
let m_delivered = Obs.Metrics.counter "netsim.link.delivered_pkts"
let m_tail_drops = Obs.Metrics.counter "netsim.link.tail_drops"
let m_random_drops = Obs.Metrics.counter "netsim.link.random_drops"
let m_queue_bytes = Obs.Metrics.gauge "netsim.link.queue_bytes"

let queue_drops t = t.drops
let delivered_bytes t = t.delivered_bytes
let random_drops t = t.random_drops

(* Effective service rate: the trace rate, rewritten by the fault
   shaper when one is attached. *)
let rate_at t time =
  match t.hooks with
  | None -> t.rate_fn time
  | Some h -> h.shape_rate ~now:time (t.rate_fn time)

let no_pkt = { Packet.flow = -1; seq = -1; size = 0; corrupt = false }

(* Double the ring, unrolling it to start at slot 0. *)
let grow t =
  let n = Array.length t.pkts in
  let pkts = Array.make (2 * n) no_pkt and admitted_at = Array.make (2 * n) 0.0 in
  for i = 0 to n - 1 do
    let j = (t.head + i) land (n - 1) in
    pkts.(i) <- t.pkts.(j);
    admitted_at.(i) <- t.admitted_at.(j)
  done;
  t.pkts <- pkts;
  t.admitted_at <- admitted_at;
  t.head <- 0

let trace_drop t (pkt : Packet.t) reason =
  if Obs.Trace.on_flow Obs.Category.Pkt ~flow:pkt.flow then
    Obs.Trace.emit
      (Obs.Event.Drop
         { t = Sim.now t.sim; flow = pkt.flow; seq = pkt.seq; size = pkt.size;
           reason })

(* The egress path (start_service / finish_service) is a zero-allocation
   contract when tracing is off: service events carry no payload, a pop
   returns the stored packet, the CoDel law is inlined (its float
   arguments stay unboxed), and a constant-rate unshaped link skips the
   (boxing) rate-closure call.
   The alloc-contract bench asserts it. *)
let rec start_service t =
  if t.len = 0 then t.busy <- false
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
      let tx_time = float_of_int t.pkts.(t.head).Packet.size /. rate in
      Sim.after t.sim tx_time ~kind:t.ev_finish ~a:0 ~b:0
    end
  end

(* Pop the head. Under CoDel the law judges it first: a head drop pops
   again, possibly down to an empty queue, and a pop that finds the
   queue empty resets the law. *)
and finish_service t =
  if t.len = 0 then begin
    (match t.codel with Some c -> Codel.reset c | None -> ());
    t.busy <- false
  end
  else begin
    let h = t.head in
    let pkt = t.pkts.(h) in
    t.head <- (h + 1) land (Array.length t.pkts - 1);
    t.len <- t.len - 1;
    t.bytes <- t.bytes - pkt.Packet.size;
    match t.codel with
    | Some c ->
      let now = Sim.now t.sim in
      if Codel.drop c ~now ~sojourn:(now -. t.admitted_at.(h)) ~backlog:t.bytes
      then begin
        t.drops <- t.drops + 1;
        trace_drop t pkt Obs.Event.Codel;
        finish_service t
      end
      else deliver_finished t pkt
    | None -> deliver_finished t pkt
  end

(* [now] is re-read from the clock inside the gated branch rather than
   passed in: a float argument to a call within this recursive group
   cannot be inlined away and would box on every delivery. *)
and deliver_finished t pkt =
  t.delivered_bytes <- t.delivered_bytes + pkt.Packet.size;
  Obs.Metrics.incr m_delivered;
  Obs.Metrics.set m_queue_bytes (float_of_int t.bytes);
  if Obs.Trace.on_flow Obs.Category.Pkt ~flow:pkt.Packet.flow then
    Obs.Trace.emit
      (Obs.Event.Dequeue
         { t = Sim.now t.sim; flow = pkt.Packet.flow; seq = pkt.Packet.seq;
           size = pkt.Packet.size; backlog = t.bytes });
  t.deliver pkt;
  start_service t

(* Bench/test hook: run one service completion directly (exactly the
   event the link schedules for itself); the allocation-contract bench
   drives egress through this without spinning the event loop. *)
let drain_one t = finish_service t

(* Admit a packet: Bernoulli stochastic loss first, then the tail-drop
   bound on queued bytes. *)
let admit t pkt =
  if t.loss_p > 0.0 && Rng.bool t.rng ~p:t.loss_p then begin
    t.random_drops <- t.random_drops + 1;
    Obs.Metrics.incr m_random_drops;
    trace_drop t pkt Obs.Event.Random
  end
  else if t.bytes + pkt.Packet.size > t.buffer_bytes then begin
    t.drops <- t.drops + 1;
    Obs.Metrics.incr m_tail_drops;
    trace_drop t pkt Obs.Event.Tail
  end
  else begin
    if t.len = Array.length t.pkts then grow t;
    let now = Sim.now t.sim in
    let slot = (t.head + t.len) land (Array.length t.pkts - 1) in
    t.pkts.(slot) <- pkt;
    t.admitted_at.(slot) <- now;
    t.len <- t.len + 1;
    t.bytes <- t.bytes + pkt.Packet.size;
    Obs.Metrics.incr m_enqueued;
    Obs.Metrics.set m_queue_bytes (float_of_int t.bytes);
    if Obs.Trace.on_flow Obs.Category.Pkt ~flow:pkt.Packet.flow then
      Obs.Trace.emit
        (Obs.Event.Enqueue
           { t = now; flow = pkt.Packet.flow; seq = pkt.Packet.seq;
             size = pkt.Packet.size; backlog = t.bytes });
    if not t.busy then start_service t
  end

let create ?(aqm = `Fifo) ?hooks ?const_rate ~sim ~rate_fn ~grain ~buffer_bytes
    ~loss_p ~rng ~deliver () =
  assert (buffer_bytes > 0);
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
      pkts = Array.make 64 no_pkt;
      admitted_at = Array.make 64 0.0;
      head = 0;
      len = 0;
      buffer_bytes;
      bytes = 0;
      drops = 0;
      codel = (match aqm with `Fifo -> None | `Codel -> Some (Codel.create ()));
      hooks;
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
      random_drops = 0;
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
