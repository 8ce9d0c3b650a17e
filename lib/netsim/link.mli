(** Shared bottleneck link: a byte-bounded FIFO buffer (tail drop at
    [buffer_bytes], optionally under CoDel's head drops) + time-varying-
    rate server + optional Bernoulli stochastic loss at ingress, with
    optional fault hooks (lib/faults builds them) for impairment
    pipelines and scheduled outages / rate clamps. Both disciplines keep
    their packets in one ring of (packet, admission time) slots. *)

type t

(** Fault-injection attachment points. [ingress] rewrites an arriving
    packet into the (packet, extra admission delay) copies to admit —
    empty list drops, several entries duplicate, positive delay defers
    (jitter / reordering). [shape_rate] rewrites the instantaneous
    service rate (outage windows force it to zero, clamps scale it). *)
type hooks = {
  ingress : now:float -> Packet.t -> (Packet.t * float) list;
  shape_rate : now:float -> float -> float;
}

(** [create ~sim ~rate_fn ~grain ~buffer_bytes ~loss_p ~rng ~deliver]
    builds a link whose service rate at time [now] is [rate_fn now]
    (bytes/s). When the rate is (near) zero the server retries every
    [grain] seconds. [deliver] fires when a packet finishes service.
    [aqm] picks the discipline: [`Fifo] (default) or [`Codel], whose
    control law may drop the head at dequeue. Requires
    [buffer_bytes > 0]. *)
val create :
  ?aqm:[ `Fifo | `Codel ] ->
  ?hooks:hooks ->
  ?const_rate:float ->
  sim:Sim.t ->
  rate_fn:(float -> float) ->
  grain:float ->
  buffer_bytes:int ->
  loss_p:float ->
  rng:Rng.t ->
  deliver:(Packet.t -> unit) ->
  unit ->
  t

(** Inject a packet at the link ingress. *)
val send : t -> Packet.t -> unit

(** Packets dropped by the queue (tail drop or CoDel). *)
val queue_drops : t -> int

(** Total bytes that completed service. *)
val delivered_bytes : t -> int

(** Packets dropped by the stochastic-loss process (not the queue). *)
val random_drops : t -> int

(** Bench/test hook: run one service completion directly — exactly the
    event the link schedules for itself — without spinning the event
    loop. The allocation-contract bench drives egress through this. *)
val drain_one : t -> unit
