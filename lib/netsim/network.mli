(** Dumbbell topology: n flows over one bottleneck link.

    Measured RTT = configured propagation RTT + queueing + serialization,
    so the configured value is the "minimum RTT" of the paper's setups. *)

type link_cfg = {
  rate_fn : float -> float;  (** time -> bytes/s *)
  const_rate : float option;  (** [Some r] iff [rate_fn] is constantly [r] *)
  grain : float;  (** trace granularity / outage retry, seconds *)
  buffer_bytes : int;
  loss_p : float;  (** Bernoulli stochastic loss probability *)
  aqm : [ `Fifo | `Codel ];  (** queue discipline at the bottleneck *)
}

type flow_cfg = {
  cca : Cca.t;
  start_at : float;
  stop_at : float;
  rtt : float;  (** two-way propagation delay, seconds *)
}

type result = { flow_id : int; cca_name : string; stats : Flow_stats.t }

type summary = {
  flows : result list;
  link_delivered_bytes : int;
  capacity_bytes : float;
  queue_drops : int;
  random_drops : int;
  duration : float;
  events : int;  (** simulator events executed during the run *)
  dispatched : int array;
      (** [events] by {!Sim.kind}: the flow table's send, RTO, ACK and
          start (kinds 0-3), then the link's service completion, outage
          retry and deferred admission (4-6) *)
}

(** Integral of the rate function over [0, duration] (bytes).
    [const_rate] short-circuits the step walk to [rate *. duration]. *)
val capacity_integral :
  ?const_rate:float ->
  rate_fn:(float -> float) ->
  grain:float ->
  duration:float ->
  unit ->
  float

(** Run the scenario to completion and return per-flow and link
    aggregates. [seed] drives the stochastic loss process.
    [dup_thresh] (default 1) is the senders' dup-ACK loss threshold;
    use 3 with impairments that reorder. [faults] builds the link's
    fault hooks from a keyed rng derived from [seed] -- attaching it
    does not perturb the link's own loss stream, and corrupted packets
    are discarded at the receiver (no ACK). Each configured CCA runs as
    a [Generic] flow of one {!Flow_table}; many-flow workloads that want
    native arena CCAs or lite stats build a table directly (see
    {!Population}). *)
val run :
  ?seed:int ->
  ?dup_thresh:int ->
  ?faults:(Rng.t -> Link.hooks) ->
  link:link_cfg ->
  flows:flow_cfg list ->
  duration:float ->
  unit ->
  summary

(** Bottleneck bytes delivered / bytes the link could have carried. *)
val utilization : summary -> float
