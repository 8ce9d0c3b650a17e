(** The flow engine: flows as int handles into struct-of-arrays state,
    scheduled entirely through int-coded simulator events.

    Senders pace at their CCA's rate, capped by its window; loss is
    detected by dup-ACK counting (threshold [dup_thresh]) with an RTO
    for tail losses, and lost data is not retransmitted. Every send and
    ACK re-arms the RTO; each flow keeps one pending RTO event, moved
    lazily through {!Sim.ticket} and {!Sim.at_ticket}, so re-arms cost
    no heap events while the timeout fires exactly when an event per
    arm would. ACK handling resolves packets in O(1), and the
    steady-state ACK path allocates nothing on the minor heap when
    tracing is off. {!Network.run} runs configured CCAs on a table;
    many-flow workloads (the population traffic model) build one
    directly.

    A table registers its four event kinds (send, RTO, ACK, start) on
    the simulation at {!create}. *)

type t

(** Congestion control for an arena flow. [Aimd] (slow start +
    additive-increase / halve-on-loss) runs natively on the arrays with
    no per-ACK allocation; [Generic] delegates to closure-based
    {!Cca.t} callbacks (allocates per ACK; every CCA of {!Network.run}
    takes this path). *)
type cca = Aimd | Generic of Cca.t

(** [create ?capacity ?lite ~sim ()] — [capacity] presizes the arena
    (it grows by doubling); [lite] skips per-flow {!Flow_stats} time
    series (10 ms bins) and keeps only scalar aggregates, the right mode
    for thousands of short flows. *)
val create : ?capacity:int -> ?lite:bool -> sim:Sim.t -> unit -> t

(** Attach the bottleneck link all flows send into. *)
val attach : t -> Link.t -> unit

(** Add a flow; returns its handle. Every packet is {!Units.mtu}
    bytes. [size_bytes] bounds the transfer (the flow completes once
    that many bytes are delivered, recording its completion time);
    omitted means an unbounded source. *)
val add_flow :
  t ->
  cca:cca ->
  return_delay:float ->
  start_at:float ->
  stop_at:float ->
  ?dup_thresh:int ->
  ?size_bytes:int ->
  unit ->
  int

(** Schedule the flow's first send at its [start_at]. *)
val start : t -> int -> unit

(** Mark a flow finished (stops sending and ACK processing). *)
val finish : t -> int -> unit

val flow_count : t -> int
val sim : t -> Sim.t

(** Link-delivery callback: pass as the link's [deliver] to route
    egress packets back as ACK events after each flow's return
    delay (corrupt packets are discarded — no ACK). *)
val on_pkt_delivered : t -> Packet.t -> unit

(** {2 Per-flow accessors} *)

val cca_name : t -> int -> string
val return_delay : t -> int -> float

(** Full-mode per-flow time series; raises in [lite] mode. *)
val stats : t -> int -> Flow_stats.t

val delivered_bytes : t -> int -> int
val acked_pkts : t -> int -> int
val lost_pkts : t -> int -> int
val inflight : t -> int -> int

(** Mean/min RTT over acknowledged packets; [nan]/[inf] when none. *)
val mean_rtt : t -> int -> float

val min_rtt : t -> int -> float
val finished : t -> int -> bool

(** The flow's configured [start_at] (FCT = completion - start). *)
val start_time : t -> int -> float

(** Completion instant of a bounded flow; [nan] while running. *)
val completion_time : t -> int -> float

(** {2 Bench/test hooks} *)

(** Process the ACK for [(flow, seq)] at the current sim time — exactly
    the ACK event's handler. The allocation-contract bench drives the
    ACK path through this without spinning the event loop. *)
val deliver_ack : t -> int -> int -> unit

(** Emit one packet immediately, bypassing pacing and window (preloads
    inflight state for the allocation bench). *)
val bench_send : t -> int -> unit
