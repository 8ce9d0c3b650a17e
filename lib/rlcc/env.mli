(** Fluid single-bottleneck training environment.

    PPO needs hundreds of thousands of monitor-interval steps; a fluid
    queue integration (q' = q + (x - C) dt with overflow loss) yields
    exactly the throughput/RTT/loss statistics the reward observes at
    ~1000x the speed of the packet simulator. Trained policies are then
    evaluated on packets. *)

type cfg = {
  capacity : float;  (** bytes/s *)
  min_rtt : float;
  buffer : float;  (** bytes *)
  loss_p : float;
  mi_of_rtt : float;
  change_p : float;  (** per-step probability of a capacity jump *)
}

(** The paper's Sec. 4.2 default: 100 Mbit/s, 100 ms, 1 BDP buffer. *)
val default_cfg : cfg

(** The paper's training distribution: capacity 10-200 Mbit/s
    (log-uniform here, see DESIGN.md), RTT 10-200 ms, buffer
    10 KB-5 MB, loss 0-10%. *)
val random_cfg : Netsim.Rng.t -> cfg

type t

val create : ?seed:int -> cfg -> t

(** Start a new episode. The x_max normaliser deliberately survives
    resets (see the implementation comment). *)
val reset : t -> cfg -> unit

(** Full mutable state, including the generator position (the env's rng
    persists across episodes, so a bit-identical training resume must
    capture it). *)
type snapshot = {
  s_rng : int64 * int64;
  s_cfg : cfg;
  s_queue : float;
  s_rate_norm : float;
  s_min_rtt_seen : float;
  s_ack_gap : float;
  s_send_gap : float;
  s_prev_rtt : float;
  s_time : float;
}

val snapshot : t -> snapshot

(** Restore in place. Raises [Invalid_argument] if the snapshot's rng
    came from a different seed than [t] was created with. *)
val restore : t -> snapshot -> unit

val capacity : t -> float

(** Accumulated simulated time (seconds of monitor intervals stepped);
    used to stamp trace events with sim time rather than wall clock. *)
val time : t -> float

(** Simulate one monitor interval at the given sending rate. *)
val step : t -> rate:float -> Features.obs
