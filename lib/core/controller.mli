(** Libra's three-stage control cycle (Alg. 1 / Fig. 3 of the paper).

    Exploration: starting from the base rate x_prev, the classic CCA
    evolves the applied rate per-ACK while the DRL agent shadows per
    monitor interval; the stage ends at its RTT budget or early when
    the candidates diverge by th1. Evaluation: both candidates are
    applied for one evaluation interval each, lower rate first.
    Exploitation: x_prev is applied while the evaluation feedback
    returns; at stage end the highest-utility rate becomes the next
    base rate.

    ACKs are attributed to the stage that *sent* the packet by
    sequence-number tagging, so each utility scores exactly the rate
    that produced the behaviour. *)

type stage = Exploration | Eval_low | Eval_high | Exploitation

type t

(** [create ~params ~classic ~outcome ()] builds a controller whose
    DRL agent deploys the trained [outcome]. [classic = None] is
    Clean-slate Libra: the second candidate becomes a 1.25x
    multiplicative probe of the base rate. *)
val create :
  ?initial_rate:float ->
  params:Params.t ->
  classic:Classic_cc.Embedded.t option ->
  outcome:Rlcc.Train.outcome ->
  unit ->
  t

val telemetry : t -> Telemetry.t

(** The controller's DRL agent (exposed for the watchdog tests, which
    inject a non-finite rate directly). *)
val agent : t -> Rlcc.Agent.t

(** Cycles in which the watchdog quarantined the DRL arm (non-finite
    rate or collapsed utility) and fell back to the classic arm. *)
val rl_fallbacks : t -> int

(** The current base sending rate x_prev, bytes/s. *)
val base_rate : t -> float

val stage : t -> stage

(* Measurement de-biasing helpers (see DESIGN.md 4b), exposed for
   property tests. *)

(** Per-window loss with pseudo-count shrinkage. *)
val shrunk_loss : Netsim.Monitor.snapshot -> float

(** 1 when RTT sits at its floor (discount fully applies), fading to 0
    at 1.5x the floor (standing queue: no discount). *)
val queue_free_fraction : Netsim.Monitor.snapshot -> float

(** Detrended, significance-filtered RTT slope. *)
val excess_grad : common:float -> Netsim.Monitor.snapshot -> float

val on_ack : t -> Netsim.Cca.ack_info -> unit
val on_loss : t -> Netsim.Cca.loss_info -> unit
val on_send : t -> Netsim.Cca.send_info -> unit

(** The rate currently in force (depends on the stage). *)
val pacing_rate : t -> now:float -> float

val cwnd : t -> now:float -> float

(** Package the controller as a CCA for the simulator. *)
val as_cca : name:string -> t -> Netsim.Cca.t
