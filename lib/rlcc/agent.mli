(** A trained PPO policy driving a sending rate per monitor interval in
    the packet simulator.

    ACKs accumulate into a monitor; when the MI (one minimum RTT)
    elapses the observation joins the feature history, the policy
    acts, and the action updates the rate. Agents sample the policy,
    reproducing the run-to-run variability the paper's Tab. 6
    measures. *)

type t

(** [create ~seed ~initial_rate outcome] deploys [outcome]'s policy
    with the state set and action space it was trained with. [seed]
    drives the agent's action sampling. The agent owns its own
    {!Ppo.ws}, so agents sharing one policy may run on any domains. *)
val create : seed:int -> initial_rate:float -> Train.outcome -> t

(** Current rate decision, bytes/s. *)
val rate : t -> float

(** Impose a rate (Libra resets the agent to the winning base rate at
    each cycle start; Orca mirrors CUBIC's rate in). Clamped to
    [1500, Actions.max_rate]. *)
val set_rate : t -> float -> unit

(** Decisions made so far. *)
val decisions : t -> int

(** Ambient loss level subtracted from the agent's loss feature
    (Libra's controller sets it; standalone agents leave it at 0). *)
val set_loss_discount : t -> float -> unit

(** Minimum RTT observed, seconds. *)
val min_rtt : t -> float

(** Restart the current monitor interval (called when Libra's
    exploration stage re-opens after the agent was dormant). *)
val begin_mi : t -> now:float -> unit

(** Track inter-send gaps for the (ii) feature. *)
val observe_send : t -> Netsim.Cca.send_info -> unit

(** Feed an ACK; [true] when it closed an MI and a decision was made.
    With no ACKs no decision fires and the rate persists (the paper's
    no-ACK rule). *)
val on_ack : t -> Netsim.Cca.ack_info -> bool

val on_timeout_loss : t -> pkts:int -> unit
