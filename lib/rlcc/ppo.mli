(** Proximal Policy Optimization with a Gaussian policy over a
    one-dimensional action (the paper's DRL-based CCA, Alg. 2).

    Actor and critic are separate MLPs; the log standard deviation is a
    single free parameter optimised jointly; advantages use GAE. The
    hyperparameters are fixed: 2x32 tanh nets, clip 0.2, entropy bonus
    0.003, 4 epochs of 64-sample minibatches, gamma 0.99, lambda 0.95,
    initial log-std -0.5. *)

type t = {
  actor : Nn.t;
  critic : Nn.t;
  log_std : float array;
  log_std_grad : float array;
  actor_opt : Adam.t;
  critic_opt : Adam.t;
  log_std_opt : Adam.t;
}

(** Hidden layer widths of both nets. *)
val hidden : int list

(** [state_dim] inputs, Adam learning rate [lr], initialisation seed. *)
type config = { state_dim : int; lr : float; seed : int }

val create : config -> t

(** Deep copy of the learnable state: parameter vectors, log-std and
    the three optimisers' moments. *)
type snapshot = {
  s_actor : float array;
  s_critic : float array;
  s_log_std : float;
  s_actor_opt : Adam.state;
  s_critic_opt : Adam.state;
  s_log_std_opt : Adam.state;
}

val snapshot : t -> snapshot

(** Overwrite the policy's learnable state in place. Raises
    [Invalid_argument] when shapes differ (snapshot from another
    architecture). *)
val restore : t -> snapshot -> unit

(** False iff any parameter (or the log-std) went NaN/Inf — the
    trainer's divergence guard. *)
val all_finite : t -> bool

(** Log-density of [action] under the current Gaussian at [mean]. *)
val log_prob : t -> mean:float -> action:float -> float

(** Scratch for the actor's and the critic's forward and backward
    passes: an {!Nn.ws} of some number of rows and as many upstream
    gradient rows. A [t] is read-only to {!mean_action}, {!sample} and
    {!values}, so a trained policy is shared by every agent on every
    domain; each caller owns its workspace, and a workspace is never
    stored in a [t]. Agents and evaluation episodes keep one-row
    workspaces; the trainer owns one of {!minibatch} rows for its
    rollouts, value estimates and updates. *)
type ws

(** Transitions per PPO minibatch (64): the rows an {!update}
    workspace needs. *)
val minibatch : int

(** [workspace t ~rows] is a fresh workspace of [rows] rows shaped for
    [t]'s nets. *)
val workspace : t -> rows:int -> ws

(** Deterministic action: the Gaussian's mean (greedy evaluation). One
    actor forward. *)
val mean_action : t -> ws -> float array -> float

(** Sample (action, log-prob): one actor forward and one normal draw;
    the critic does not run. *)
val sample : t -> ws -> Netsim.Rng.t -> float array -> float * float

(** [values t ws states] is the critic's value estimate of each state,
    run a block of the workspace's rows per forward. Each value has the
    bits of a one-row forward of its state. *)
val values : t -> ws -> float array array -> float array

type transition = {
  state : float array;
  action : float;
  logp : float;
  val_est : float;
  reward : float;
}

(** GAE(lambda) advantages and returns over one episode; [last_value]
    bootstraps truncation. *)
val advantages :
  transitions:transition array -> last_value:float -> float array * float array

(** One PPO update (epochs x shuffled minibatches) over a batch. Each
    minibatch runs as one block of rows through each net, with the
    arithmetic, and so the bits, of one forward/backward pair per
    transition. Raises [Invalid_argument] if [ws] has fewer than
    {!minibatch} rows. *)
val update :
  t -> ws -> Netsim.Rng.t -> transitions:transition array -> last_value:float -> unit
