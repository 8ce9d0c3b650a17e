(** PPO training loop over the fluid environment, scaled down from the
    paper's 2x512-net TensorFlow setup (see DESIGN.md). *)

type config = {
  episodes : int;
  steps_per_episode : int;
  seed : int;
  state_set : Features.set;
  reward : Reward.cfg;
  action : Actions.mode;
  env_mode : [ `Fixed of Env.cfg | `Randomized ];
}

(** Observations stacked into one policy state (the history length h),
    in training and wherever the policy is deployed. *)
val history : int

(** 150 episodes x 160 MIs on the fixed Sec. 4.2 environment, Libra
    state set, MIMD(2^a) actions. *)
val default_config : config

type outcome = {
  policy : Ppo.t;
  episode_rewards : float array;  (** raw reward value summed per episode *)
  final_throughput : float;  (** mean over the last training quarter *)
  final_rtt : float;
  final_loss : float;
  rollbacks : int;  (** diverged (NaN/Inf) updates rolled back *)
  config : config;
}

(** A string identifying everything that shapes a run's output: the
    policy-cache key, and the identity a resume snapshot is checked
    against. *)
val config_key : config -> string

(** Every mutable piece of the training loop at an episode boundary:
    policy + optimiser moments, both generator positions, the fluid env
    and the accumulators. Resuming from a snapshot continues
    bit-identically to the uninterrupted run. *)
type snapshot

(** Exact round trip (floats serialized as hex literals). *)
val snapshot_to_json : snapshot -> Obs.Json.t

(** [None] on shape mismatch (incompatible or torn snapshot). *)
val snapshot_of_json : Obs.Json.t -> snapshot option

(** [run cfg] trains a policy. Each PPO update is followed by a
    divergence guard that rolls NaN/Inf parameters back to the last
    finite state (counted in [outcome.rollbacks], emitting a [harness]
    trace event); [after_update ~ep policy] runs before the guard —
    tests use it to inject faults. With [snapshot_every = n > 0],
    [on_snapshot ~episode s] fires after every [n]-th episode;
    [resume_from] continues from a snapshot (raising [Invalid_argument]
    if its {!config_key} disagrees with [cfg]). Each training step
    charges one [Netsim.Budget] tick, so supervised runs can impose
    deterministic deadlines.

    The run owns one {!Ppo.ws} of {!Ppo.minibatch} rows, allocated once:
    the rollout samples the actor one row at a time, the critic's value
    estimates (each step's and the bootstrap [last_value]) run after the
    rollout in blocks of rows, and each update runs its minibatches as
    row blocks. The critic does not change during a rollout, so each
    estimate has the bits it would have had at its step. *)
val run :
  ?after_update:(ep:int -> Ppo.t -> unit) ->
  ?snapshot_every:int ->
  ?on_snapshot:(episode:int -> snapshot -> unit) ->
  ?resume_from:snapshot ->
  config ->
  outcome

type eval = {
  episodes_run : int;
  mean_reward : float;  (** mean per-MI reward value *)
  mean_throughput : float;  (** bytes/s *)
  mean_rtt : float;  (** seconds *)
  mean_loss : float;
}

(** Greedy (mean-action) rollouts of a trained policy over independent,
    per-episode-seeded environments, fanned out across [pool] (default:
    the shared pool); each episode owns a one-row workspace. Episode results reduce in episode order, so the
    outcome is identical at any pool size. *)
val evaluate : ?pool:Exec.Pool.t -> ?episodes:int -> ?base_seed:int -> outcome -> eval

(** Moving-average smoothing for plotted curves (10-episode
    window). *)
val smooth : float array -> float array
