(* Training loop: PPO over the fluid environment.

   Scaled down from the paper (2x512 nets, thousands of episodes on
   TensorFlow) to in-process size -- see DESIGN.md. The qualitative
   findings the paper derives from these runs (which state sets learn
   well, MIMD vs AIAD convergence, the role of the loss term and of
   delta-r) are what the benches reproduce. *)

type config = {
  episodes : int;
  steps_per_episode : int;
  seed : int;
  state_set : Features.set;
  reward : Reward.cfg;
  action : Actions.mode;
  env_mode : [ `Fixed of Env.cfg | `Randomized ];
}

let history = 5
let lr = 1e-3  (* Adam learning rate of every trained policy *)

let default_config =
  {
    episodes = 150;
    steps_per_episode = 160;
    seed = 23;
    state_set = Features.libra;
    reward = Reward.default;
    action = Actions.Mimd_orca;
    env_mode = `Fixed Env.default_cfg;
  }

type outcome = {
  policy : Ppo.t;
  episode_rewards : float array;
  (* Mean per-MI statistics over the last quarter of training, used by
     the Tab. 3 / Tab. 4 comparisons. *)
  final_throughput : float;  (* bytes/s *)
  final_rtt : float;  (* seconds *)
  final_loss : float;
  rollbacks : int;  (* diverged (NaN/Inf) updates rolled back *)
  config : config;
}

(* The identity of a training run: everything that shapes its output.
   Used as the policy-cache key (Pretrained) and to refuse resuming a
   snapshot under a different configuration. *)
let config_key (cfg : config) =
  let form =
    match cfg.reward.Reward.form with
    | Reward.Weighted -> "weighted"
    | Reward.Utility_eq1 { Utility.t_exp; alpha; beta; gamma } ->
      Printf.sprintf "eq1(%g,%g,%g,%g)" t_exp alpha beta gamma
  in
  Printf.sprintf
    "%s/%s/w=%g,%g,%g/loss=%b/delta=%b/%s/ep=%d/st=%d/seed=%d/h=%d/hid=%s/lr=%g/%s"
    cfg.state_set.Features.set_name (Actions.name cfg.action) cfg.reward.Reward.w1
    cfg.reward.Reward.w2 cfg.reward.Reward.w3 cfg.reward.Reward.include_loss
    cfg.reward.Reward.use_delta form cfg.episodes cfg.steps_per_episode cfg.seed
    history
    (String.concat "x" (List.map string_of_int Ppo.hidden))
    lr
    (match cfg.env_mode with
    | `Fixed e ->
      Printf.sprintf "fixed(%g,%g,%g,%g)" e.Env.capacity e.Env.min_rtt e.Env.buffer
        e.Env.loss_p
    | `Randomized -> "rand")

(* ---- snapshots ----

   A snapshot captures every mutable piece of the training loop —
   policy + optimiser moments, both generators' positions, the fluid
   env (whose rng persists across episodes), completed rewards and the
   tail accumulators — so a resumed run continues bit-identically to
   the uninterrupted one. *)

type snapshot = {
  snap_key : string;  (* config_key; resume refuses a mismatch *)
  snap_next : int;  (* first episode still to run *)
  snap_rewards : float array;  (* episodes [0, snap_next) *)
  snap_tail_thr : float;
  snap_tail_rtt : float;
  snap_tail_loss : float;
  snap_tail_n : int;
  snap_policy : Ppo.snapshot;
  snap_rng : int64 * int64;
  snap_env_rng : int64 * int64;
  snap_env : Env.snapshot;
  snap_rollbacks : int;
}

let run ?after_update ?(snapshot_every = 0) ?on_snapshot ?resume_from cfg =
  let state_dim = Features.set_width cfg.state_set * history in
  let policy = Ppo.create { Ppo.state_dim; lr; seed = cfg.seed } in
  let ws = Ppo.workspace policy in
  let rng = Netsim.Rng.create (cfg.seed * 31 + 7) in
  let env_rng = Netsim.Rng.create (cfg.seed * 131 + 11) in
  let env = Env.create ~seed:(cfg.seed + 1) Env.default_cfg in
  let rewards = Array.make cfg.episodes 0.0 in
  let tail_thr = ref 0.0 and tail_rtt = ref 0.0 and tail_loss = ref 0.0 in
  let tail_n = ref 0 in
  let rollbacks = ref 0 in
  let start_ep =
    match resume_from with
    | None -> 0
    | Some s ->
      if s.snap_key <> config_key cfg then
        invalid_arg "Train.run: snapshot from a different configuration";
      if s.snap_next > cfg.episodes then
        invalid_arg "Train.run: snapshot beyond configured episodes";
      Ppo.restore policy s.snap_policy;
      Netsim.Rng.set_state rng s.snap_rng;
      Netsim.Rng.set_state env_rng s.snap_env_rng;
      Env.restore env s.snap_env;
      Array.blit s.snap_rewards 0 rewards 0 s.snap_next;
      tail_thr := s.snap_tail_thr;
      tail_rtt := s.snap_tail_rtt;
      tail_loss := s.snap_tail_loss;
      tail_n := s.snap_tail_n;
      rollbacks := s.snap_rollbacks;
      s.snap_next
  in
  let take_snapshot next =
    {
      snap_key = config_key cfg;
      snap_next = next;
      snap_rewards = Array.sub rewards 0 next;
      snap_tail_thr = !tail_thr;
      snap_tail_rtt = !tail_rtt;
      snap_tail_loss = !tail_loss;
      snap_tail_n = !tail_n;
      snap_policy = Ppo.snapshot policy;
      snap_rng = Netsim.Rng.state rng;
      snap_env_rng = Netsim.Rng.state env_rng;
      snap_env = Env.snapshot env;
      snap_rollbacks = !rollbacks;
    }
  in
  (* The divergence guard's rollback target. After a resume this is the
     snapshot state, which — by the guard's own invariant — is the last
     finite state, exactly as in the uninterrupted run. *)
  let last_good = ref (Ppo.snapshot policy) in
  let tail_from = cfg.episodes - max 1 (cfg.episodes / 4) in
  for ep = start_ep to cfg.episodes - 1 do
    let env_cfg =
      match cfg.env_mode with
      | `Fixed c -> c
      | `Randomized -> Env.random_cfg env_rng
    in
    Env.reset env env_cfg;
    (* Each episode restarts the fluid env's clock at 0. *)
    if Obs.Trace.on Obs.Category.Run then
      Obs.Trace.emit
        (Obs.Event.Run_start
           { t = Env.time env; label = Printf.sprintf "episode %d" ep });
    let history = Features.History.create ~set:cfg.state_set ~h:history in
    let tracker = Reward.tracker cfg.reward in
    (* Start from a modest rate and let the policy steer. *)
    let rate = ref (Env.capacity env /. 8.0) in
    let obs0 = Env.step env ~rate:!rate in
    Features.History.push history obs0;
    ignore (Reward.signal tracker obs0);
    let transitions = ref [] in
    let total = ref 0.0 in
    for step = 1 to cfg.steps_per_episode do
      (* One training step = one unit of deterministic deadline budget
         (the analogue of the sim loop's per-event tick). *)
      Netsim.Budget.tick ();
      let state = Features.History.state history in
      let action, logp, val_est = Ppo.sample policy ws rng state in
      let action = Actions.clamp cfg.action action in
      rate :=
        Actions.apply cfg.action ~rate:!rate ~min_rtt:env_cfg.Env.min_rtt
          ~mss:Netsim.Units.mtu action;
      let obs = Env.step env ~rate:!rate in
      Features.History.push history obs;
      let reward = Reward.signal tracker obs in
      if Obs.Trace.on Obs.Category.Rl then
        Obs.Trace.emit
          (Obs.Event.Rl_step
             { t = Env.time env; episode = ep; step; rate = !rate; reward;
               action });
      (* Learning curves plot the raw per-MI reward value (a delta-r
         training signal telescopes to ~0 per episode and hides
         progress). *)
      total := !total +. Reward.value cfg.reward obs;
      transitions := { Ppo.state; action; logp; val_est; reward } :: !transitions;
      if ep >= tail_from then begin
        tail_thr := !tail_thr +. obs.Features.throughput;
        tail_rtt := !tail_rtt +. obs.Features.avg_rtt;
        tail_loss := !tail_loss +. obs.Features.loss_rate;
        incr tail_n
      end
    done;
    let transitions = Array.of_list (List.rev !transitions) in
    let last_value = Ppo.value policy ws (Features.History.state history) in
    Ppo.update policy ws rng ~transitions ~last_value;
    (match after_update with Some h -> h ~ep policy | None -> ());
    (* Divergence guard: a NaN/Inf parameter after the update would
       poison every later forward pass, so roll the policy (and its
       optimiser moments) back to the last finite state and continue. *)
    if Ppo.all_finite policy then last_good := Ppo.snapshot policy
    else begin
      Ppo.restore policy !last_good;
      incr rollbacks;
      if Obs.Trace.on Obs.Category.Harness then
        Obs.Trace.emit
          (Obs.Event.Harness
             {
               t = Env.time env;
               kind = Checkpoint;
               id = "train";
               detail = "nan-rollback";
               attempt = ep;
               value = float_of_int !rollbacks;
             })
    end;
    rewards.(ep) <- !total;
    (match on_snapshot with
    | Some f when snapshot_every > 0 && (ep + 1) mod snapshot_every = 0 ->
      f ~episode:(ep + 1) (take_snapshot (ep + 1))
    | _ -> ())
  done;
  let n = float_of_int (max 1 !tail_n) in
  {
    policy;
    episode_rewards = rewards;
    final_throughput = !tail_thr /. n;
    final_rtt = !tail_rtt /. n;
    final_loss = !tail_loss /. n;
    rollbacks = !rollbacks;
    config = cfg;
  }

(* Greedy evaluation rollouts of a trained policy.

   Unlike training episodes (which are serial because PPO updates the
   policy between them), evaluation episodes are fully independent:
   each draws its own environment and history from an explicit
   per-episode seed, so they fan out across the domain pool and the
   in-order reduction makes the result identical at any pool size. *)

type eval = {
  episodes_run : int;
  mean_reward : float;  (* mean per-MI reward value *)
  mean_throughput : float;  (* bytes/s *)
  mean_rtt : float;  (* seconds *)
  mean_loss : float;
}

let eval_episode (outcome : outcome) ~seed =
  let cfg = outcome.config in
  let env_cfg =
    match cfg.env_mode with
    | `Fixed c -> c
    | `Randomized -> Env.random_cfg (Netsim.Rng.create (seed * 53 + 29))
  in
  let env = Env.create ~seed:(seed + 1) env_cfg in
  Env.reset env env_cfg;
  let history = Features.History.create ~set:cfg.state_set ~h:history in
  let ws = Ppo.workspace outcome.policy in
  let rate = ref (Env.capacity env /. 8.0) in
  let obs0 = Env.step env ~rate:!rate in
  Features.History.push history obs0;
  let reward_sum = ref 0.0 in
  let thr = ref 0.0 and rtt = ref 0.0 and loss = ref 0.0 in
  for _ = 1 to cfg.steps_per_episode do
    let state = Features.History.state history in
    let action = Actions.clamp cfg.action (Ppo.mean_action outcome.policy ws state) in
    rate :=
      Actions.apply cfg.action ~rate:!rate ~min_rtt:env_cfg.Env.min_rtt
        ~mss:Netsim.Units.mtu action;
    let obs = Env.step env ~rate:!rate in
    Features.History.push history obs;
    reward_sum := !reward_sum +. Reward.value cfg.reward obs;
    thr := !thr +. obs.Features.throughput;
    rtt := !rtt +. obs.Features.avg_rtt;
    loss := !loss +. obs.Features.loss_rate
  done;
  let n = float_of_int (max 1 cfg.steps_per_episode) in
  (!reward_sum /. n, !thr /. n, !rtt /. n, !loss /. n)

let evaluate ?pool ?(episodes = 16) ?(base_seed = 1009) outcome =
  let pool = match pool with Some p -> p | None -> Exec.Pool.default () in
  let per_episode =
    Exec.Pool.map pool
      (fun i -> eval_episode outcome ~seed:(base_seed + (257 * i)))
      (Array.init episodes (fun i -> i))
  in
  let n = float_of_int (max 1 episodes) in
  let sum f = Array.fold_left (fun a e -> a +. f e) 0.0 per_episode in
  {
    episodes_run = episodes;
    mean_reward = sum (fun (r, _, _, _) -> r) /. n;
    mean_throughput = sum (fun (_, t, _, _) -> t) /. n;
    mean_rtt = sum (fun (_, _, r, _) -> r) /. n;
    mean_loss = sum (fun (_, _, _, l) -> l) /. n;
  }

(* ---- snapshot (de)serialization ----

   Obs.Json renders numbers with %.9g, which loses low bits; a resumed
   run must continue *bit*-identically, so floats are written as %h hex
   strings (exact round trip, including nan/inf) and int64 generator
   words as decimal strings. *)

let jf v = Obs.Json.Str (Printf.sprintf "%h" v)
let jfa a = Obs.Json.List (List.map jf (Array.to_list a))
let ji v = Obs.Json.Num (float_of_int v)
let ji64 v = Obs.Json.Str (Int64.to_string v)
let jrng (a, b) = Obs.Json.List [ ji64 a; ji64 b ]

let f_of = function Obs.Json.Str s -> float_of_string_opt s | _ -> None

let fa_of = function
  | Obs.Json.List l -> (
    try
      Some
        (Array.of_list
           (List.map (fun j -> match f_of j with Some v -> v | None -> raise Exit) l))
    with Exit -> None)
  | _ -> None

let i_of = function Obs.Json.Num v -> Some (int_of_float v) | _ -> None
let i64_of = function Obs.Json.Str s -> Int64.of_string_opt s | _ -> None

let rng_of = function
  | Obs.Json.List [ a; b ] -> (
    match (i64_of a, i64_of b) with Some a, Some b -> Some (a, b) | _ -> None)
  | _ -> None

let adam_json (s : Adam.state) =
  Obs.Json.Obj [ ("m", jfa s.Adam.s_m); ("v", jfa s.Adam.s_v); ("steps", ji s.Adam.s_steps) ]

let adam_of j =
  let m k = Obs.Json.member k j in
  match (Option.bind (m "m") fa_of, Option.bind (m "v") fa_of, Option.bind (m "steps") i_of) with
  | Some s_m, Some s_v, Some s_steps -> Some { Adam.s_m; s_v; s_steps }
  | _ -> None

let env_cfg_json (c : Env.cfg) =
  Obs.Json.Obj
    [
      ("capacity", jf c.Env.capacity);
      ("min_rtt", jf c.Env.min_rtt);
      ("buffer", jf c.Env.buffer);
      ("loss_p", jf c.Env.loss_p);
      ("mi_of_rtt", jf c.Env.mi_of_rtt);
      ("change_p", jf c.Env.change_p);
    ]

let env_cfg_of j =
  let f k = Option.bind (Obs.Json.member k j) f_of in
  match
    (f "capacity", f "min_rtt", f "buffer", f "loss_p", f "mi_of_rtt", f "change_p")
  with
  | Some capacity, Some min_rtt, Some buffer, Some loss_p, Some mi_of_rtt, Some change_p
    -> Some { Env.capacity; min_rtt; buffer; loss_p; mi_of_rtt; change_p }
  | _ -> None

let env_json (s : Env.snapshot) =
  Obs.Json.Obj
    [
      ("rng", jrng s.Env.s_rng);
      ("cfg", env_cfg_json s.Env.s_cfg);
      ("queue", jf s.Env.s_queue);
      ("rate_norm", jf s.Env.s_rate_norm);
      ("min_rtt_seen", jf s.Env.s_min_rtt_seen);
      ("ack_gap", jf s.Env.s_ack_gap);
      ("send_gap", jf s.Env.s_send_gap);
      ("prev_rtt", jf s.Env.s_prev_rtt);
      ("time", jf s.Env.s_time);
    ]

let env_of j =
  let m k = Obs.Json.member k j in
  let f k = Option.bind (m k) f_of in
  match
    ( Option.bind (m "rng") rng_of,
      Option.bind (m "cfg") env_cfg_of,
      (f "queue", f "rate_norm", f "min_rtt_seen"),
      (f "ack_gap", f "send_gap", f "prev_rtt", f "time") )
  with
  | ( Some s_rng,
      Some s_cfg,
      (Some s_queue, Some s_rate_norm, Some s_min_rtt_seen),
      (Some s_ack_gap, Some s_send_gap, Some s_prev_rtt, Some s_time) ) ->
    Some
      {
        Env.s_rng;
        s_cfg;
        s_queue;
        s_rate_norm;
        s_min_rtt_seen;
        s_ack_gap;
        s_send_gap;
        s_prev_rtt;
        s_time;
      }
  | _ -> None

let policy_json (s : Ppo.snapshot) =
  Obs.Json.Obj
    [
      ("actor", jfa s.Ppo.s_actor);
      ("critic", jfa s.Ppo.s_critic);
      ("log_std", jf s.Ppo.s_log_std);
      ("actor_opt", adam_json s.Ppo.s_actor_opt);
      ("critic_opt", adam_json s.Ppo.s_critic_opt);
      ("log_std_opt", adam_json s.Ppo.s_log_std_opt);
    ]

let policy_of j =
  let m k = Obs.Json.member k j in
  match
    ( Option.bind (m "actor") fa_of,
      Option.bind (m "critic") fa_of,
      Option.bind (m "log_std") f_of,
      Option.bind (m "actor_opt") adam_of,
      Option.bind (m "critic_opt") adam_of,
      Option.bind (m "log_std_opt") adam_of )
  with
  | Some s_actor, Some s_critic, Some s_log_std, Some s_actor_opt, Some s_critic_opt,
    Some s_log_std_opt ->
    Some { Ppo.s_actor; s_critic; s_log_std; s_actor_opt; s_critic_opt; s_log_std_opt }
  | _ -> None

let snapshot_to_json s =
  Obs.Json.Obj
    [
      ("train_snapshot", Obs.Json.Num 1.0);
      ("key", Obs.Json.Str s.snap_key);
      ("next_episode", ji s.snap_next);
      ("rewards", jfa s.snap_rewards);
      ("tail_thr", jf s.snap_tail_thr);
      ("tail_rtt", jf s.snap_tail_rtt);
      ("tail_loss", jf s.snap_tail_loss);
      ("tail_n", ji s.snap_tail_n);
      ("policy", policy_json s.snap_policy);
      ("rng", jrng s.snap_rng);
      ("env_rng", jrng s.snap_env_rng);
      ("env", env_json s.snap_env);
      ("rollbacks", ji s.snap_rollbacks);
    ]

let snapshot_of_json j =
  let m k = Obs.Json.member k j in
  let str k = match m k with Some (Obs.Json.Str s) -> Some s | _ -> None in
  let f k = Option.bind (m k) f_of in
  let i k = Option.bind (m k) i_of in
  match
    ( (m "train_snapshot", str "key", i "next_episode"),
      (Option.bind (m "rewards") fa_of, f "tail_thr", f "tail_rtt", f "tail_loss",
       i "tail_n"),
      (Option.bind (m "policy") policy_of, Option.bind (m "rng") rng_of,
       Option.bind (m "env_rng") rng_of, Option.bind (m "env") env_of, i "rollbacks") )
  with
  | ( (Some (Obs.Json.Num 1.0), Some snap_key, Some snap_next),
      (Some snap_rewards, Some snap_tail_thr, Some snap_tail_rtt, Some snap_tail_loss,
       Some snap_tail_n),
      (Some snap_policy, Some snap_rng, Some snap_env_rng, Some snap_env,
       Some snap_rollbacks) )
    when Array.length snap_rewards = snap_next ->
    Some
      {
        snap_key;
        snap_next;
        snap_rewards;
        snap_tail_thr;
        snap_tail_rtt;
        snap_tail_loss;
        snap_tail_n;
        snap_policy;
        snap_rng;
        snap_env_rng;
        snap_env;
        snap_rollbacks;
      }
  | _ -> None

(* Smoothed learning curve for plotting (moving average). *)
let smooth ?(window = 10) curve =
  Array.mapi
    (fun i _ ->
      let lo = max 0 (i - window + 1) in
      let sum = ref 0.0 in
      for j = lo to i do
        sum := !sum +. curve.(j)
      done;
      !sum /. float_of_int (i - lo + 1))
    curve
