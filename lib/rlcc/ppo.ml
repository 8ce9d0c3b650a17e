(* Proximal Policy Optimization (Schulman et al. 2017) with a Gaussian
   policy over a one-dimensional action, as used by the paper's
   DRL-based CCA (Alg. 2) and by Aurora/Orca.

   Actor and critic are separate MLPs; the policy's log standard
   deviation is a single free parameter optimised jointly. Advantages
   use GAE(lambda). The clipped surrogate gradient flows only through
   the active branch of min(r A, clip(r) A), the textbook
   implementation. *)

type t = {
  actor : Nn.t;
  critic : Nn.t;
  log_std : float array;  (* length 1 *)
  log_std_grad : float array;
  actor_opt : Adam.t;
  critic_opt : Adam.t;
  log_std_opt : Adam.t;
}

let hidden = [ 32; 32 ]
let clip = 0.2
let entropy_coef = 0.003
let epochs = 4
let minibatch = 64
let gamma = 0.99
let lam = 0.95
let init_log_std = -0.5

type config = { state_dim : int; lr : float; seed : int }

let create cfg =
  let rng = Netsim.Rng.create cfg.seed in
  let actor =
    Nn.create ~rng:(Netsim.Rng.split rng) { Nn.input = cfg.state_dim; hidden; output = 1 }
  in
  let critic =
    Nn.create ~rng:(Netsim.Rng.split rng) { Nn.input = cfg.state_dim; hidden; output = 1 }
  in
  {
    actor;
    critic;
    log_std = [| init_log_std |];
    log_std_grad = [| 0.0 |];
    actor_opt = Adam.create ~lr:cfg.lr (Nn.n_params actor);
    critic_opt = Adam.create ~lr:cfg.lr (Nn.n_params critic);
    log_std_opt = Adam.create ~lr:cfg.lr 1;
  }

(* ---- snapshot / restore ----

   The learnable state of a policy is the two flat parameter vectors,
   the log-std scalar and the three optimisers' moments. A snapshot is
   a deep copy of exactly that, used by the trainer both for periodic
   checkpoints and to roll back a diverged (NaN/Inf) update. *)

type snapshot = {
  s_actor : float array;
  s_critic : float array;
  s_log_std : float;
  s_actor_opt : Adam.state;
  s_critic_opt : Adam.state;
  s_log_std_opt : Adam.state;
}

let snapshot (t : t) =
  {
    s_actor = Array.copy t.actor.Nn.params;
    s_critic = Array.copy t.critic.Nn.params;
    s_log_std = t.log_std.(0);
    s_actor_opt = Adam.export t.actor_opt;
    s_critic_opt = Adam.export t.critic_opt;
    s_log_std_opt = Adam.export t.log_std_opt;
  }

let restore (t : t) s =
  if
    Array.length s.s_actor <> Array.length t.actor.Nn.params
    || Array.length s.s_critic <> Array.length t.critic.Nn.params
  then invalid_arg "Ppo.restore: parameter count mismatch";
  Array.blit s.s_actor 0 t.actor.Nn.params 0 (Array.length s.s_actor);
  Array.blit s.s_critic 0 t.critic.Nn.params 0 (Array.length s.s_critic);
  t.log_std.(0) <- s.s_log_std;
  Adam.import t.actor_opt s.s_actor_opt;
  Adam.import t.critic_opt s.s_critic_opt;
  Adam.import t.log_std_opt s.s_log_std_opt

let arr_finite a =
  let ok = ref true in
  Array.iter (fun v -> if not (Float.is_finite v) then ok := false) a;
  !ok

(* A diverged update leaves NaN/Inf in the parameters; every later
   forward pass then silently poisons results, so the trainer checks
   this after each update and rolls back. *)
let all_finite (t : t) =
  arr_finite t.actor.Nn.params && arr_finite t.critic.Nn.params
  && Float.is_finite t.log_std.(0)

let log_2pi = log (2.0 *. Float.pi)

let log_prob (t : t) ~mean ~action =
  let sigma = exp t.log_std.(0) in
  let z = (action -. mean) /. sigma in
  (-0.5 *. z *. z) -. t.log_std.(0) -. (0.5 *. log_2pi)

(* Actor and critic have the same shape, so one Nn workspace serves
   both: each forward's outputs are read before the next forward.
   [dout] holds the upstream gradient rows of a minibatch's backward
   passes. *)
type ws = { nn : Nn.ws; dout : float array }

let workspace (t : t) ~rows = { nn = Nn.workspace t.actor ~rows; dout = Array.make rows 0.0 }

(* Mean action: deterministic evaluation-time behaviour. *)
let mean_action (t : t) ws state =
  Nn.set_input ws.nn ~row:0 state;
  (Nn.forward t.actor ws.nn ~rows:1).(0)

(* Sample an action and its log-probability; the critic does not run. *)
let sample (t : t) ws rng state =
  let mean = mean_action t ws state in
  let sigma = exp t.log_std.(0) in
  let action = mean +. (sigma *. Netsim.Rng.normal rng) in
  (action, log_prob t ~mean ~action)

(* The critic over [states], a block of the workspace's rows per
   forward. A row's value does not depend on its block. *)
let values (t : t) ws states =
  let n = Array.length states in
  let out = Array.make n 0.0 in
  let pos = ref 0 in
  while !pos < n do
    let rows = min (Nn.capacity ws.nn) (n - !pos) in
    for s = 0 to rows - 1 do
      Nn.set_input ws.nn ~row:s states.(!pos + s)
    done;
    Array.blit (Nn.forward t.critic ws.nn ~rows) 0 out !pos rows;
    pos := !pos + rows
  done;
  out

type transition = {
  state : float array;
  action : float;
  logp : float;
  val_est : float;
  reward : float;
}

(* GAE(lambda) over one episode; [last_value] bootstraps truncation. *)
let advantages ~transitions ~last_value =
  let n = Array.length transitions in
  let adv = Array.make n 0.0 in
  let ret = Array.make n 0.0 in
  let gae = ref 0.0 in
  for i = n - 1 downto 0 do
    let next_v = if i = n - 1 then last_value else transitions.(i + 1).val_est in
    let delta =
      transitions.(i).reward +. (gamma *. next_v) -. transitions.(i).val_est
    in
    gae := delta +. (gamma *. lam *. !gae);
    adv.(i) <- !gae;
    ret.(i) <- adv.(i) +. transitions.(i).val_est
  done;
  (adv, ret)

let normalise a =
  let n = float_of_int (Array.length a) in
  if n < 2.0 then a
  else begin
    let mean = Array.fold_left ( +. ) 0.0 a /. n in
    let var = Array.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.0)) 0.0 a /. n in
    let sd = Float.max 1e-6 (sqrt var) in
    Array.map (fun v -> (v -. mean) /. sd) a
  end

(* One PPO update over a batch of transitions. Each minibatch is one
   block of rows: one actor forward, the surrogate terms per transition
   in minibatch order, one actor backward, then the same for the critic.
   Parameters change only at the Adam steps, so this is the arithmetic
   of one forward/backward pair per transition. *)
let update (t : t) ws rng ~transitions ~last_value =
  let n = Array.length transitions in
  if Nn.capacity ws.nn < minibatch then
    invalid_arg "Ppo.update: the workspace holds fewer rows than a minibatch";
  if n > 0 then begin
    let adv_raw, ret = advantages ~transitions ~last_value in
    let adv = normalise adv_raw in
    let idx = Array.init n (fun i -> i) in
    let dout = ws.dout in
    for _ = 1 to epochs do
      (* Fisher-Yates shuffle. *)
      for i = n - 1 downto 1 do
        let j = Netsim.Rng.int rng (i + 1) in
        let tmp = idx.(i) in
        idx.(i) <- idx.(j);
        idx.(j) <- tmp
      done;
      let pos = ref 0 in
      while !pos < n do
        let batch = min minibatch (n - !pos) in
        Nn.zero_grads t.actor;
        Nn.zero_grads t.critic;
        t.log_std_grad.(0) <- 0.0;
        let scale = 1.0 /. float_of_int batch in
        for s = 0 to batch - 1 do
          Nn.set_input ws.nn ~row:s transitions.(idx.(!pos + s)).state
        done;
        (* Actor. *)
        let means = Nn.forward t.actor ws.nn ~rows:batch in
        for s = 0 to batch - 1 do
          let k = idx.(!pos + s) in
          let tr = transitions.(k) and a = adv.(k) and mean = means.(s) in
          let logp = log_prob t ~mean ~action:tr.action in
          let ratio = exp (logp -. tr.logp) in
          let active =
            if a >= 0.0 then ratio <= 1.0 +. clip else ratio >= 1.0 -. clip
          in
          let dlogp = if active then -.a *. ratio else 0.0 in
          let sigma = exp t.log_std.(0) in
          let z = (tr.action -. mean) /. sigma in
          (* dlogp/dmean = z / sigma; dlogp/dlog_std = z^2 - 1. *)
          let dmean = dlogp *. z /. sigma in
          dout.(s) <- dmean *. scale;
          t.log_std_grad.(0) <-
            t.log_std_grad.(0)
            +. (scale *. ((dlogp *. ((z *. z) -. 1.0)) -. entropy_coef))
        done;
        Nn.backward t.actor ws.nn ~rows:batch ~dout;
        (* Critic: 0.5 (V - R)^2. *)
        let v = Nn.forward t.critic ws.nn ~rows:batch in
        for s = 0 to batch - 1 do
          dout.(s) <- (v.(s) -. ret.(idx.(!pos + s))) *. scale
        done;
        Nn.backward t.critic ws.nn ~rows:batch ~dout;
        Adam.step t.actor_opt ~params:t.actor.Nn.params ~grads:t.actor.Nn.grads;
        Adam.step t.critic_opt ~params:t.critic.Nn.params ~grads:t.critic.Nn.grads;
        Adam.step t.log_std_opt ~params:t.log_std ~grads:t.log_std_grad;
        (* Keep the exploration noise in a sane band. *)
        t.log_std.(0) <- Float.min 0.5 (Float.max (-3.0) t.log_std.(0));
        pos := !pos + batch
      done
    done
  end
