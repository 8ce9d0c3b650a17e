(* Reward-function design (paper Sec. 4.2, Alg. 2).

   r_t = w1 * x_t / x_max  -  w2 * d_t / d_min  -  w3 * L_t

   Two studied knobs: whether the loss term is present (Tab. 3) and
   whether the agent is trained on r or on the difference
   R_t = r_t - r_{t-1} (Tab. 4). *)

type form =
  | Weighted  (* w1 x/x_max - w2 d/d_min - w3 L, the paper's Alg. 2 *)
  | Utility_eq1 of Utility.params
      (* Eq. 1 on normalised throughput: the "Modified RL" baseline *)

type cfg = {
  w1 : float;
  w2 : float;
  w3 : float;
  include_loss : bool;
  use_delta : bool;
  form : form;
}

(* Default trains on the raw reward value. The paper's Tab. 4 prefers
   delta-r at full scale (2x512 nets, thousands of episodes); at this
   repository's scaled-down training sizes delta-r removes the level
   penalty ("send nothing" becomes a zero-reward fixed point) and fails
   to train, so the eval agents use r. The Tab. 4 bench compares both
   and EXPERIMENTS.md records the divergence. *)
let default =
  { w1 = 1.0; w2 = 0.5; w3 = 10.0; include_loss = true; use_delta = false; form = Weighted }

(* Eq. 1 on normalised throughput for RL training, with its own
   weights; Libra's evaluation stage scores raw rates with
   [Utility.default]. *)
let modified_rl =
  {
    default with
    use_delta = false;
    form = Utility_eq1 { Utility.t_exp = 0.9; alpha = 1.0; beta = 5.0; gamma = 5.0 };
  }

let value cfg (obs : Features.obs) =
  let x_max = Float.max 1.0 obs.Features.rate_norm in
  let d_min = Float.max 1e-4 obs.Features.min_rtt in
  match cfg.form with
  | Weighted ->
    let throughput_term = cfg.w1 *. obs.Features.throughput /. x_max in
    let delay_term = cfg.w2 *. obs.Features.avg_rtt /. d_min in
    let loss_term =
      if cfg.include_loss then cfg.w3 *. obs.Features.loss_rate else 0.0
    in
    throughput_term -. delay_term -. loss_term
  | Utility_eq1 params ->
    Utility.eval_raw params ~rate_mbps:(obs.Features.throughput /. x_max)
      ~rtt_gradient:obs.Features.rtt_gradient ~loss_rate:obs.Features.loss_rate

(* Stateful wrapper producing the final training signal (r or delta-r). *)
type tracker = { cfg : cfg; mutable prev : float; mutable initialised : bool }

let tracker cfg = { cfg; prev = 0.0; initialised = false }

let reset t =
  t.prev <- 0.0;
  t.initialised <- false

let signal t obs =
  let r = value t.cfg obs in
  if t.cfg.use_delta then begin
    let out = if t.initialised then r -. t.prev else 0.0 in
    t.prev <- r;
    t.initialised <- true;
    out
  end
  else r
