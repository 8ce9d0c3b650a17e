(* Libra's tunables, with the paper's defaults (Sec. 5 Setup, Sec. 7).

   Stage durations are in units of the estimated RTT. When
   [exploration_rtts] is [None] the classic CCA's own preference is
   used (1 RTT for CUBIC-like schemes, 3 for BBR); the exploitation
   stage mirrors the exploration stage, as in the paper's
   [1, 0.5, 1] / [3, 1, 3] stage patterns. *)

type t = {
  ei_rtts : float;  (* one evaluation interval, default 0.5 RTT *)
  exploration_rtts : float option;
  exploitation_rtts : float option;
  th1_frac : float;  (* early-exit threshold as a fraction of x_prev *)
  eval_lower_first : bool;  (* Fig. 4's "lower rate first" rule; the
                               ablation bench flips it *)
  utility : Rlcc.Utility.params;
  seed : int;  (* the DRL agent's sampling seed *)
}

let default =
  {
    ei_rtts = 0.5;
    exploration_rtts = None;
    exploitation_rtts = None;
    th1_frac = 0.3;
    eval_lower_first = true;
    utility = Rlcc.Utility.default;
    seed = 211;
  }
