(* "Modified RL" (paper Sec. 5): the DRL agent rewarded directly with
   the Eq. 1 utility, with no classic CCA and no Libra framework. The
   paper uses it to show that the utility function alone -- without the
   coupled rate-control algorithm -- does not deliver convergence or
   fairness. *)

let make ?(seed = 131) () =
  let agent =
    Agent.create ~seed ~initial_rate:Aurora.default_initial_rate
      (Pretrained.modified_rl_policy ())
  in
  Aurora.make_from_agent ~name:"mod-rl" ~agent ()
