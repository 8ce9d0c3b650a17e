(** "Modified RL" (paper Sec. 5): the DRL agent rewarded directly with
    the Eq. 1 utility, with no classic CCA and no Libra framework --
    the baseline showing that the utility function alone does not
    deliver convergence or fairness. *)

val make : seed:int -> Netsim.Cca.t
