(** Indigo-style imitation controller (see the implementation header
    for the substitution rationale): window towards a filtered BDP
    estimate with a conservative margin, reproducing Indigo's
    under-utilised equilibrium. *)

val make : unit -> Netsim.Cca.t
