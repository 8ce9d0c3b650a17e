(** Orca (Abbasloo et al., SIGCOMM 2020): CUBIC underneath, with the
    DRL agent rescaling its window (cwnd * 2^a) every monitor interval
    -- and, unlike Libra, no evaluation step between the agent and the
    wire. *)

val make : seed:int -> Netsim.Cca.t
