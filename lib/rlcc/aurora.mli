(** Aurora (Jay et al., ICML 2019): a pure PPO rate controller with the
    latency-gradient / latency-ratio / send-ratio state space. *)

val default_initial_rate : float

(** Wrap any {!Agent.t} as a rate-based CCA (shared by Aurora and
    Modified-RL). *)
val make_from_agent : name:string -> agent:Agent.t -> unit -> Netsim.Cca.t

val make : ?seed:int -> unit -> Netsim.Cca.t
