(** Copa (Arun & Balakrishnan 2018): steers towards the target rate
    1 / (delta * queueing delay), delta = 0.5, with velocity doubling
    while the direction persists. *)

val make : unit -> Netsim.Cca.t

(** Copa as a Libra subroutine (1-RTT exploration stage). *)
val embedded : unit -> Embedded.t
