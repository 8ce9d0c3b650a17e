(** TCP Illinois: AIMD whose increase step alpha and decrease factor
    beta are modulated by the measured queueing delay. Named by the
    paper's Sec. 7 alongside Westwood. *)

(** The delay tracking over a window. *)
type t

val create : Window.t -> t

(** Current additive-increase step (packets per RTT). *)
val alpha : t -> float

val as_cca : t -> Netsim.Cca.t
val make : unit -> Netsim.Cca.t

(** Illinois as a Libra subroutine (1-RTT exploration stage). *)
val embedded : unit -> Embedded.t
