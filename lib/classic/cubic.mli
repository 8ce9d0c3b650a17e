(** CUBIC (Ha, Rhee, Xu 2008): the Linux default and Libra's primary
    underlying classic CCA (C-Libra). Window growth follows
    W(t) = C (t - K)^3 + W_max between loss events, with a
    TCP-friendly lower envelope. *)

(** The cubic epoch over a window. *)
type t

val create : Window.t -> t

(** Impose a window from outside (Orca's agent); restarts the cubic
    epoch. *)
val set_cwnd : t -> float -> unit

(** The cubic curve itself, exposed for tests. *)
val w_cubic : c:float -> k:float -> origin:float -> float -> float

val as_cca : t -> Netsim.Cca.t

(** A fresh standalone CUBIC flow controller. *)
val make : unit -> Netsim.Cca.t

(** CUBIC as a Libra subroutine (1-RTT exploration stage). *)
val embedded : unit -> Embedded.t
