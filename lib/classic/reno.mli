(** TCP NewReno-style AIMD: slow start, one-packet-per-RTT congestion
    avoidance, multiplicative decrease on loss. The pattern for a
    window CCA: a control law over a {!Window.t}. *)

(** Reno over the given window. *)
val as_cca : Window.t -> Netsim.Cca.t

val make : unit -> Netsim.Cca.t

(** Reno as a Libra subroutine (1-RTT exploration stage). *)
val embedded : unit -> Embedded.t
