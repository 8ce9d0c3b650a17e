(** TCP Westwood+ : AIMD whose loss response sets the window to the
    estimated bandwidth-delay product instead of halving, giving
    robustness to non-congestion loss. Named by the paper's Sec. 7 as a
    classic CCA Libra's guidelines extend to. *)

(** Westwood+ over the given window. *)
val as_cca : Window.t -> Netsim.Cca.t

val make : unit -> Netsim.Cca.t

(** Westwood+ as a Libra subroutine (1-RTT exploration stage). *)
val embedded : unit -> Embedded.t
