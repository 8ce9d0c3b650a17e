(** TCP Vegas (Brakmo & Peterson 1995): delay-based; once per RTT the
    estimated queue occupancy steers the window between 2 and 4
    queued packets. Slow start ends at 64 packets. *)

val make : unit -> Netsim.Cca.t

(** Vegas as a Libra subroutine (1-RTT exploration stage). *)
val embedded : unit -> Embedded.t
