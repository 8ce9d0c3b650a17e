(** Unit conventions and conversions.

    Time is in seconds, sizes in bytes, rates in bytes per second. The
    paper quotes Mbit/s and milliseconds; these helpers convert. *)

(** Default packet size in bytes (Ethernet MTU). *)
val mtu : int

val bytes_per_mbit : float

(** Megabits per second to bytes per second. *)
val mbps_to_bps : float -> float

(** Bytes per second to megabits per second. *)
val bps_to_mbps : float -> float

(** [kb n] is [n] kilobytes in bytes (decimal, as buffer sizes in the
    paper). *)
val kb : int -> int

val mb : int -> int

(** Bandwidth-delay product in bytes. *)
val bdp_bytes : rate_bps:float -> rtt_s:float -> int
