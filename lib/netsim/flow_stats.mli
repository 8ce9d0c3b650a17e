(** Per-flow measurements: binned time series plus exact aggregates. *)

type t

(** [create ?bin ?initial_bins ()] uses a time grid of [bin] seconds
    (default 10 ms), preallocating [initial_bins] grid slots so the
    common case never grows mid-run. *)
val create : ?bin:float -> ?initial_bins:int -> unit -> t

val bin_width : t -> float

val record_delivery : t -> now:float -> bytes:int -> rtt:float -> unit
val record_loss : t -> now:float -> pkts:int -> unit
val record_send : t -> now:float -> bytes:int -> unit

val total_delivered_bytes : t -> int
val total_sent_bytes : t -> int
val total_lost_pkts : t -> int
val total_acked_pkts : t -> int

(** Mean RTT over all acknowledged packets; [nan] when none. *)
val mean_rtt : t -> float

(** lost / (lost + acked) packets. *)
val loss_rate : t -> float

(** [(bin centre time, bytes/s)] per bin. *)
val throughput_series : t -> (float * float) array

(** [(bin centre time, mean RTT)] per bin; [nan] for empty bins. *)
val rtt_series : t -> (float * float) array

(** Mean delivery rate (bytes/s) over [from_t, to_t]. *)
val mean_throughput : ?from_t:float -> ?to_t:float -> t -> float
