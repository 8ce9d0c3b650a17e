(** Synthetic wide-area paths standing in for the paper's live-Internet
    (EC2) experiments: a wobbling bottleneck (background cross
    traffic), stochastic loss, and the path's base RTT. Each preset's
    capacity process is drawn from its own fixed seed, so a preset is
    the same path in every run. *)

type path = {
  name : string;
  rate : Rate.t;
  rtt : float;
  loss_p : float;
  buffer_bytes : int;
}

(** ~180 ms RTT, 0.8% stochastic loss, wobbling 60 Mbit/s. *)
val inter_continental : duration:float -> unit -> path

(** ~40 ms RTT, 0.08% loss, 90 Mbit/s. *)
val intra_continental : duration:float -> unit -> path

(** GEO satellite path: 560 ms RTT, 2% stochastic loss, ~40 Mbit/s
    (the Sec. 7 "other networks" discussion). *)
val satellite : duration:float -> unit -> path

(** 5G mmWave-style link: 15 ms RTT with abrupt capacity swings between
    line-of-sight (~180 Mbit/s) and blocked (~25 Mbit/s) regimes. *)
val five_g : duration:float -> unit -> path
