(** Rate processes: the time-varying capacity of the bottleneck link.
    A trace is a rate function (time -> bytes/s) plus its grain (the
    piecewise-constant step, also the link's outage retry interval). *)

type t

val name : t -> string

(** Rate at a time, bytes/s. *)
val fn : t -> float -> float

val grain : t -> float

(** Nominal mean rate, bytes/s. *)
val mean_bps : t -> float

(** [Some r] iff the trace's rate is constantly [r] bytes/s; lets the
    simulator short-circuit capacity integration. *)
val const_bps : t -> float option

(** Fixed-capacity wired link at the given Mbit/s, named
    ["wired-<mbps>Mbps"]. *)
val constant : float -> t

(** Capacity cycling through the Mbit/s levels every [period] seconds
    (the paper's "step-scenario"), named ["step"]. *)
val step : period:float -> float list -> t

(** Trace given as samples spaced [grain] apart; cycles when the run
    outlives the samples. *)
val of_samples : name:string -> grain:float -> float array -> t

(** Clamp the rate into [lo_mbps, hi_mbps]. *)
val clamp : lo_mbps:float -> hi_mbps:float -> t -> t

(** Scale the rate by a constant factor. *)
val scale : float -> t -> t
