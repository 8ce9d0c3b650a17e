(** Open-loop population traffic for the arena engine: flows arrive as
    a (optionally diurnally modulated) point process and carry finite,
    heavy-tailed transfer sizes — the mice-and-elephants workload the
    closed-loop fairness setups cannot express.

    All randomness comes from [Rng.split_key]-derived streams keyed on
    the parent seed alone, so runs are bit-deterministic at any
    worker-pool size. *)

(** Sinusoidal arrival-rate modulation:
    [rate *. (1 + amp*sin(2*pi*t/period))], floored at 5%. *)
type diurnal = { amp : float; period : float }

(** Poisson arrivals at [rate] flows/s, optionally modulated. Every
    arrival is a native-AIMD flow ({!Flow_table.Aimd}) of
    {!Units.mtu}-byte packets over a 40 ms two-way propagation delay,
    carrying a Pareto-sized transfer (scale 6,000 bytes, shape 1.2:
    ~24 KB median, infinite-variance elephant tail). At most 100,000
    flows spawn per call (a memory guard). *)
type cfg = { rate : float; diurnal : diurnal option }

(** [rate] defaults to 50 flows/s; no diurnal modulation. *)
val default : ?rate:float -> unit -> cfg

(** [sample_iat rng ~rate diurnal ~now] — next exponential
    inter-arrival gap in seconds at the modulated rate (exposed for
    property tests). *)
val sample_iat : Rng.t -> rate:float -> diurnal option -> now:float -> float

(** [sample_size rng ~xm ~alpha] — one Pareto transfer size in bytes,
    never below [xm] and at least 1 (exposed for property tests). *)
val sample_size : Rng.t -> xm:float -> alpha:float -> int

(** [spawn ~table ~rng ~cfg ~until] schedules the arrival process on
    the table's simulation: each arrival before [until] adds and starts
    one bounded flow. New handles occupy [flow_count] before the call
    up to [flow_count] once the run completes. The arrival streams come
    from [Rng.split_key rng] (keys 0xA11, 0x512E) and are insensitive
    to the parent's draw position. *)
val spawn : table:Flow_table.t -> rng:Rng.t -> cfg:cfg -> until:float -> unit
