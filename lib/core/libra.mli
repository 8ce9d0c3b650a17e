(** The Libra congestion-control framework (CoNEXT 2021): public
    entry points.

    Variants:
    - {!make_c_libra} — CUBIC underneath (the paper's primary config)
    - {!make_b_libra} — BBR underneath (3-RTT exploration stage)
    - {!make_clean_slate} — no classic CCA; the framework arbitrates
      between the DRL decision, a multiplicative probe and the
      incumbent rate
    - {!make_r_libra} — Reno underneath (extension exercising the
      Sec. 7 claim that the parameter guidelines carry to other AIMD
      CCAs)

    The first call pretrains the shared PPO policy in-process (a few
    seconds) and caches it for the rest of the program. *)

module Utility = Rlcc.Utility
module Params = Params
module Controller = Controller
module Telemetry = Telemetry
module Ideal = Ideal

(** A Libra instance plus its controller, for telemetry access
    (Fig. 17 / Fig. 18). *)
type instrumented = { cca : Netsim.Cca.t; controller : Controller.t }

val make_instrumented :
  ?params:Params.t ->
  ?initial_rate:float ->
  name:string ->
  classic:Classic_cc.Embedded.t option ->
  unit ->
  instrumented

val make_c_libra_instrumented :
  ?params:Params.t -> ?initial_rate:float -> unit -> instrumented

val make_b_libra_instrumented :
  ?params:Params.t -> ?initial_rate:float -> unit -> instrumented

val make_clean_slate_instrumented :
  ?params:Params.t -> ?initial_rate:float -> unit -> instrumented

val make_r_libra_instrumented :
  ?params:Params.t -> ?initial_rate:float -> unit -> instrumented

val make_c_libra : ?params:Params.t -> ?initial_rate:float -> unit -> Netsim.Cca.t
val make_b_libra : ?params:Params.t -> ?initial_rate:float -> unit -> Netsim.Cca.t
val make_clean_slate : ?params:Params.t -> ?initial_rate:float -> unit -> Netsim.Cca.t
val make_r_libra : ?params:Params.t -> ?initial_rate:float -> unit -> Netsim.Cca.t

(** [arena_bank ~table ~return_delay ~start_at ~stop_at n] adds [n]
    long-running Libra flows to an arena {!Netsim.Flow_table} and
    starts them, one independent controller per flow (seeds offset
    from [params.seed] by the flow index). Returns each arena handle
    paired with its controller for telemetry. [make] picks the variant
    (default {!make_c_libra_instrumented}). *)
val arena_bank :
  ?params:Params.t ->
  ?initial_rate:float ->
  ?make:(?params:Params.t -> ?initial_rate:float -> unit -> instrumented) ->
  table:Netsim.Flow_table.t ->
  return_delay:float ->
  start_at:float ->
  stop_at:float ->
  int ->
  (int * Controller.t) list

(** [with_preference ~preset make] builds a Libra variant with one of
    the Fig. 11 utility presets ("default", "Th-1", "Th-2", "La-1",
    "La-2"). Raises [Invalid_argument] on unknown presets. *)
val with_preference :
  preset:string ->
  ?base:Params.t ->
  (?params:Params.t -> ?initial_rate:float -> unit -> Netsim.Cca.t) ->
  Netsim.Cca.t
