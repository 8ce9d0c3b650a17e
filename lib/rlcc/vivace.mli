(** PCC Vivace (Dong et al., NSDI 2018): online gradient ascent on a
    utility function over sequence-tagged monitor intervals, with
    PCC's Starting / Probing / Moving phases. *)

type t

(** [eps] is the probe amplitude. The base rate starts at 2 Mbit/s; a
    decision moves it by 1 Mbit/s per unit gradient, times the
    confidence amplifier, and by at most 25% of the base. *)
val create : ?u:Utility.params -> ?eps:float -> unit -> t

(** Currently applied rate (probe rates included), bytes/s. *)
val rate : t -> float

(** The base operating rate, bytes/s. *)
val base_rate : t -> float

(** Gradient decisions taken so far. *)
val decisions : t -> int

val on_ack : t -> Netsim.Cca.ack_info -> unit
val on_send : t -> Netsim.Cca.send_info -> unit
val on_loss : t -> Netsim.Cca.loss_info -> unit

val as_cca : ?name:string -> t -> Netsim.Cca.t
val make : unit -> Netsim.Cca.t
