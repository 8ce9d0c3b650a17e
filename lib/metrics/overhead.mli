(** Decision-cost accounting (Fig. 2(c), Fig. 12): callbacks and
    neural-network forward passes inside a CCA's callbacks, priced at
    fixed per-operation pricing units (not measured costs).
    Deterministic by construction (counting, not timing), so overhead
    reports are bit-identical across runs and pool sizes. *)

type ledger = {
  mutable callbacks : int;
  mutable nn_forwards : int;
}

val create : unit -> ledger

(** Run a thunk, attributing its cost to the ledger. *)
val timed : ledger -> (unit -> 'a) -> 'a

(** Decorate a CCA so every callback is accounted. *)
val wrap : ledger -> Netsim.Cca.t -> Netsim.Cca.t

type report = {
  cpu_per_sim_s : float;  (** priced CPU seconds per simulated second *)
  forwards_per_sim_s : float;
  kwords_per_sim_s : float;  (** priced minor-heap kwords per simulated second *)
}

val report : ledger -> sim_seconds:float -> report
