(** Adam optimiser (Kingma & Ba 2015) over a flat parameter vector. *)

type t

(** [create ~lr n] holds first/second-moment state for [n] parameters
    at learning rate [lr] (beta1 0.9, beta2 0.999, eps 1e-8). *)
val create : lr:float -> int -> t

(** One bias-corrected update step; [params] is modified in place. *)
val step : t -> params:float array -> grads:float array -> unit

(** The optimiser's mutable state (first/second moments + step count),
    for checkpointing and NaN-rollback. The learning rate is immutable
    and not captured. *)
type state = { s_m : float array; s_v : float array; s_steps : int }

(** A deep copy of the current state. *)
val export : t -> state

(** Overwrite [t]'s state in place. Raises [Invalid_argument] when the
    parameter counts differ. *)
val import : t -> state -> unit
