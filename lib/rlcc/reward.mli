(** Reward-function design (paper Sec. 4.2, Alg. 2):

    r_t = w1 x/x_max - w2 d/d_min - w3 L

    with two studied knobs: the presence of the loss term (Tab. 3) and
    training on r vs the difference delta-r (Tab. 4). The [Utility_eq1]
    form is the "Modified RL" baseline (Eq. 1 as a reward). *)

type form =
  | Weighted
  | Utility_eq1 of Utility.params

type cfg = {
  w1 : float;
  w2 : float;
  w3 : float;
  include_loss : bool;
  use_delta : bool;
  form : form;
}

(** w1 = 1, w2 = 0.5, w3 = 10, loss term on, trained on raw r. The
    paper's full-scale setup prefers delta-r; at this repository's
    scaled-down training delta-r removes the level penalty and fails to
    train (documented in DESIGN.md; Tab. 4 bench compares both). *)
val default : cfg

(** Normalised Eq. 1 reward for the Modified-RL baseline. *)
val modified_rl : cfg

(** The raw reward value of an observation. *)
val value : cfg -> Features.obs -> float

(** Stateful producer of the training signal (r or delta-r). *)
type tracker

val tracker : cfg -> tracker
val reset : tracker -> unit
val signal : tracker -> Features.obs -> float
