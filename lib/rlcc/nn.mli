(** Minimal multilayer perceptron with manual backpropagation.

    Parameters live in one flat array so Adam can treat the network
    uniformly; gradients accumulate into a parallel array. Hidden
    layers are tanh, the output layer is linear. The domain-local
    {!forward_count} feeds the overhead accounting: the paper's CPU
    comparisons reduce to how often each CCA runs its DRL agent.

    {b Workspaces.} {!forward} and {!backward} allocate nothing: they
    write their scratch into a {!ws} that the caller owns. A [t] is
    only read by {!forward}, so one trained net may be shared by many
    agents on many domains, provided each keeps its own workspace. A
    workspace is never stored in a [t]: two domains writing one
    workspace would read each other's activations. *)

type spec = { input : int; hidden : int list; output : int }

type t = {
  spec : spec;
  params : float array;
  grads : float array;
  layers : (int * int * int * int) array;
}

(** Scratch for one forward/backward pair: every layer's activations
    and deltas. *)
type ws

(** Count of forward passes run {b on the calling domain}, for overhead
    ledgers; domain-local so parallel experiments don't cross-pollute. *)
val forward_count : unit -> int

(** Xavier-uniform initialisation from the given generator. *)
val create : ?rng:Netsim.Rng.t -> spec -> t

val n_params : t -> int

(** A fresh workspace shaped for [t] (and for any net of [t]'s spec). *)
val workspace : t -> ws

(** [forward t ws x] runs the net on [x] and returns the output row of
    [ws]. The row is overwritten by the next {!forward} on [ws]; copy
    what must outlive it. Raises [Invalid_argument] if [ws] or [x] has
    another shape. *)
val forward : t -> ws -> float array -> float array

(** [backward t ws ~dout] accumulates into [t.grads] the parameter
    gradients of the last {!forward} on [ws] for the upstream gradient
    [dout], and returns the input-gradient row of [ws] (valid until the
    next {!backward} on [ws]). Raises [Invalid_argument] unless that
    forward was [t]'s. *)
val backward : t -> ws -> dout:float array -> float array

val zero_grads : t -> unit
