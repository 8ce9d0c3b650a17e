(** Minimal multilayer perceptron with manual backpropagation.

    Parameters live in one flat array so Adam can treat the network
    uniformly; gradients accumulate into a parallel array. Hidden
    layers are tanh, the output layer is linear. The domain-local
    {!forward_count} feeds the overhead accounting: the paper's CPU
    comparisons reduce to how often each CCA runs its DRL agent.

    {b Rows.} {!forward} and {!backward} run a block of rows (one input
    vector each, e.g. a PPO minibatch's transitions) per call; a
    one-row call is the [rows = 1] case of the same loops. Every output
    and every gradient entry has the bits the plain loops give when run
    one row at a time, in row order, whatever the row count. Only
    parameter gradients are computed: there is no gradient with respect
    to the input.

    {b Workspaces.} {!forward} and {!backward} allocate nothing: they
    write their scratch (each layer's activations and deltas, row-major,
    up to the workspace's capacity of rows) into a {!ws} that the caller
    owns. A [t] is only read by {!forward}, so one trained net may be
    shared by many agents on many domains, provided each keeps its own
    workspace. A workspace is never stored in a [t]: two domains
    writing one workspace would read each other's activations. *)

type spec = { input : int; hidden : int list; output : int }

type t = {
  spec : spec;
  params : float array;
  grads : float array;
  layers : (int * int * int * int) array;
}

(** Scratch for one forward/backward pair over up to its capacity of
    rows: every layer's activations and deltas. *)
type ws

(** Count of forward rows run {b on the calling domain} (a [k]-row
    {!forward} adds [k]), for overhead ledgers; domain-local so
    parallel experiments don't cross-pollute. *)
val forward_count : unit -> int

(** Xavier-uniform initialisation from the given generator. *)
val create : ?rng:Netsim.Rng.t -> spec -> t

val n_params : t -> int

(** [workspace t ~rows] is a fresh workspace of [rows] rows (its
    capacity) shaped for [t] (and for any net of [t]'s spec). *)
val workspace : t -> rows:int -> ws

(** The rows a workspace holds. *)
val capacity : ws -> int

(** [set_input ws ~row x] copies [x] into input row [row] of [ws], for
    the next {!forward}. Raises [Invalid_argument] if [x] has another
    width or [row] is outside [0, capacity). *)
val set_input : ws -> row:int -> float array -> unit

(** [forward t ws ~rows] runs the net on input rows [0, rows) of [ws]
    and returns the output block of [ws]: row [s]'s outputs start at
    [s * spec.output]. The block is overwritten by the next {!forward}
    on [ws]; copy what must outlive it. Raises [Invalid_argument] if
    [ws] has another shape or [rows] is outside [1, capacity]. *)
val forward : t -> ws -> rows:int -> float array

(** [backward t ws ~rows ~dout] adds into [t.grads] the parameter
    gradients of the first [rows] rows of the last {!forward} on [ws],
    for the upstream gradient rows [dout] (row [s] at [s * spec.output]).
    Each entry gets its rows' terms added in row order. Raises
    [Invalid_argument] unless that forward was [t]'s over at least
    [rows] rows and [dout] holds [rows] rows. *)
val backward : t -> ws -> rows:int -> dout:float array -> unit

val zero_grads : t -> unit
