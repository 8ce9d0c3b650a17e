(* A minimal multilayer perceptron with manual backpropagation.

   Parameters live in one flat array so the optimiser (Adam) can treat
   the whole network uniformly; gradients accumulate into a parallel
   array. Only what PPO needs is implemented: dense layers, tanh hidden
   activations, a linear output layer, and reverse-mode gradients for
   both parameters and (unused but tested) inputs.

   The kernel allocates nothing: a forward/backward pair writes its
   scratch (each layer's activations and deltas) into a caller-owned
   workspace, so one [t] can be read by many domains at once, each
   with its own workspace. Every float operation runs in the order of
   the plain one-neuron-at-a-time loops (see [forward]), so trained
   parameters do not depend on the blocking.

   A global forward counter feeds the overhead accounting: the paper's
   CPU-utilisation comparison (Fig. 2(c), Fig. 12) boils down to how
   often each CCA runs its DRL agent. *)

type spec = { input : int; hidden : int list; output : int }

type t = {
  spec : spec;
  params : float array;
  grads : float array;
  (* (w_offset, b_offset, in_dim, out_dim) per dense layer *)
  layers : (int * int * int * int) array;
}

type ws = {
  mutable last : float array;  (* params of the net whose forward ran last *)
  h : float array array;
      (* h.(0) the input; h.(l + 1) layer l's output (tanh for hidden
         layers, linear for the last) *)
  d : float array array;  (* d.(l) the gradient with respect to h.(l) *)
}

(* Domain-local so overhead ledgers on one domain are not polluted by
   simulations running concurrently on others (and increments race-free).
   A plain per-domain counter, not an [Obs.Ambient] slot: every reader
   brackets work that runs on one domain ([Metrics.Overhead.timed] wraps
   one CCA callback, bench/e2e one sequential pass). A pool fan-out
   inside such a bracket would lose the forwards its tasks run on other
   domains. *)
let forward_count_key = Domain.DLS.new_key (fun () -> ref 0)

let forward_count () = !(Domain.DLS.get forward_count_key)

let dims spec =
  let rec pair acc = function
    | a :: (b :: _ as rest) -> pair ((a, b) :: acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  pair [] ((spec.input :: spec.hidden) @ [ spec.output ])

let param_count spec =
  List.fold_left (fun acc (i, o) -> acc + (i * o) + o) 0 (dims spec)

let create ?(rng = Netsim.Rng.create 17) spec =
  let n = param_count spec in
  let params = Array.make n 0.0 in
  let layer_list = dims spec in
  let layers = Array.make (List.length layer_list) (0, 0, 0, 0) in
  let off = ref 0 in
  List.iteri
    (fun idx (in_dim, out_dim) ->
      let w_off = !off in
      let b_off = w_off + (in_dim * out_dim) in
      layers.(idx) <- (w_off, b_off, in_dim, out_dim);
      (* Xavier-uniform initialisation. *)
      let scale = sqrt (6.0 /. float_of_int (in_dim + out_dim)) in
      for k = 0 to (in_dim * out_dim) - 1 do
        params.(w_off + k) <- Netsim.Rng.uniform rng ~lo:(-.scale) ~hi:scale
      done;
      off := b_off + out_dim)
    layer_list;
  { spec; params; grads = Array.make n 0.0; layers }

let n_params t = Array.length t.params

let workspace t =
  let widths = Array.of_list ((t.spec.input :: t.spec.hidden) @ [ t.spec.output ]) in
  {
    last = [||];
    h = Array.map (fun w -> Array.make w 0.0) widths;
    d = Array.map (fun w -> Array.make w 0.0) (Array.sub widths 0 (Array.length t.layers));
  }

let check_shape t ws =
  let n = Array.length t.layers in
  if Array.length ws.h <> n + 1 then invalid_arg "Nn.forward: workspace of another shape";
  for l = 0 to n - 1 do
    let _, _, in_dim, out_dim = t.layers.(l) in
    if Array.length ws.h.(l) <> in_dim || Array.length ws.h.(l + 1) <> out_dim then
      invalid_arg "Nn.forward: workspace of another shape"
  done

(* Each output neuron sums its bias plus w_ji * x_i left to right over
   i, as the plain loop [for j .. for i ..] does. Four neurons share one
   pass over the input, each with its own accumulator, so the four add
   chains run side by side without reordering any of them; a scalar
   loop takes the [out_dim mod 4] tail. The stores are written out
   inline: a local closure would box every float it returns. *)
let forward t ws x =
  check_shape t ws;
  if Array.length x <> t.spec.input then invalid_arg "Nn.forward: input width";
  incr (Domain.DLS.get forward_count_key);
  Array.blit x 0 ws.h.(0) 0 (Array.length x);
  let p = t.params in
  let n = Array.length t.layers in
  for l = 0 to n - 1 do
    let w_off, b_off, in_dim, out_dim = t.layers.(l) in
    let x = ws.h.(l) and y = ws.h.(l + 1) in
    let j = ref 0 in
    while !j + 3 < out_dim do
      let j0 = !j in
      let r0 = w_off + (j0 * in_dim) in
      let r1 = r0 + in_dim in
      let r2 = r1 + in_dim in
      let r3 = r2 + in_dim in
      let a0 = ref p.(b_off + j0) in
      let a1 = ref p.(b_off + j0 + 1) in
      let a2 = ref p.(b_off + j0 + 2) in
      let a3 = ref p.(b_off + j0 + 3) in
      for i = 0 to in_dim - 1 do
        let xi = x.(i) in
        a0 := !a0 +. (p.(r0 + i) *. xi);
        a1 := !a1 +. (p.(r1 + i) *. xi);
        a2 := !a2 +. (p.(r2 + i) *. xi);
        a3 := !a3 +. (p.(r3 + i) *. xi)
      done;
      y.(j0) <- !a0;
      y.(j0 + 1) <- !a1;
      y.(j0 + 2) <- !a2;
      y.(j0 + 3) <- !a3;
      j := j0 + 4
    done;
    for j = !j to out_dim - 1 do
      let row = w_off + (j * in_dim) in
      let acc = ref p.(b_off + j) in
      for i = 0 to in_dim - 1 do
        acc := !acc +. (p.(row + i) *. x.(i))
      done;
      y.(j) <- !acc
    done;
    if l < n - 1 then
      for j = 0 to out_dim - 1 do
        y.(j) <- tanh y.(j)
      done
  done;
  ws.last <- t.params;
  ws.h.(n)

(* Accumulate parameter gradients for upstream gradient [dout]; returns
   the gradient with respect to the network input. A hidden layer's
   tanh' is 1 - h^2 from its stored output h = tanh pre. *)
let backward t ws ~dout =
  if ws.last != t.params then
    invalid_arg "Nn.backward: the workspace's last forward was another net's";
  if Array.length dout <> t.spec.output then invalid_arg "Nn.backward: dout width";
  let p = t.params and g = t.grads in
  let n = Array.length t.layers in
  for l = n - 1 downto 0 do
    let w_off, b_off, in_dim, out_dim = t.layers.(l) in
    (* Through the activation (output layer is linear). *)
    let dpre = if l = n - 1 then dout else ws.d.(l + 1) in
    if l < n - 1 then begin
      let h = ws.h.(l + 1) in
      for j = 0 to out_dim - 1 do
        dpre.(j) <- dpre.(j) *. (1.0 -. (h.(j) *. h.(j)))
      done
    end;
    let x = ws.h.(l) and dx = ws.d.(l) in
    Array.fill dx 0 in_dim 0.0;
    for j = 0 to out_dim - 1 do
      let row = w_off + (j * in_dim) in
      let dj = dpre.(j) in
      g.(b_off + j) <- g.(b_off + j) +. dj;
      for i = 0 to in_dim - 1 do
        g.(row + i) <- g.(row + i) +. (dj *. x.(i));
        dx.(i) <- dx.(i) +. (p.(row + i) *. dj)
      done
    done
  done;
  ws.d.(0)

let zero_grads t = Array.fill t.grads 0 (Array.length t.grads) 0.0
