(* A minimal multilayer perceptron with manual backpropagation.

   Parameters live in one flat array so the optimiser (Adam) can treat
   the whole network uniformly; gradients accumulate into a parallel
   array. Only what PPO needs is implemented: dense layers, tanh/relu
   hidden activations, a linear output layer, and reverse-mode gradients
   for both parameters and (unused but tested) inputs.

   A global forward counter feeds the overhead accounting: the paper's
   CPU-utilisation comparison (Fig. 2(c), Fig. 12) boils down to how
   often each CCA runs its DRL agent. *)

type activation = Tanh | Relu

type spec = {
  input : int;
  hidden : int list;
  output : int;
  hidden_act : activation;
}

type t = {
  spec : spec;
  params : float array;
  grads : float array;
  (* (w_offset, b_offset, in_dim, out_dim) per dense layer *)
  layers : (int * int * int * int) array;
}

type cache = {
  inputs : float array array;  (* input to each layer *)
  preacts : float array array;  (* pre-activation of each layer *)
  out : float array;
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

let act t v = match t.spec.hidden_act with Tanh -> tanh v | Relu -> Float.max 0.0 v

let act_grad t pre =
  match t.spec.hidden_act with
  | Tanh ->
    let h = tanh pre in
    1.0 -. (h *. h)
  | Relu -> if pre > 0.0 then 1.0 else 0.0

let forward t x =
  assert (Array.length x = t.spec.input);
  incr (Domain.DLS.get forward_count_key);
  let n_layers = Array.length t.layers in
  let inputs = Array.make n_layers [||] in
  let preacts = Array.make n_layers [||] in
  let cur = ref x in
  for l = 0 to n_layers - 1 do
    let w_off, b_off, in_dim, out_dim = t.layers.(l) in
    inputs.(l) <- !cur;
    let pre = Array.make out_dim 0.0 in
    for j = 0 to out_dim - 1 do
      let acc = ref t.params.(b_off + j) in
      let row = w_off + (j * in_dim) in
      for i = 0 to in_dim - 1 do
        acc := !acc +. (t.params.(row + i) *. !cur.(i))
      done;
      pre.(j) <- !acc
    done;
    preacts.(l) <- pre;
    if l < n_layers - 1 then cur := Array.map (act t) pre else cur := pre
  done;
  { inputs; preacts; out = !cur }

let output cache = cache.out

(* Accumulate parameter gradients for upstream gradient [dout]; returns
   the gradient with respect to the network input. *)
let backward t cache ~dout =
  let n_layers = Array.length t.layers in
  assert (Array.length dout = t.spec.output);
  let dcur = ref dout in
  for l = n_layers - 1 downto 0 do
    let w_off, b_off, in_dim, out_dim = t.layers.(l) in
    (* Through the activation (output layer is linear). *)
    let dpre =
      if l = n_layers - 1 then !dcur
      else Array.mapi (fun j d -> d *. act_grad t cache.preacts.(l).(j)) !dcur
    in
    let x = cache.inputs.(l) in
    let dx = Array.make in_dim 0.0 in
    for j = 0 to out_dim - 1 do
      let row = w_off + (j * in_dim) in
      t.grads.(b_off + j) <- t.grads.(b_off + j) +. dpre.(j);
      for i = 0 to in_dim - 1 do
        t.grads.(row + i) <- t.grads.(row + i) +. (dpre.(j) *. x.(i));
        dx.(i) <- dx.(i) +. (t.params.(row + i) *. dpre.(j))
      done
    done;
    dcur := dx
  done;
  !dcur

let zero_grads t = Array.fill t.grads 0 (Array.length t.grads) 0.0

let copy_params ~src ~dst =
  assert (Array.length src.params = Array.length dst.params);
  Array.blit src.params 0 dst.params 0 (Array.length src.params)
