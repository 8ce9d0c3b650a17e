(* A minimal multilayer perceptron with manual backpropagation.

   Parameters live in one flat array so the optimiser (Adam) can treat
   the whole network uniformly; gradients accumulate into a parallel
   array. Only what PPO needs is implemented: dense layers, tanh hidden
   activations, a linear output layer, and reverse-mode gradients for
   the parameters.

   The kernel runs a block of rows (one input vector each) per call and
   allocates nothing: a forward/backward pair writes its scratch (each
   layer's activations and deltas, row-major) into a caller-owned
   workspace, so one [t] can be read by many domains at once, each
   with its own workspace. Every float operation runs in the order of
   the plain one-neuron-at-a-time loops run row after row (see
   [dense_pair] and [add_grads]), so trained parameters depend neither
   on the blocking nor on how many rows a call carries. The loops keep
   their bounds checks. They live in top-level functions of arrays and
   ints, with every store written out: a local closure would box every
   float it returns.

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
  capacity : int;  (* rows per layer *)
  mutable last : float array;  (* params of the net whose forward ran last *)
  mutable ran : int;  (* rows that forward ran *)
  h : float array array;
      (* h.(0) the input rows; h.(l + 1) layer l's output rows (tanh for
         hidden layers, linear for the last). Row s of a layer of width
         w starts at s * w. *)
  d : float array array;
      (* d.(l), 0 < l < layers: the gradient with respect to h.(l), in
         the same rows; d.(0) is empty (no input gradient) *)
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

let workspace t ~rows =
  if rows < 1 then invalid_arg "Nn.workspace: rows < 1";
  let widths = Array.of_list ((t.spec.input :: t.spec.hidden) @ [ t.spec.output ]) in
  let n = Array.length t.layers in
  {
    capacity = rows;
    last = [||];
    ran = 0;
    h = Array.map (fun w -> Array.make (rows * w) 0.0) widths;
    d =
      Array.init n (fun l -> if l = 0 then [||] else Array.make (rows * widths.(l)) 0.0);
  }

let capacity ws = ws.capacity

let set_input ws ~row x =
  let w = Array.length ws.h.(0) / ws.capacity in
  if Array.length x <> w then invalid_arg "Nn.set_input: input width";
  if row < 0 || row >= ws.capacity then invalid_arg "Nn.set_input: row outside the workspace";
  Array.blit x 0 ws.h.(0) (row * w) w

let check_shape t ws =
  let n = Array.length t.layers in
  if Array.length ws.h <> n + 1 then invalid_arg "Nn.forward: workspace of another shape";
  for l = 0 to n - 1 do
    let _, _, in_dim, out_dim = t.layers.(l) in
    if
      Array.length ws.h.(l) <> ws.capacity * in_dim
      || Array.length ws.h.(l + 1) <> ws.capacity * out_dim
    then invalid_arg "Nn.forward: workspace of another shape"
  done

(* One dense layer on the two input rows at [xa] and [xb] into the
   output rows at [ya] and [yb]. Output j of a row is its bias plus
   w_ji * x_i summed left to right over i, as the plain loop
   [for j .. for i ..] does. Four neurons of both rows share one pass
   over the input, each with its own accumulator, so the eight add
   chains run side by side without reordering any of them; a loop of
   one neuron at a time takes the [out_dim mod 4] tail. *)
let dense_pair p x y ~w_off ~b_off ~in_dim ~out_dim ~xa ~xb ~ya ~yb =
  let j = ref 0 in
  while !j + 3 < out_dim do
    let j0 = !j in
    let r0 = w_off + (j0 * in_dim) in
    let r1 = r0 + in_dim in
    let r2 = r1 + in_dim in
    let r3 = r2 + in_dim in
    let a0 = ref p.(b_off + j0) and b0 = ref p.(b_off + j0) in
    let a1 = ref p.(b_off + j0 + 1) and b1 = ref p.(b_off + j0 + 1) in
    let a2 = ref p.(b_off + j0 + 2) and b2 = ref p.(b_off + j0 + 2) in
    let a3 = ref p.(b_off + j0 + 3) and b3 = ref p.(b_off + j0 + 3) in
    for i = 0 to in_dim - 1 do
      let xi = x.(xa + i) and zi = x.(xb + i) in
      let w0 = p.(r0 + i) and w1 = p.(r1 + i) and w2 = p.(r2 + i) and w3 = p.(r3 + i) in
      a0 := !a0 +. (w0 *. xi);
      a1 := !a1 +. (w1 *. xi);
      a2 := !a2 +. (w2 *. xi);
      a3 := !a3 +. (w3 *. xi);
      b0 := !b0 +. (w0 *. zi);
      b1 := !b1 +. (w1 *. zi);
      b2 := !b2 +. (w2 *. zi);
      b3 := !b3 +. (w3 *. zi)
    done;
    y.(ya + j0) <- !a0;
    y.(ya + j0 + 1) <- !a1;
    y.(ya + j0 + 2) <- !a2;
    y.(ya + j0 + 3) <- !a3;
    y.(yb + j0) <- !b0;
    y.(yb + j0 + 1) <- !b1;
    y.(yb + j0 + 2) <- !b2;
    y.(yb + j0 + 3) <- !b3;
    j := j0 + 4
  done;
  for j = !j to out_dim - 1 do
    let row = w_off + (j * in_dim) in
    let a = ref p.(b_off + j) and b = ref p.(b_off + j) in
    for i = 0 to in_dim - 1 do
      let w = p.(row + i) in
      a := !a +. (w *. x.(xa + i));
      b := !b +. (w *. x.(xb + i))
    done;
    y.(ya + j) <- !a;
    y.(yb + j) <- !b
  done

(* [dense_pair]'s loops for one row: the odd row of a block, and the
   whole of a one-row call (every agent decision). Pairing that row
   with itself would double its arithmetic, which made a one-row
   forward on the 20-32-32-1 net about a third slower (release build,
   2-CPU x86-64 container). *)
let dense_row p x y ~w_off ~b_off ~in_dim ~out_dim ~xa ~ya =
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
      let xi = x.(xa + i) in
      a0 := !a0 +. (p.(r0 + i) *. xi);
      a1 := !a1 +. (p.(r1 + i) *. xi);
      a2 := !a2 +. (p.(r2 + i) *. xi);
      a3 := !a3 +. (p.(r3 + i) *. xi)
    done;
    y.(ya + j0) <- !a0;
    y.(ya + j0 + 1) <- !a1;
    y.(ya + j0 + 2) <- !a2;
    y.(ya + j0 + 3) <- !a3;
    j := j0 + 4
  done;
  for j = !j to out_dim - 1 do
    let row = w_off + (j * in_dim) in
    let acc = ref p.(b_off + j) in
    for i = 0 to in_dim - 1 do
      acc := !acc +. (p.(row + i) *. x.(xa + i))
    done;
    y.(ya + j) <- !acc
  done

let forward t ws ~rows =
  check_shape t ws;
  if rows < 1 || rows > ws.capacity then invalid_arg "Nn.forward: rows outside the workspace";
  let count = Domain.DLS.get forward_count_key in
  count := !count + rows;
  let p = t.params in
  let n = Array.length t.layers in
  for l = 0 to n - 1 do
    let w_off, b_off, in_dim, out_dim = t.layers.(l) in
    let x = ws.h.(l) and y = ws.h.(l + 1) in
    let s = ref 0 in
    while !s + 1 < rows do
      let xa = !s * in_dim and ya = !s * out_dim in
      dense_pair p x y ~w_off ~b_off ~in_dim ~out_dim ~xa ~xb:(xa + in_dim) ~ya
        ~yb:(ya + out_dim);
      s := !s + 2
    done;
    if !s < rows then
      dense_row p x y ~w_off ~b_off ~in_dim ~out_dim ~xa:(!s * in_dim) ~ya:(!s * out_dim);
    if l < n - 1 then
      for k = 0 to (rows * out_dim) - 1 do
        y.(k) <- tanh y.(k)
      done
  done;
  ws.last <- t.params;
  ws.ran <- rows;
  ws.h.(n)

(* Add one dense layer's parameter gradients over [rows] rows: each
   bias entry gets dpre_sj and each weight entry dpre_sj * x_si, added
   to the entry's current value one row after another, s = 0, 1, ...:
   the order in which one backward per row would add them. The running
   sum stays in a register across the rows; eight weight entries of
   one neuron share a pass over the rows (running row offsets), and a
   loop of one entry at a time takes the [in_dim mod 8] tail. *)
let add_grads g ~dpre ~x ~w_off ~b_off ~in_dim ~out_dim ~rows =
  for j = 0 to out_dim - 1 do
    let row = w_off + (j * in_dim) in
    let acc = ref g.(b_off + j) in
    let dk = ref j in
    for _ = 1 to rows do
      acc := !acc +. dpre.(!dk);
      dk := !dk + out_dim
    done;
    g.(b_off + j) <- !acc;
    let i = ref 0 in
    while !i + 7 < in_dim do
      let c = row + !i in
      let a0 = ref g.(c) and a1 = ref g.(c + 1) and a2 = ref g.(c + 2) in
      let a3 = ref g.(c + 3) and a4 = ref g.(c + 4) and a5 = ref g.(c + 5) in
      let a6 = ref g.(c + 6) and a7 = ref g.(c + 7) in
      let dk = ref j and xk = ref !i in
      for _ = 1 to rows do
        let d = dpre.(!dk) and xo = !xk in
        a0 := !a0 +. (d *. x.(xo));
        a1 := !a1 +. (d *. x.(xo + 1));
        a2 := !a2 +. (d *. x.(xo + 2));
        a3 := !a3 +. (d *. x.(xo + 3));
        a4 := !a4 +. (d *. x.(xo + 4));
        a5 := !a5 +. (d *. x.(xo + 5));
        a6 := !a6 +. (d *. x.(xo + 6));
        a7 := !a7 +. (d *. x.(xo + 7));
        dk := !dk + out_dim;
        xk := xo + in_dim
      done;
      g.(c) <- !a0;
      g.(c + 1) <- !a1;
      g.(c + 2) <- !a2;
      g.(c + 3) <- !a3;
      g.(c + 4) <- !a4;
      g.(c + 5) <- !a5;
      g.(c + 6) <- !a6;
      g.(c + 7) <- !a7;
      i := !i + 8
    done;
    for i = !i to in_dim - 1 do
      let acc = ref g.(row + i) in
      let dk = ref j and xk = ref i in
      for _ = 1 to rows do
        acc := !acc +. (dpre.(!dk) *. x.(!xk));
        dk := !dk + out_dim;
        xk := !xk + in_dim
      done;
      g.(row + i) <- !acc
    done
  done

(* The delta a dense layer sends to its input rows: dx_si = 0.0 plus
   w_ji * dpre_sj summed over j in order, eight inputs per pass over
   the neurons and a loop of one input at a time for the tail. *)
let input_delta p ~dpre ~dx ~w_off ~in_dim ~out_dim ~rows =
  for s = 0 to rows - 1 do
    let xo = s * in_dim and dro = s * out_dim in
    let i = ref 0 in
    while !i + 7 < in_dim do
      let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0 in
      let a4 = ref 0.0 and a5 = ref 0.0 and a6 = ref 0.0 and a7 = ref 0.0 in
      let c = ref (w_off + !i) in
      for j = dro to dro + out_dim - 1 do
        let d = dpre.(j) and r = !c in
        a0 := !a0 +. (p.(r) *. d);
        a1 := !a1 +. (p.(r + 1) *. d);
        a2 := !a2 +. (p.(r + 2) *. d);
        a3 := !a3 +. (p.(r + 3) *. d);
        a4 := !a4 +. (p.(r + 4) *. d);
        a5 := !a5 +. (p.(r + 5) *. d);
        a6 := !a6 +. (p.(r + 6) *. d);
        a7 := !a7 +. (p.(r + 7) *. d);
        c := r + in_dim
      done;
      let o = xo + !i in
      dx.(o) <- !a0;
      dx.(o + 1) <- !a1;
      dx.(o + 2) <- !a2;
      dx.(o + 3) <- !a3;
      dx.(o + 4) <- !a4;
      dx.(o + 5) <- !a5;
      dx.(o + 6) <- !a6;
      dx.(o + 7) <- !a7;
      i := !i + 8
    done;
    for i = !i to in_dim - 1 do
      let acc = ref 0.0 and c = ref (w_off + i) in
      for j = dro to dro + out_dim - 1 do
        acc := !acc +. (p.(!c) *. dpre.(j));
        c := !c + in_dim
      done;
      dx.(xo + i) <- !acc
    done
  done

(* Accumulate parameter gradients for the upstream gradient rows
   [dout] of the last forward's first [rows] rows. A hidden layer's
   tanh' is 1 - h^2 from its stored output h = tanh pre. *)
let backward t ws ~rows ~dout =
  if ws.last != t.params then
    invalid_arg "Nn.backward: the workspace's last forward was another net's";
  if rows < 1 || rows > ws.ran then invalid_arg "Nn.backward: rows the last forward did not run";
  if Array.length dout < rows * t.spec.output then invalid_arg "Nn.backward: dout width";
  let p = t.params and g = t.grads in
  let n = Array.length t.layers in
  for l = n - 1 downto 0 do
    let w_off, b_off, in_dim, out_dim = t.layers.(l) in
    (* Through the activation (output layer is linear). *)
    let dpre = if l = n - 1 then dout else ws.d.(l + 1) in
    if l < n - 1 then begin
      let h = ws.h.(l + 1) in
      for k = 0 to (rows * out_dim) - 1 do
        dpre.(k) <- dpre.(k) *. (1.0 -. (h.(k) *. h.(k)))
      done
    end;
    add_grads g ~dpre ~x:ws.h.(l) ~w_off ~b_off ~in_dim ~out_dim ~rows;
    if l > 0 then input_delta p ~dpre ~dx:ws.d.(l) ~w_off ~in_dim ~out_dim ~rows
  done

let zero_grads t = Array.fill t.grads 0 (Array.length t.grads) 0.0
