(* Adam optimiser over a flat parameter vector (Kingma & Ba 2015). *)

let beta1 = 0.9
let beta2 = 0.999
let eps = 1e-8

type t = { lr : float; m : float array; v : float array; mutable steps : int }

let create ?(lr = 3e-4) n = { lr; m = Array.make n 0.0; v = Array.make n 0.0; steps = 0 }

(* Moment-vector snapshot for checkpoint/rollback: the learning rate is
   immutable, so (m, v, steps) is the whole mutable state. *)
type state = { s_m : float array; s_v : float array; s_steps : int }

let export t = { s_m = Array.copy t.m; s_v = Array.copy t.v; s_steps = t.steps }

let import t s =
  if Array.length s.s_m <> Array.length t.m then
    invalid_arg "Adam.import: parameter count mismatch";
  Array.blit s.s_m 0 t.m 0 (Array.length t.m);
  Array.blit s.s_v 0 t.v 0 (Array.length t.v);
  t.steps <- s.s_steps

(* One update: params <- params - lr * m_hat / (sqrt v_hat + eps). *)
let step t ~params ~grads =
  assert (Array.length params = Array.length t.m);
  assert (Array.length grads = Array.length t.m);
  t.steps <- t.steps + 1;
  let bc1 = 1.0 -. (beta1 ** float_of_int t.steps) in
  let bc2 = 1.0 -. (beta2 ** float_of_int t.steps) in
  for i = 0 to Array.length params - 1 do
    let g = grads.(i) in
    t.m.(i) <- (beta1 *. t.m.(i)) +. ((1.0 -. beta1) *. g);
    t.v.(i) <- (beta2 *. t.v.(i)) +. ((1.0 -. beta2) *. g *. g);
    let m_hat = t.m.(i) /. bc1 and v_hat = t.v.(i) /. bc2 in
    params.(i) <- params.(i) -. (t.lr *. m_hat /. (sqrt v_hat +. eps))
  done
