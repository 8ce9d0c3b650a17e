(* Per-layer attribution from outside the program: a timing/counting
   decorator over the [Netsim.Cca.t] record. Every callback the sender
   makes into a wrapped CCA is counted and timed against the layer that
   built it, so a traced pass can split host time between the simulator
   (netsim) and the controllers (classic, core, rlcc) without a single
   probe inside lib/. *)

type layer = Classic | Core | Rlcc

let layers = [ Classic; Core; Rlcc ]
let name = function Classic -> "classic" | Core -> "core" | Rlcc -> "rlcc"
let index = function Classic -> 0 | Core -> 1 | Rlcc -> 2

(* How a workload hands the CCAs it builds to the pass: untraced passes
   get [plain], the wrapped pass gets {!wrap}. *)
type wrap = layer -> Netsim.Cca.t -> Netsim.Cca.t

let plain : wrap = fun _ cca -> cca

type counts = {
  mutable calls : int;  (* every callback into the CCA *)
  mutable queries : int;  (* the pacing_rate / cwnd reads among them *)
  mutable ns : int;
}

let accs = Array.init 3 (fun _ -> { calls = 0; queries = 0; ns = 0 })

let reset () =
  Array.iter
    (fun a ->
      a.calls <- 0;
      a.queries <- 0;
      a.ns <- 0)
    accs

(* A copy of the counters accumulated since {!reset}. *)
let totals layer =
  let a = accs.(index layer) in
  { calls = a.calls; queries = a.queries; ns = a.ns }

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9

let timed a f x =
  let t0 = now_ns () in
  let r = f x in
  a.ns <- a.ns + (now_ns () - t0);
  a.calls <- a.calls + 1;
  r

let wrap : wrap =
 fun layer (c : Netsim.Cca.t) ->
  let a = accs.(index layer) in
  let query f ~now =
    a.queries <- a.queries + 1;
    timed a (fun now -> f ~now) now
  in
  {
    c with
    on_ack = timed a c.on_ack;
    on_loss = timed a c.on_loss;
    on_send = timed a c.on_send;
    pacing_rate = query c.pacing_rate;
    cwnd = query c.cwnd;
  }

(* Set-up phases, seconds spent inside the calls into the layer that
   does them. *)
let train = ref 0.0
let gen = ref 0.0

let in_phase phase f =
  let t0 = now_s () in
  let r = f () in
  phase := !phase +. (now_s () -. t0);
  r
