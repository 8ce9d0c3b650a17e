(* Deterministic splitmix64 PRNG over the shared {!Splitmix} helpers.

   Every stochastic component of the simulator draws from an explicit
   [Rng.t] so that a run is fully reproducible from its seed, and
   repeated-trial experiments can vary the seed alone. *)

(* The counter lives in an 8-byte cell: an int64 stored in a record
   field is boxed, so a [mutable int64] field would allocate on every
   draw, while the cell is read and written unboxed. *)
type t = { cell : Bytes.t; seed : int64 }

let make ~state ~seed =
  let cell = Bytes.create 8 in
  Bytes.set_int64_ne cell 0 state;
  { cell; seed }

let create seed = make ~state:(Int64.of_int seed) ~seed:(Int64.of_int seed)

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_ne t.cell 0) Splitmix.golden in
  Bytes.set_int64_ne t.cell 0 s;
  Splitmix.mix64 s

(* Uniform float in [0, 1) from the top 53 bits of the next word. *)
let[@inline] float t = Splitmix.to_unit (next_int64 t)

let uniform t ~lo ~hi =
  assert (hi >= lo);
  lo +. ((hi -. lo) *. float t)

let int t bound =
  assert (bound > 0);
  int_of_float (float t *. float_of_int bound)

let bool t ~p = float t < p

(* Standard normal via Box-Muller. *)
let normal t =
  let u1 = max 1e-12 (float t) in
  let u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let gaussian t ~mu ~sigma = mu +. (sigma *. normal t)

let exponential t ~mean =
  let u = max 1e-12 (float t) in
  -.mean *. log u

let split t = create (Int64.to_int (next_int64 t))

(* Keyed stream derivation. Unlike [split], the child is a function of
   the parent's *seed* and the key alone -- it neither consumes nor
   depends on the parent's draw position, so components that derive
   their streams by key stay deterministic regardless of how many draws
   happen on the parent in between (the structural-determinism property
   lib/faults relies on). *)
let split_key t ~key =
  let z = Splitmix.child ~seed:t.seed ~key in
  make ~state:z ~seed:z

(* Snapshot / restore of the full generator state, for checkpointed
   training runs that must resume bit-identically mid-stream. *)
let state t = (Bytes.get_int64_ne t.cell 0, t.seed)

let set_state t (state, seed) =
  if seed <> t.seed then invalid_arg "Rng.set_state: seed mismatch";
  Bytes.set_int64_ne t.cell 0 state
