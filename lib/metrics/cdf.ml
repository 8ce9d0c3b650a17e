(* Empirical distribution helpers for the paper's CDF figures
   (Fig. 2(b)) and safety statistics. *)

type t = { sorted : float array }

let of_samples samples =
  assert (Array.length samples > 0);
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  { sorted }

let n t = Array.length t.sorted

(* P[X <= x]. *)
let at t x =
  let n = Array.length t.sorted in
  let rec count lo hi =
    (* Binary search for the rightmost index with value <= x. *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.sorted.(mid) <= x then count (mid + 1) hi else count lo mid
  in
  float_of_int (count 0 n) /. float_of_int n

(* Inverse CDF; [q] in [0, 1]. *)
let quantile t q =
  assert (q >= 0.0 && q <= 1.0);
  let n = Array.length t.sorted in
  let idx = int_of_float (q *. float_of_int (n - 1)) in
  t.sorted.(idx)

let min t = t.sorted.(0)
let max t = t.sorted.(Array.length t.sorted - 1)

let mean t =
  Array.fold_left ( +. ) 0.0 t.sorted /. float_of_int (Array.length t.sorted)

let stddev t =
  let m = mean t in
  let var =
    Array.fold_left (fun acc v -> acc +. ((v -. m) ** 2.0)) 0.0 t.sorted
    /. float_of_int (Array.length t.sorted)
  in
  sqrt var

let range t = max t -. min t
