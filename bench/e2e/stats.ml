(* Order statistics over host-time samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* [p]-quantile, linear between closest ranks; [nan] when empty. *)
let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i + 1 >= n then s.(n - 1) else s.(i) +. ((x -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = percentile a 0.5

(* First and third quartile by the rule of Python's
   [statistics.quantiles(data, n=4)] (its default "exclusive" method),
   so a spread printed here is the spread an outside check computes. *)
let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  if n < 2 then (median s, median s)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)
