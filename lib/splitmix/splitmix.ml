(* splitmix64 (Steele, Lea and Flood 2014): a counter stepped by the
   golden increment and scrambled by a finalizer. The hot helpers are
   [@inline] so that a caller's int64 arithmetic stays unboxed. *)

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] child ~seed ~key =
  let z = Int64.add seed (Int64.mul golden (Int64.add (Int64.of_int key) 1L)) in
  mix64 (Int64.logxor (mix64 z) 0x6A09E667F3BCC909L)

let[@inline] to_unit w =
  Int64.to_float (Int64.shift_right_logical w 11) *. (1.0 /. 9007199254740992.0)

let[@inline] draw s ~n =
  to_unit (mix64 (Int64.add s (Int64.mul golden (Int64.of_int (n + 1)))))
