(* The paper's Tab. 5 convergence metrics.

   "The convergence time is calculated as the time from the third
   flow's entry to the earliest time after which it maintains a stable
   sending rate (within +/-25%) for 5 seconds. The stability is
   calculated as the standard deviation of throughput of the third flow
   after its convergence." *)

type result = {
  converged_at : float option;  (* absolute time; None if never *)
  conv_time : float option;  (* seconds from the flow's entry *)
  stability : float;  (* stddev of throughput after convergence, bytes/s *)
  avg_throughput : float;  (* mean throughput after convergence, bytes/s *)
}

(* Coarsen a binned (time, value) series to [step]-second windows:
   window k holds the samples whose [int_of_float (time /. step)] is k.
   Returns, for each window that holds a sample, in increasing order,
   its centre (k + 0.5) step and the mean of its samples, summed in
   array order. Times are non-negative. *)
let coarsen ~step series =
  let slot (time, _) = int_of_float (time /. step) in
  let n = Array.fold_left (fun a s -> max a (slot s + 1)) 0 series in
  let sum = Array.make n 0.0 and count = Array.make n 0 in
  Array.iter
    (fun ((_, v) as s) ->
      let k = slot s in
      sum.(k) <- sum.(k) +. v;
      count.(k) <- count.(k) + 1)
    series;
  Array.of_list
    (List.filter_map
       (fun k ->
         if count.(k) = 0 then None
         else Some ((float_of_int k +. 0.5) *. step, sum.(k) /. float_of_int count.(k)))
       (List.init n Fun.id))

(* Stable = within +/-25% of the window mean. *)
let tolerance = 0.25

(* [analyse ~entry ~window series] expects the flow's throughput time
   series (time, bytes/s), binned or coarsened. *)
let analyse ?(window = 5.0) ~entry series =
  let samples =
    Array.of_list
      (List.filter (fun (time, _) -> time >= entry) (Array.to_list series))
  in
  let n = Array.length samples in
  if n = 0 then
    { converged_at = None; conv_time = None; stability = nan; avg_throughput = nan }
  else begin
    let bin =
      if n > 1 then fst samples.(1) -. fst samples.(0) else window
    in
    let per_window = max 1 (int_of_float (window /. bin)) in
    (* Earliest start index i such that all samples in [i, i+per_window)
       stay within +/-tolerance of their mean. *)
    let stable_from i =
      let hi = min n (i + per_window) in
      if hi - i < per_window then false
      else begin
        let sum = ref 0.0 in
        for j = i to hi - 1 do
          sum := !sum +. snd samples.(j)
        done;
        let mean = !sum /. float_of_int (hi - i) in
        if mean <= 0.0 then false
        else begin
          let ok = ref true in
          for j = i to hi - 1 do
            if Float.abs (snd samples.(j) -. mean) > tolerance *. mean then ok := false
          done;
          !ok
        end
      end
    in
    let rec find i = if i + per_window > n then None else if stable_from i then Some i else find (i + 1) in
    match find 0 with
    | None ->
      { converged_at = None; conv_time = None; stability = nan; avg_throughput = nan }
    | Some i ->
      let at = fst samples.(i) in
      let tail = Array.sub samples i (n - i) in
      let m = float_of_int (Array.length tail) in
      let mean = Array.fold_left (fun acc (_, v) -> acc +. v) 0.0 tail /. m in
      let var =
        Array.fold_left (fun acc (_, v) -> acc +. ((v -. mean) ** 2.0)) 0.0 tail /. m
      in
      {
        converged_at = Some at;
        conv_time = Some (at -. entry);
        stability = sqrt var;
        avg_throughput = mean;
      }
  end
