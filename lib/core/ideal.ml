(* The offline "ideal combination" baselines of Fig. 18 (C-Ideal /
   B-Ideal): run the classic CCA and Clean-slate Libra separately under
   the same network, compute each run's utility over time, and take the
   pointwise maximum. Being offline, the ideal version has no
   interaction between the components -- the paper uses it to show that
   Libra's online combination loses little and sometimes wins (the two
   CCAs reset each other's operating points). *)

(* Utility time series of a finished flow under the default utility,
   on a 2-second grid (Fig. 18's grain). *)
let utility_of_stats (stats : Netsim.Flow_stats.t) ~duration =
  let window = 2.0 in
  let thr = Netsim.Flow_stats.throughput_series stats in
  let rtt = Netsim.Flow_stats.rtt_series stats in
  let bin = Netsim.Flow_stats.bin_width stats in
  let per_window = max 1 (int_of_float (window /. bin)) in
  let n_windows = int_of_float (duration /. window) in
  Array.init n_windows (fun w ->
      let lo = w * per_window in
      let hi = min (Array.length thr) (lo + per_window) in
      let thr_sum = ref 0.0 in
      let rtt_first = ref nan and rtt_last = ref nan in
      for i = lo to hi - 1 do
        thr_sum := !thr_sum +. snd thr.(i);
        let r = snd rtt.(i) in
        if not (Float.is_nan r) then begin
          if Float.is_nan !rtt_first then rtt_first := r;
          rtt_last := r
        end
      done;
      let count = max 1 (hi - lo) in
      let mean_thr = !thr_sum /. float_of_int count in
      let grad =
        if Float.is_nan !rtt_first || Float.is_nan !rtt_last then 0.0
        else (!rtt_last -. !rtt_first) /. window
      in
      let time = (float_of_int w +. 0.5) *. window in
      let u =
        Rlcc.Utility.eval_raw Rlcc.Utility.default
          ~rate_mbps:(Netsim.Units.bps_to_mbps mean_thr)
          ~rtt_gradient:grad ~loss_rate:0.0
      in
      (time, u))

(* Pointwise maximum of two utility series on the same grid. *)
let combine a b =
  assert (Array.length a = Array.length b);
  Array.init (Array.length a) (fun i ->
      let time, ua = a.(i) and _, ub = b.(i) in
      (time, Float.max ua ub))

(* Normalise utility series jointly for plotting (Fig. 18): [normalise
   all] maps a series by the one offset and scale that take the values
   of [all] onto [0, 1]. *)
let normalise all =
  let values = Array.map snd (Array.concat all) in
  let lo = Array.fold_left Float.min infinity values in
  let hi = Array.fold_left Float.max neg_infinity values in
  let span = Float.max 1e-9 (hi -. lo) in
  Array.map (fun (time, u) -> (time, (u -. lo) /. span))
