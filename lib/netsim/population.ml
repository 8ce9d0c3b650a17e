(* Open-loop population traffic: flows arrive over time and carry
   finite, heavy-tailed transfers, instead of the closed-loop "n
   long-running sources" setup the headline experiments use. Spawned
   flows are native arena flows in the caller's Flow_table. Most real
   traffic is short flows arriving at a shared bottleneck while a few
   long transfers persist, and congestion-control behavior under that
   churn (flow completion times, long-flow throughput under churn) is a
   different question than steady-state fairness.

   Determinism: the arrival and size processes draw from keyed streams
   derived with [Rng.split_key], which depends on the parent's seed and
   the key alone -- not on its draw position. A population run is
   therefore bit-identical regardless of what else draws from the
   parent rng, and regardless of worker-pool size when the harness fans
   runs out (test_exec holds that line). *)

type diurnal = { amp : float; period : float }

type cfg = { rate : float; diurnal : diurnal option }

let default ?(rate = 50.0) () = { rate; diurnal = None }

(* Every arrival is a native-AIMD flow of MTU-sized packets over a
   40 ms two-way propagation delay. Sizes are Pareto with a ~24 KB
   median and a heavy tail (alpha < 2: infinite variance), the classic
   mice-and-elephants mix of measured flow-size data. The flow cap is
   a memory guard. *)
let rtt = 0.04
let size_xm = 6_000.0
let size_alpha = 1.2
let max_flows = 100_000

(* Arrival-rate modulation at time [now]: 1 without a diurnal profile,
   else 1 + amp*sin(2*pi*now/period), floored so the process never
   stalls entirely. *)
let modulation diurnal ~now =
  match diurnal with
  | None -> 1.0
  | Some { amp; period } ->
    Float.max 0.05 (1.0 +. (amp *. sin (2.0 *. Float.pi *. now /. period)))

(* Next inter-arrival gap, seconds. Diurnal modulation scales the
   instantaneous rate (so gaps shrink at the peak); with exponential
   gaps this is the standard piecewise approximation of an
   inhomogeneous Poisson process. *)
let sample_iat rng ~rate diurnal ~now =
  Rng.exponential rng ~mean:(1.0 /. (rate *. modulation diurnal ~now))

(* Flow size in bytes (at least 1), Pareto by inverse CDF:
   xm * (1-u)^(-1/alpha), u uniform in [0,1). Ceil, not truncate: a
   draw near the scale with fractional xm must not land below the
   distribution's floor. *)
let sample_size rng ~xm ~alpha =
  let u = Rng.float rng in
  max 1 (int_of_float (Float.ceil (xm /. ((1.0 -. u) ** (1.0 /. alpha)))))

(* Schedule the arrival process on the table's simulation. Flows spawn
   as bounded transfers starting at their arrival instant; handles are
   [flow_count table] before the call up to [flow_count table] after
   the run. Each arrival is one event of a kind registered per call. *)
let spawn ~table ~rng ~cfg ~until =
  let arr_rng = Rng.split_key rng ~key:0xA11 in
  let size_rng = Rng.split_key rng ~key:0x512E in
  let sim = Flow_table.sim table in
  let spawned = ref 0 in
  let kind = ref (-1) in
  let arrive _ _ =
    if !spawned < max_flows then begin
      let now = Sim.now sim in
      let size = sample_size size_rng ~xm:size_xm ~alpha:size_alpha in
      let h =
        Flow_table.add_flow table ~cca:Flow_table.Aimd ~return_delay:rtt
          ~start_at:now ~stop_at:infinity ~size_bytes:size ()
      in
      Flow_table.start table h;
      incr spawned;
      let gap = sample_iat arr_rng ~rate:cfg.rate cfg.diurnal ~now in
      if now +. gap < until then Sim.at sim (now +. gap) ~kind:!kind ~a:0 ~b:0
    end
  in
  kind := Sim.register sim arrive;
  let first = sample_iat arr_rng ~rate:cfg.rate cfg.diurnal ~now:0.0 in
  if first < until then Sim.at sim first ~kind:!kind ~a:0 ~b:0
