(* Dumbbell assembly: n flows share one bottleneck link.

   This is the topology behind every experiment in the paper (Mahimahi
   emulates exactly this shape: one trace-driven bottleneck with a
   droptail buffer and a fixed propagation delay). *)

type link_cfg = {
  rate_fn : float -> float;  (* time -> bytes/s *)
  const_rate : float option;  (* Some r iff rate_fn is constantly r *)
  grain : float;
  buffer_bytes : int;
  loss_p : float;
  aqm : [ `Fifo | `Codel ];
}

type flow_cfg = {
  cca : Cca.t;
  start_at : float;
  stop_at : float;
  rtt : float;  (* two-way propagation delay, seconds *)
}

type result = { flow_id : int; cca_name : string; stats : Flow_stats.t }

type summary = {
  flows : result list;
  link_delivered_bytes : int;
  capacity_bytes : float;  (* integral of the rate over the run *)
  queue_drops : int;
  random_drops : int;
  duration : float;
  events : int;  (* simulator events executed during the run *)
  dispatched : int array;  (* [events] by Sim kind *)
}

(* Integral of the (piecewise-constant) rate function over [0, duration],
   sampled at the trace grain. Constant-rate links (the whole wired trace
   set) short-circuit to rate * duration instead of walking the steps. *)

(* Steps whose upper edge [t0 +. grain] (computed exactly as the walk
   does, so classification and summation agree in floating point) lies
   at or below [duration]; everything past them is one partial step. *)
let full_steps ~grain duration =
  let k = ref (int_of_float (duration /. grain)) in
  if !k < 0 then k := 0;
  while !k > 0 && (float_of_int (!k - 1) *. grain) +. grain > duration do
    decr k
  done;
  while (float_of_int !k *. grain) +. grain <= duration do
    incr k
  done;
  !k

(* Full steps in order, then the partial tail. *)
let walk ~rate_fn ~grain duration =
  let full = full_steps ~grain duration in
  let acc = ref 0.0 in
  for i = 0 to full - 1 do
    let t0 = float_of_int i *. grain in
    acc := !acc +. (rate_fn t0 *. ((t0 +. grain) -. t0))
  done;
  let t0 = float_of_int full *. grain in
  if t0 < duration then !acc +. (rate_fn t0 *. (duration -. t0)) else !acc

let capacity_integral ?const_rate ~rate_fn ~grain ~duration () =
  match const_rate with
  | Some rate -> rate *. duration
  | None -> if duration <= 0.0 then 0.0 else walk ~rate_fn ~grain duration

let span_run = Obs.Span.probe "netsim.run"

let run ?(seed = 42) ?(dup_thresh = 1) ?faults ~link ~flows
    ~duration () =
 Obs.Span.timed span_run @@ fun () ->
  let sim = Sim.create () in
  (* Run boundary: the sim clock starts at 0, so a lane that runs
     several simulations back-to-back needs the marker to stay
     segmentable (timestamps are non-decreasing between markers). *)
  if Obs.Trace.on Obs.Category.Run then
    Obs.Trace.emit (Obs.Event.Run_start { t = Sim.now sim; label = "sim" });
  let rng = Rng.create seed in
  (* The fault injector gets a keyed stream derived from the seed alone,
     so attaching it never perturbs the link's own Bernoulli stream --
     existing seeded runs stay bit-identical. *)
  let hooks =
    Option.map (fun mk -> mk (Rng.split_key rng ~key:0xFA)) faults
  in
  let table =
    Flow_table.create ~capacity:(max 64 (List.length flows)) ~sim ()
  in
  List.iter
    (fun (cfg : flow_cfg) ->
      ignore
        (Flow_table.add_flow table ~cca:(Flow_table.Generic cfg.cca)
           ~return_delay:cfg.rtt ~start_at:cfg.start_at ~stop_at:cfg.stop_at
           ~dup_thresh ()))
    flows;
  let the_link =
    Link.create ~aqm:link.aqm ?hooks ?const_rate:link.const_rate ~sim
      ~rate_fn:link.rate_fn ~grain:link.grain ~buffer_bytes:link.buffer_bytes
      ~loss_p:link.loss_p ~rng
      ~deliver:(Flow_table.on_pkt_delivered table)
      ()
  in
  Flow_table.attach table the_link;
  for h = 0 to Flow_table.flow_count table - 1 do
    Flow_table.start table h
  done;
  Sim.run sim ~until:duration;
  for h = 0 to Flow_table.flow_count table - 1 do
    Flow_table.finish table h
  done;
  let results =
    List.init (Flow_table.flow_count table) (fun h ->
        {
          flow_id = h;
          cca_name = Flow_table.cca_name table h;
          stats = Flow_table.stats table h;
        })
  in
  {
    flows = results;
    link_delivered_bytes = Link.delivered_bytes the_link;
    capacity_bytes =
      capacity_integral ?const_rate:link.const_rate ~rate_fn:link.rate_fn
        ~grain:link.grain ~duration ();
    queue_drops = Link.queue_drops the_link;
    random_drops = Link.random_drops the_link;
    duration;
    events = Sim.events sim;
    dispatched = Array.init (Sim.kinds sim) (Sim.dispatched sim);
  }

(* Overall link utilization: bytes that crossed the bottleneck divided by
   the bytes the link could have carried. *)
let utilization summary =
  if summary.capacity_bytes <= 0.0 then 0.0
  else
    Float.min 1.0
      (float_of_int summary.link_delivered_bytes /. summary.capacity_bytes)
