(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Sec. 2, Sec. 4.2, Sec. 5, Appendix B), runs
   Bechamel micro-benchmarks of the per-decision costs that drive the
   overhead results, and prices each of the repo's own layers in one
   overhead lane per layer.

     dune exec bench/main.exe                 # everything, quick scale
     dune exec bench/main.exe -- fig7 tab6    # selected experiments
     dune exec bench/main.exe -- micro        # micro-benchmarks only
     dune exec bench/main.exe -- --full all   # paper-scale durations
     dune exec bench/main.exe -- flight-overhead events-per-sec

   Absolute numbers come from a packet-level simulator rather than the
   authors' kernel/Mahimahi testbed; EXPERIMENTS.md records, per
   experiment, the paper's claim next to what this harness measures. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks: the per-decision costs behind Fig. 2(c)/Fig. 12. *)

let synthetic_ack i =
  {
    Netsim.Cca.now = 0.01 *. float_of_int i;
    seq = i;
    rtt = 0.05 +. (0.001 *. float_of_int (i mod 7));
    acked_bytes = 1500;
    inflight = 20;
    delivered_bytes = 1500 * i;
    rate_sample = 3e6;
    newly_lost = (if i mod 97 = 0 then 1 else 0);
  }

(* Drive a CCA's on_ack handler; the counter makes each call distinct. *)
let cca_on_ack_test ~name make =
  let cca = make () in
  let i = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         incr i;
         cca.Netsim.Cca.on_ack (synthetic_ack !i)))

let micro_tests () =
  let policy = (Rlcc.Pretrained.libra_policy ()).Rlcc.Train.policy in
  let state = Array.make 20 0.3 in
  let utility_snap =
    {
      Netsim.Monitor.duration = 0.05;
      throughput = 3e6;
      avg_rtt = 0.06;
      min_rtt = 0.05;
      rtt_gradient = 0.01;
      rtt_grad_se = 0.001;
      loss_rate = 0.001;
      acked = 100;
      lost_pkts = 0;
    }
  in
  [
    cca_on_ack_test ~name:"cubic/on-ack" Classic_cc.Cubic.make;
    cca_on_ack_test ~name:"bbr/on-ack" Classic_cc.Bbr.make;
    cca_on_ack_test ~name:"copa/on-ack" Classic_cc.Copa.make;
    Test.make ~name:"drl/forward-pass"
      (let ws = Rlcc.Ppo.workspace policy in
       Staged.stage (fun () -> ignore (Rlcc.Ppo.mean_action policy ws state)));
    Test.make ~name:"libra/utility-eval"
      (Staged.stage (fun () ->
           ignore (Libra.Utility.eval Libra.Utility.default ~rate_bps:3e6 utility_snap)));
    Test.make ~name:"netsim/heap-push-pop"
      (let heap = Netsim.Event_heap.create () in
       let i = ref 0 in
       Staged.stage (fun () ->
           incr i;
           Netsim.Event_heap.push heap ~time:(float_of_int (!i mod 1000)) ~kind:0
             ~a:!i ~b:0;
           if !i mod 2 = 0 then Netsim.Event_heap.pop_into heap));
    (* The observability no-op paths: with no tracer/registry installed
       a probe site must cost one branch, so the simulator's hot loops
       pay nothing when tracing is off. *)
    Test.make ~name:"obs/probe-off"
      (Staged.stage (fun () -> ignore (Obs.Trace.on Obs.Category.Pkt)));
    Test.make ~name:"obs/metrics-off"
      (let p = Obs.Metrics.counter "bench.noop" in
       Staged.stage (fun () -> Obs.Metrics.incr p));
    Test.make ~name:"obs/span-off"
      (let p = Obs.Span.probe "bench.noop" in
       Staged.stage (fun () -> Obs.Span.timed p Fun.id));
  ]

let run_micro () =
  Harness.Table.heading "Micro-benchmarks: per-decision costs";
  let tests = Test.make_grouped ~name:"libra" ~fmt:"%s/%s" (micro_tests ()) in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let estimate =
          match Analyze.OLS.estimates ols_result with
          | Some (v :: _) -> Printf.sprintf "%.0f ns" v
          | Some [] | None -> "-"
        in
        [ name; estimate ] :: acc)
      results []
    |> List.sort compare
  in
  Harness.Table.print ~header:[ "operation"; "time/call" ] rows;
  print_endline
    "\nThe DRL forward pass costs orders of magnitude more than a classic\n\
     CCA's per-ACK update -- running it only in Libra's exploration stage\n\
     is what Fig. 2(c) and Fig. 12 measure at the system level."

(* ------------------------------------------------------------------ *)
(* What a target measured. [main] appends the merged records of one
   invocation as one BENCH_history.jsonl line, so perf_report gates all
   of it. Wall seconds and deterministic values (counts, logical rates)
   live in separate maps: only the first sums into [total_wall_s]. *)

type record = {
  experiments : (string * float) list;  (* wall seconds *)
  logical : (string * float) list;
  spans : (string * Obs.Json.t) list;  (* span trees per experiment *)
  failed : string list;  (* experiments or targets that failed: not recorded *)
}

let no_record = { experiments = []; logical = []; spans = []; failed = [] }

let merge a b =
  {
    experiments = a.experiments @ b.experiments;
    logical = a.logical @ b.logical;
    spans = a.spans @ b.spans;
    failed = a.failed @ b.failed;
  }

let nums kvs = Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Num v)) kvs)
let total_wall r = List.fold_left (fun a (_, s) -> a +. s) 0.0 r.experiments
let domains () = Exec.Pool.default_size ()

(* BENCH_results.json is the "latest run" snapshot: each target replaces
   its own top-level keys and keeps every other one. A file that is not
   a JSON object is refused rather than overwritten, because it may hold
   other lanes' results: the target fails instead. *)
let results_path = "BENCH_results.json"

let update_results kvs =
  let refuse why =
    failwith (Printf.sprintf "refusing to overwrite %s: %s" results_path why)
  in
  let base =
    match Chaos.Io.read_file results_path with
    | None -> Obs.Json.Obj []
    | Some text -> (
      match Obs.Json.parse text with
      | Ok (Obs.Json.Obj _ as v) -> v
      | Ok _ -> refuse "not a JSON object"
      | Error e -> refuse e)
  in
  let updated = List.fold_left (fun acc (k, v) -> Obs.Json.set_member k v acc) base kvs in
  Chaos.Io.write_file results_path (Obs.Json.to_string updated ^ "\n");
  Printf.printf "\n[bench] updated %s in %s\n" (String.concat ", " (List.map fst kvs))
    results_path

(* ------------------------------------------------------------------ *)
(* Overhead lanes: each prices one layer as a baseline leg followed by
   legs that switch the layer on. A leg returns its deterministic count
   (events traced, checked or held, rollup windows, checkpoint cells; 0
   when it produces none), which must repeat exactly. Lane "X-overhead"
   writes BENCH_results.json key "X_overhead" and history metrics
   "X-<leg>" (wall) and "X-<leg>-count" (logical). *)

type leg = { key : string; label : string; run : unit -> int }

type lane = {
  id : string;
  heading : string;
  scenario : string;
  count : string;  (* what the legs count: the table's last column *)
  legs : leg list;  (* the first is the baseline *)
  within : (string * string) option;  (* (leg, reference): see [noise_bound] *)
}

(* A leg takes ~50 ms to ~1 s, so one sample is at the mercy of
   scheduler noise on a shared box: every leg is timed best-of-[reps],
   which compares the legs' floors rather than their jitter. *)
let reps = 3

(* A [within] leg must stay within this many times its reference leg's
   wall time: "within noise", as the 1-CPU CI container sees +-25%. *)
let noise_bound = 1.75

(* Warm the baseline leg once so allocator/cache effects do not bias
   the first timing, time every leg, print the lane table and enforce
   the bound. Returns (leg, best wall seconds, count) per leg. *)
let measure lane =
  Harness.Table.heading lane.heading;
  let base = List.hd lane.legs in
  ignore (base.run ());
  let time leg =
    let samples =
      List.init reps (fun _ ->
          let t0 = Unix.gettimeofday () in
          let n = leg.run () in
          (n, Unix.gettimeofday () -. t0))
    in
    let n = fst (List.hd samples) in
    List.iter
      (fun (n', _) ->
        if n' <> n then
          failwith (Printf.sprintf "leg %s counted %d, then %d" leg.key n n'))
      samples;
    (leg, List.fold_left (fun a (_, s) -> Float.min a s) infinity samples, n)
  in
  let timed = List.map time lane.legs in
  let wall key = List.assoc key (List.map (fun (leg, s, _) -> (leg.key, s)) timed) in
  let base_s = wall base.key in
  let row (leg, s, n) =
    let vs = (s -. base_s) /. base_s *. 100.0 in
    let vs = if leg == base then "-" else Printf.sprintf "%+.1f%%" vs in
    [ leg.label; Printf.sprintf "%.3fs" s; vs; string_of_int n ]
  in
  Harness.Table.print ~header:[ "leg"; "wall"; "vs " ^ base.key; lane.count ]
    (List.map row timed);
  Option.iter
    (fun (key, reference) ->
      if wall key > noise_bound *. wall reference then
        failwith
          (Printf.sprintf "%s (%.3fs) not within %.2fx of %s (%.3fs)" key (wall key)
             noise_bound reference (wall reference)))
    lane.within;
  timed

let run_lane lane =
  let timed = measure lane in
  let walls name = List.map (fun (leg, s, _) -> (name leg.key, s)) timed in
  let counts name = List.map (fun (leg, _, n) -> (name leg.key, float_of_int n)) timed in
  let result = nums (walls (fun k -> k ^ "_s") @ counts (fun k -> k ^ "_count")) in
  update_results
    [
      ( String.map (function '-' -> '_' | c -> c) lane.id,
        Obs.Json.set_member "scenario" (Obs.Json.Str lane.scenario) result );
    ];
  let metric k = String.sub lane.id 0 (String.index lane.id '-') ^ "-" ^ k in
  { no_record with
    experiments = walls metric; logical = counts (fun k -> metric k ^ "-count") }

let leg key label run = { key; label; run }

let lane ?within ?(scenario = "wired24-cubic-10s") id heading count legs =
  { id; heading; scenario; count; legs; within }

let wired_spec = Harness.Scenario.make_spec (Traces.Rate.constant 24.0)

let wired ?(spec = wired_spec) () =
  ignore (Harness.Scenario.run_uniform ~factory:Harness.Ccas.cubic ~duration:10.0 spec)

let traced ?ring_capacity ?observer () =
  let t = Obs.Trace.create ?ring_capacity () in
  Obs.Trace.run t ?observer wired;
  t

let off = leg "off" "off" (fun () -> wired (); 0)
let ring = leg "ring" "ring-4096" (fun () -> ignore (traced ~ring_capacity:4096 ()); 0)

let trace_lane =
  let big_ring () = Obs.Trace.length (traced ~ring_capacity:65536 ()) in
  lane "trace-overhead" "Tracing overhead: 10s wired run, cubic, all categories" "events"
    [
      off;
      leg "ring" "ring-65536" big_ring;
      leg "jsonl" "jsonl (capture + serialize)" (fun () ->
          let t = traced () in
          ignore (Obs.Trace.to_jsonl t);
          Obs.Trace.length t);
    ]

(* Zero-probability channels / identity shaper: the packet stream is
   identical to the clean run, so the wall-clock delta is purely the
   cost of the injection machinery (per-packet hook + rng draws, and
   per-service-slot rate shaping), not a traffic-volume artefact of
   impairments that change the congestion controller's behaviour. *)
let impairment_lane =
  let impaired key label impair =
    leg key label (fun () ->
        let impair = Faults.Spec.of_string_exn impair in
        wired ~spec:(Harness.Scenario.make_spec ~impair (Traces.Rate.constant 24.0)) ();
        0)
  in
  lane "impairment-overhead" "Impairment overhead: 10s wired run, cubic" "count"
    [
      impaired "clean" "clean" "clean";
      impaired "pipeline" "5-channel pipeline (all p=0)"
        "gilbert:p_gb=0,p_bad=0+reorder:p=0+dup:p=0+corrupt:p=0+jitter:max=0";
      impaired "shaper" "shaper (clamp factor=1)" "clamp:factor=1";
    ]

(* Bare, under Supervisor.protect, and under protect plus a
   never-expiring deterministic event budget (the per-event
   [Netsim.Budget.tick] goes from one atomic load to a live countdown). *)
let supervisor_lane =
  let protected ?deadline_events () =
    match
      Exec.Supervisor.protect ?deadline_events ~context:"bench" (fun ~attempt:_ ->
          wired ())
    with
    | Ok () -> 0
    | Error f -> failwith ("protected run failed: " ^ f.Exec.Supervisor.exn)
  in
  lane "supervisor-overhead" "Supervisor overhead: 10s wired run, cubic" "count"
    [
      off;
      leg "protect" "protect" (fun () -> protected ());
      leg "budget" "protect + event budget" (protected ~deadline_events:max_int);
    ]

(* The default invariant pack evaluated online (lib/check as a
   [Trace.run ~observer]); the ring leg isolates the checker cost from
   the tracing cost. The checked leg must come back clean: a violation
   means the default pack regressed. *)
let invariant_lane =
  let { Harness.Scenario.buffer_bytes; rtt; _ } = wired_spec in
  let pack = Check.Spec.default_pack ~buffer_bytes () in
  let checked () =
    let checker = Check.Checker.create ~rtt pack in
    ignore (traced ~ring_capacity:4096 ~observer:(Check.Checker.on_event checker) ());
    if Check.Checker.total checker > 0 then begin
      prerr_string (Check.Checker.report checker);
      failwith "default invariant pack violated on the clean bench run"
    end;
    Check.Checker.events_seen checker
  in
  lane "invariant-overhead" "Invariant overhead: 10s wired run, cubic, default pack"
    "events checked"
    [ off; ring; leg "pack" "ring-4096 + default pack" checked ]

(* A windowed rollup observer on top of ring tracing: O(1) mutable-field
   updates per event, no allocation outside window close. *)
let rollup_lane =
  let rolled () =
    let rollup = Obs.Rollup.create ~window:0.1 () in
    ignore (traced ~ring_capacity:4096 ~observer:(Obs.Rollup.observe rollup) ());
    Obs.Rollup.flush rollup;
    Obs.Rollup.windows rollup
  in
  lane "rollup-overhead" "Rollup overhead: 10s wired run, cubic, 100ms windows"
    "windows" [ off; ring; leg "on" "ring-4096 + rollup" rolled ]

(* The always-on flight ring does the same per-event work as ring
   tracing minus the mask test: the "cheap enough to leave on every
   run" claim, held within noise of the ring leg. *)
let flight_lane =
  let recorded () =
    let flight = Obs.Flight.create ~capacity:4096 () in
    Obs.Flight.run flight wired;
    List.fold_left (fun a (_, evs) -> a + List.length evs) 0 (Obs.Flight.events flight)
  in
  lane ~within:("on", "ring") "flight-overhead"
    "Flight-recorder overhead: 10s wired run, cubic" "events held"
    [ off; ring; leg "on" "flight-4096" recorded ]

(* One Search.Eval.evaluate of a candidate runs the scenario twice
   (clean + impaired leg) plus the metrics-registry feedback scrape, so
   the interesting number is the ratio over a bare run: the search
   engine's own cost per candidate. *)
let search_lane =
  let runner =
    Harness.Scenario.adversarial_runner ~factory:Harness.Ccas.cubic ~duration:10.0 ()
  in
  let cand =
    { Search.Space.impair = Faults.Spec.of_string_exn "gilbert";
      knobs = Search.Space.base_knobs }
  in
  lane "search-overhead" "Search overhead: per-candidate evaluation, 10s wired run"
    "count"
    [
      { off with key = "bare"; label = "bare scenario run" };
      leg "eval" "Eval.evaluate (2 legs + feedback)" (fun () ->
          ignore (Search.Eval.evaluate ~runner ~duration:10.0 cand);
          0);
    ]

(* The harness persistence path (sealed checkpoint cells through the
   atomic tmp+fsync+rename discipline) with no chaos plane installed vs
   an armed plane whose schedule never fires (every p=0). The armed leg
   adds one atomic load and a few keyed draws per operation, so it must
   stay within noise: the "chaos checks are cheap enough to compile in
   unconditionally" claim. The bench store is emptied afterwards so
   reruns start fresh. *)
let run_chaos_overhead () =
  let dir = Filename.temp_dir "libra-bench-chaos-" "" in
  let store = Exec.Checkpoint.create ~dir in
  let payload = String.make 4096 'x' in
  let cells () =
    for i = 0 to 199 do
      let key = Exec.Checkpoint.key ~parts:[ "bench"; string_of_int i ] in
      Exec.Checkpoint.save store ~key payload;
      match Exec.Checkpoint.load store ~key with
      | Exec.Checkpoint.Hit _ -> ()
      | Exec.Checkpoint.Miss | Exec.Checkpoint.Corrupt _ ->
        failwith "checkpoint cell did not round-trip"
    done;
    200
  in
  let armed () =
    Chaos.Plane.install
      (Chaos.Spec.of_string_exn "torn:p=0+flip:p=0+eio:p=0+kill-domain:p=0");
    Fun.protect ~finally:Chaos.Plane.clear cells
  in
  let cleanup () =
    try
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    with Sys_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      run_lane
        (lane ~within:("armed", "off") ~scenario:"ckpt-200x4096" "chaos-overhead"
           "Chaos-plane overhead: 200 sealed checkpoint cells" "cells"
           [ leg "off" "plane off" cells; leg "armed" "plane armed, p=0" armed ]))

(* ------------------------------------------------------------------ *)
(* Experiment groups through the registry's supervised fan-out: each
   entry is timed and, with [spans], profiled in its own span lane,
   whose root [group.<name>] span covers the same extent as the timing
   (which is what makes perf_report's attribution column meaningful). A
   failed entry prints its failure report and is not recorded. *)
let run_groups ~spans entries =
  let pool = Exec.Pool.default () in
  (* Train the four shared evaluation policies up front, in parallel,
     so the timings measure the experiments themselves rather than
     whichever group happens to fault a policy in first. *)
  Rlcc.Pretrained.warm ~pool ();
  let recorder = if spans then Some (Obs.Span.create ()) else None in
  let walls = Array.make (List.length entries) 0.0 in
  let wrap i run =
    let t0 = Unix.gettimeofday () in
    let o = match recorder with Some r -> Obs.Span.run r ~lane:i run | None -> run () in
    walls.(i) <- Unix.gettimeofday () -. t0;
    o
  in
  let outcomes = Harness.Registry.run_entries ~pool ~wrap ~entries () in
  ignore (Harness.Registry.print_outcomes outcomes);
  let trees = match recorder with Some r -> Obs.Span.lanes_json r | None -> [] in
  List.mapi
    (fun i (o : Harness.Registry.outcome) ->
      let id = o.entry.id in
      if Option.is_some o.failure then { no_record with failed = [ id ] }
      else
        {
          no_record with
          experiments = [ (id, walls.(i)) ];
          spans = Option.to_list (Option.map (fun t -> (id, t)) (List.assoc_opt i trees));
        })
    outcomes
  |> List.fold_left merge no_record

(* ------------------------------------------------------------------ *)
(* Many-flow scale-out lane: events per wall second on the flow engine
   (Flow_table) with native AIMD, over a deep-buffered wired scenario
   where each flow carries thousands of packets in flight -- the regime
   where O(1) ring lookups per ACK matter. *)

let scaleout_flows = 64
let scaleout_duration = 5.0
let scaleout_mbps = 800.0

(* A lite arena on one constant-rate lossless link ([aqm] picks its
   queue discipline); [add ~stop_at] adds a native-AIMD flow with a
   40 ms return path. *)
let arena ?aqm ~capacity ~mbps ~buffer_bytes () =
  let sim = Netsim.Sim.create () in
  let table = Netsim.Flow_table.create ~capacity ~lite:true ~sim () in
  let rate = Netsim.Units.mbps_to_bps mbps in
  let link =
    Netsim.Link.create ?aqm ~const_rate:rate ~sim ~rate_fn:(fun _ -> rate) ~grain:0.01
      ~buffer_bytes ~loss_p:0.0 ~rng:(Netsim.Rng.create 7)
      ~deliver:(Netsim.Flow_table.on_pkt_delivered table) ()
  in
  Netsim.Flow_table.attach table link;
  let add ~stop_at =
    Netsim.Flow_table.add_flow table ~cca:Netsim.Flow_table.Aimd ~return_delay:0.04
      ~start_at:0.0 ~stop_at ()
  in
  (sim, table, link, add)

let scaleout_arena () =
  let sim, table, _, add =
    arena ~capacity:scaleout_flows ~mbps:scaleout_mbps
      ~buffer_bytes:(Netsim.Units.mb 384) ()
  in
  for _ = 1 to scaleout_flows do
    Netsim.Flow_table.start table (add ~stop_at:scaleout_duration)
  done;
  Netsim.Sim.run sim ~until:scaleout_duration;
  Netsim.Sim.events sim

(* The hot paths' allocation contract, asserted: with tracing off, the
   steady-state ACK path (Flow_table.deliver_ack), the link egress path
   (Link.drain_one) of a FIFO and of a CoDel link, the NN kernel's
   forward and backward on a policy-sized net, and a generator draw
   allocate zero minor-heap words. Preloads inflight packets via
   bench_send, pre-reserves the event heap, warms every path, calibrates
   the cost of the Gc.counters probe itself with an empty loop, then
   fails the bench if any path exceeds the calibration. *)
let run_alloc_contract () =
  Harness.Table.heading "Allocation contract: arena ACK / link egress / NN / Rng paths";
  let k = 20_000 in
  let preloaded aqm =
    let sim, table, link, add =
      arena ~aqm ~capacity:8 ~mbps:1000.0 ~buffer_bytes:(Netsim.Units.mb 256) ()
    in
    let h = add ~stop_at:infinity in
    Netsim.Sim.reserve sim (8 * k);
    for _ = 1 to 2 * k do
      Netsim.Flow_table.bench_send table h
    done;
    (sim, table, link, h)
  in
  let sim, table, link, h = preloaded `Fifo in
  let _, _, codel_link, _ = preloaded `Codel in
  let drain link n = for _ = 1 to n do Netsim.Link.drain_one link done in
  let ack ~from n =
    for s = from to from + n - 1 do Netsim.Flow_table.deliver_ack table h s done
  in
  let nn = Rlcc.Nn.create { Rlcc.Nn.input = 20; hidden = [ 32; 32 ]; output = 1 } in
  let nn_ws = Rlcc.Nn.workspace nn in
  let x = Array.make 20 0.3 and dout = [| 1.0 |] in
  let forward n = for _ = 1 to n do ignore (Rlcc.Nn.forward nn nn_ws x) done in
  let backward n = for _ = 1 to n do ignore (Rlcc.Nn.backward nn nn_ws ~dout) done in
  let rng = Netsim.Rng.create 7 in
  let acc = [| 0.0 |] in
  let draw n = for _ = 1 to n do acc.(0) <- acc.(0) +. Netsim.Rng.float rng done in
  (* Warm every path past any growth/laziness before measuring. *)
  drain link 100;
  drain codel_link 100;
  ack ~from:0 100;
  forward 100;
  backward 100;
  draw 100;
  let minor_words f =
    let m0, _, _ = Gc.counters () in
    f ();
    let m1, _, _ = Gc.counters () in
    m1 -. m0
  in
  let baseline = minor_words (fun () -> for _ = 1 to k do () done) in
  (* Canary for cross-module inlining: dune's dev profile compiles with
     -opaque, which disables [@inline] across modules in the classic
     (non-flambda) compiler, so every cross-module float return boxes.
     [Sim.now] in a tight accumulation loop allocates ~0 words/op when
     inlined and 2-3 words/op when opaque; if the canary trips we still
     print the numbers but skip the hard assertion (run the bench with
     --profile release to assert the contract). *)
  let canary =
    minor_words (fun () ->
        for _ = 1 to k do
          acc.(0) <- acc.(0) +. Netsim.Sim.now sim
        done)
  in
  let inlined = (canary -. baseline) /. float_of_int k < 0.5 in
  let per v = (v -. baseline) /. float_of_int k in
  let paths =
    [
      ("link egress (drain_one)", per (minor_words (fun () -> drain link k)));
      ( "link egress, CoDel (drain_one)",
        per (minor_words (fun () -> drain codel_link k)) );
      ("ACK (deliver_ack)", per (minor_words (fun () -> ack ~from:100 k)));
      ("NN forward, 20-32-32-1 (Nn.forward)", per (minor_words (fun () -> forward k)));
      ("NN backward, 20-32-32-1 (Nn.backward)", per (minor_words (fun () -> backward k)));
      ("generator draw (Rng.float)", per (minor_words (fun () -> draw k)));
    ]
  in
  Harness.Table.print
    ~header:[ "path"; "ops"; "minor words/op" ]
    (List.map (fun (p, w) -> [ p; string_of_int k; Printf.sprintf "%.4f" w ]) paths);
  if not inlined then
    print_endline
      "\nalloc contract reported, not asserted: cross-module inlining is \
       inactive (dev/-opaque build); run with --profile release to assert"
  else begin
    List.iter
      (fun (path, w) ->
        if w > 1e-3 then
          failwith
            (Printf.sprintf "alloc contract violated: %s allocates %.4f minor words/op"
               path w))
      paths;
    print_endline "\nevery hot path allocates 0 minor-heap words per operation"
  end

let run_events_per_sec () =
  let recorder = Obs.Span.create () in
  let scenario =
    Printf.sprintf "wired%.0f-aimd-%dflows-%.0fs" scaleout_mbps scaleout_flows
      scaleout_duration
  in
  let arena () = Obs.Span.run recorder ~lane:0 scaleout_arena in
  let _, wall_s, events =
    List.hd
      (measure
         (lane ~scenario "events-per-sec"
            (Printf.sprintf "Events/sec: arena AIMD (%d flows, %gs, %g Mbit/s)"
               scaleout_flows scaleout_duration scaleout_mbps)
            "events" [ leg "arena" "arena" arena ]))
  in
  let rate = float_of_int events /. wall_s in
  Printf.printf "\n%.0f events/sec\n" rate;
  run_alloc_contract ();
  let spans = List.assoc_opt 0 (Obs.Span.lanes_json recorder) in
  let result =
    nums [ ("arena_events", float_of_int events); ("arena_s", wall_s);
           ("arena_events_per_s", rate) ]
    |> Obs.Json.set_member "scenario" (Obs.Json.Str scenario)
    |> Obs.Json.set_member "spans" (Option.value ~default:Obs.Json.Null spans)
  in
  update_results [ ("events_per_sec", result) ];
  (* The gated history metric is logical: kilo-events per simulated
     second, bit-deterministic for a fixed seed, so the gate catches an
     engine change that schedules more events without ever tripping on
     wall-clock noise. The wall rate above is recorded, not gated. *)
  let kev_per_simsec = float_of_int events /. scaleout_duration /. 1e3 in
  { no_record with logical = [ ("arena-logical-kev-per-simsec", kev_per_simsec) ] }

(* ------------------------------------------------------------------ *)

let append_history ~manifest ~scale ~targets r =
  let path = "BENCH_history.jsonl" in
  let entry =
    Obs.Json.Obj
      [
        ("manifest", manifest);
        ("scale", Obs.Json.Str scale);
        ("domains", Obs.Json.Num (float_of_int (domains ())));
        ("subset", Obs.Json.List (List.map (fun t -> Obs.Json.Str t) targets));
        ("experiments", nums r.experiments);
        ("logical", nums r.logical);
        ("total_wall_s", Obs.Json.Num (total_wall r));
        ("spans", if r.spans = [] then Obs.Json.Null else Obs.Json.Obj r.spans);
      ]
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (Obs.Json.to_compact entry ^ "\n");
  close_out oc;
  Printf.printf "[bench] appended history entry to %s\n" path

let () =
  let full = ref false and spans = ref false in
  let rec parse = function
    | "--full" :: rest -> full := true; parse rest
    (* --spans records a per-group span profile into the history entry;
       off by default so `bench all` numbers stay comparable with
       profile-free baselines (the disabled path is one branch). *)
    | "--spans" :: rest -> spans := true; parse rest
    (* --domains N overrides LIBRA_DOMAINS and the detected core count. *)
    | "--domains" :: n :: rest ->
      (match int_of_string_opt n with
      | Some d when d >= 1 -> Exec.Pool.set_default_size d
      | _ ->
        Printf.eprintf "bench: invalid --domains %S (want a positive integer)\n" n;
        exit 2);
      parse rest
    | flag :: _ when String.starts_with ~prefix:"-" flag ->
      Printf.eprintf "bench: bad flag %s (flags: --full, --spans, --domains N)\n" flag;
      exit 2
    | target :: rest -> target :: parse rest
    | [] -> []
  in
  let targets =
    match parse (List.tl (Array.to_list Sys.argv)) with [] -> [ "all" ] | ts -> ts
  in
  let scale = if !full then "full" else "quick" in
  (* Built before any timing, so the manifest's (memoized) git lookup
     does not land inside the first experiment's wall time. *)
  let manifest = Obs.Manifest.make ~scale ~domains:(domains ()) () in
  let group ?(spans = !spans) entries () = run_groups ~spans entries in
  let table =
    [
      ( "all",
        fun () ->
          let r = group (Harness.Registry.groups ()) () in
          update_results
            [
              ("domains", Obs.Json.Num (float_of_int (domains ())));
              ("scale", Obs.Json.Str scale);
              ("experiments", nums r.experiments);
              ("total_wall_s", Obs.Json.Num (total_wall r));
              ("manifest", manifest);
            ];
          run_micro ();
          r );
      (* The fastest experiment groups, spans always on: the quick
         subset `make perfcheck` gates. *)
      ( "perf-smoke",
        group ~spans:true
          (List.filter_map Harness.Registry.find [ "fig2a"; "fig8"; "fig17"; "fig18" ]) );
      ("micro", fun () -> run_micro (); no_record);
      ("chaos-overhead", run_chaos_overhead);
      ("events-per-sec", run_events_per_sec);
      ("alloc-contract", fun () -> run_alloc_contract (); no_record);
    ]
    (* The trace and impairment lanes are recorded in BENCH_results.json
       only, not in the gated history. *)
    @ List.map
        (fun l -> (l.id, fun () -> ignore (run_lane l); no_record))
        [ trace_lane; impairment_lane ]
    @ List.map
        (fun l -> (l.id, fun () -> run_lane l))
        [ supervisor_lane; invariant_lane; rollup_lane; flight_lane; search_lane ]
  in
  let find target =
    match List.assoc_opt target table with
    | None -> Option.map (fun e -> group [ e ]) (Harness.Registry.find target)
    | run -> run
  in
  (match List.filter (fun t -> Option.is_none (find t)) targets with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown experiment(s): %s\nknown: %s\n" (String.concat ", " unknown)
      (String.concat ", " (Harness.Registry.ids () @ List.map fst table));
    exit 1);
  Harness.Scale.set (if !full then Harness.Scale.full else Harness.Scale.quick);
  let t0 = Unix.gettimeofday () in
  (* A failed lane check, like a failed experiment group, is reported
     and not recorded; the remaining targets still run. *)
  let run target =
    match Option.get (find target) () with
    | r -> r
    | exception Failure msg ->
      Printf.eprintf "bench: %s failed: %s\n%!" target msg;
      { no_record with failed = [ target ] }
  in
  let r = List.fold_left (fun acc t -> merge acc (run t)) no_record targets in
  if r.experiments <> [] || r.logical <> [] then
    append_history ~manifest ~scale ~targets r;
  Printf.printf "\n[bench] %d domain(s), total wall time: %.1fs\n" (domains ())
    (Unix.gettimeofday () -. t0);
  if r.failed <> [] then exit 3
