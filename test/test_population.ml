(* Population traffic model: sampler properties and spawn determinism;
   plus golden pins for seeded Network.run scenarios. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Sampler properties *)

(* Poisson arrivals: the empirical mean inter-arrival gap converges on
   1/rate. Tolerance is loose (35%) because 400 exponential draws have
   heavy relative spread; the property is about the rate parameter
   actually steering the process, not about tight convergence. *)
let prop_poisson_iat_mean =
  QCheck.Test.make ~name:"poisson iat mean ~ 1/rate" ~count:20
    QCheck.(pair (int_range 1 1000) (float_range 5.0 200.0))
    (fun (seed, rate) ->
      let rng = Netsim.Rng.create seed in
      let n = 400 in
      let sum = ref 0.0 in
      for _ = 1 to n do
        sum :=
          !sum
          +. Netsim.Population.sample_iat rng ~rate None ~now:0.0
      done;
      let mean = !sum /. float_of_int n in
      Float.abs (mean -. (1.0 /. rate)) < 0.35 /. rate)

(* The size sampler respects its floor: Pareto never goes below its
   scale xm. *)
let prop_sizes_floored =
  QCheck.Test.make ~name:"size samples respect distribution floors" ~count:50
    QCheck.(pair (int_range 1 1000) (float_range 100.0 20000.0))
    (fun (seed, xm) ->
      let rng = Netsim.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 200 do
        let p = Netsim.Population.sample_size rng ~xm ~alpha:1.2 in
        if float_of_int p < xm then ok := false
      done;
      !ok)

(* Diurnal modulation never stalls the process: the gap stays finite
   and positive even at the trough of a full-amplitude swing (the
   implementation floors the modulated rate at 5%). *)
let prop_diurnal_gap_finite =
  QCheck.Test.make ~name:"diurnal gaps stay finite and positive" ~count:50
    QCheck.(pair (int_range 1 1000) (float_range 0.0 50.0))
    (fun (seed, now) ->
      let rng = Netsim.Rng.create seed in
      let gap =
        Netsim.Population.sample_iat rng ~rate:30.0
          (Some { Netsim.Population.amp = 1.0; period = 10.0 })
          ~now
      in
      Float.is_finite gap && gap > 0.0)

(* ------------------------------------------------------------------ *)
(* Spawn determinism *)

(* One bounded mini population run; returns a fingerprint that is
   sensitive to every arrival instant, transfer size and completion. *)
let population_fingerprint ~predraws () =
  let sim = Netsim.Sim.create () in
  let table = Netsim.Flow_table.create ~capacity:64 ~lite:true ~sim () in
  let rate = Netsim.Units.mbps_to_bps 24.0 in
  let link =
    Netsim.Link.create ~const_rate:rate ~sim
      ~rate_fn:(fun _ -> rate)
      ~grain:0.01
      ~buffer_bytes:(Netsim.Units.kb 150)
      ~loss_p:0.0 ~rng:(Netsim.Rng.create 3)
      ~deliver:(Netsim.Flow_table.on_pkt_delivered table)
      ()
  in
  Netsim.Flow_table.attach table link;
  let rng = Netsim.Rng.create 42 in
  (* Advancing the parent stream must not move the spawned process:
     Population draws from [Rng.split_key] streams keyed on the parent
     seed alone. *)
  for _ = 1 to predraws do
    ignore (Netsim.Rng.float rng)
  done;
  let cfg = Netsim.Population.default ~rate:60.0 () in
  Netsim.Population.spawn ~table ~rng ~cfg ~until:1.5;
  Netsim.Sim.run sim ~until:3.0;
  let n = Netsim.Flow_table.flow_count table in
  let acc = ref [] in
  for h = 0 to n - 1 do
    acc :=
      ( Netsim.Flow_table.start_time table h,
        Netsim.Flow_table.delivered_bytes table h,
        Netsim.Flow_table.completion_time table h )
      :: !acc
  done;
  (n, Netsim.Sim.events sim, !acc)

(* Structural [compare] rather than [=]: unfinished flows fingerprint
   as [nan] completion times, and [nan = nan] is false. *)
let test_spawn_deterministic () =
  let a = population_fingerprint ~predraws:0 () in
  let b = population_fingerprint ~predraws:0 () in
  check_bool "identical runs are bit-identical" true (compare a b = 0)

let test_spawn_insensitive_to_parent_draws () =
  let a = population_fingerprint ~predraws:0 () in
  let b = population_fingerprint ~predraws:13 () in
  check_bool "parent draw position does not move the population" true
    (compare a b = 0)

let test_spawn_produces_flows () =
  let n, events, flows = population_fingerprint ~predraws:0 () in
  check_bool "spawned a plausible count" true (n > 30 && n < 200);
  check_bool "simulation did work" true (events > 1000);
  check_bool "some flow completed" true
    (List.exists (fun (_, _, c) -> not (Float.is_nan c)) flows);
  check_int "fingerprint covers all flows" n (List.length flows)

(* The fingerprint pinned bit for bit: flow count, logical event count
   and a digest of every flow's (start, delivered, completion) triple,
   hex floats. Arrivals, link service and the flow chains all share one
   heap, so any change to their event order moves these. *)
let test_spawn_pinned () =
  let n, events, flows = population_fingerprint ~predraws:0 () in
  check_int "flow count" 93 n;
  check_int "logical event count" 16274 events;
  let triples =
    List.map (fun (s, d, c) -> Printf.sprintf "%h,%d,%h" s d c) flows
  in
  Alcotest.(check string)
    "per-flow digest" "479cdb01b92e6fab6558564e8aa46dab"
    (Digest.to_hex (Digest.string (String.concat ";" triples)))

(* ------------------------------------------------------------------ *)
(* Golden pins for Network.run *)

(* Seeded scenario runs pinned bit for bit: the outcome quad (as hex
   floats), per-flow acked packets and the logical event count. The
   values were recorded when a second, closure-based engine still
   produced them identically, so they hold the flow engine's pacing,
   dup-ACK, RTO and event-order semantics in place. The event counts
   were re-recorded, alone, when each flow's RTO became one lazily
   moved event. A deliberate behaviour change updates them; an
   accidental one fails here. *)
let acked_pkts (s : Netsim.Network.summary) =
  List.map
    (fun f -> Netsim.Flow_stats.total_acked_pkts f.Netsim.Network.stats)
    s.Netsim.Network.flows

let lost_pkts (s : Netsim.Network.summary) =
  List.map
    (fun f -> Netsim.Flow_stats.total_lost_pkts f.Netsim.Network.stats)
    s.Netsim.Network.flows

let check_float label want got =
  Alcotest.(check string) label (Printf.sprintf "%h" want) (Printf.sprintf "%h" got)

let check_uniform label spec ?dispatched ~n_flows ~quad:(util, delay, loss, thr)
    ~acked ~events () =
  let o =
    Harness.Scenario.run_uniform ~seed:5 ~n_flows ~factory:Harness.Ccas.cubic
      ~duration:4.0 spec
  in
  check_float (label ^ ": utilization") util o.Harness.Scenario.utilization;
  check_float (label ^ ": mean delay") delay o.Harness.Scenario.mean_delay;
  check_float (label ^ ": loss rate") loss o.Harness.Scenario.loss_rate;
  check_float (label ^ ": throughput") thr o.Harness.Scenario.throughput;
  let s = o.Harness.Scenario.summary in
  Alcotest.(check (list int)) (label ^ ": per-flow acked pkts") acked (acked_pkts s);
  check_int (label ^ ": logical event count") events s.Netsim.Network.events;
  Option.iter
    (fun want ->
      Alcotest.(check (list int))
        (label ^ ": events per kind") want
        (Array.to_list s.Netsim.Network.dispatched))
    dispatched

(* [dispatched] lists the events per kind: flow send, RTO, ACK and
   start, then link service completion, outage retry and deferred
   admission. *)
let test_golden_wired () =
  check_uniform "wired"
    (Harness.Scenario.make_spec (Traces.Rate.constant 24.0))
    ~n_flows:3
    ~quad:
      ( 0x1.fb22d0e560419p-1,
        0x1.2b93d02dcb6a5p-4,
        0x1.8877b914cfccap-6,
        0x1.67fc4p+21 )
    ~acked:[ 2201; 2388; 3275 ] ~events:35403
    ~dispatched:[ 19552; 60; 7864; 3; 7924; 0; 0 ] ()

let test_golden_lte () =
  let trace = Traces.Lte.generate ~seed:11 ~duration:4.0 Traces.Lte.Walking in
  check_uniform "lte"
    (Harness.Scenario.make_spec ~loss_p:0.01 trace)
    ~n_flows:2
    ~quad:
      ( 0x1.2fed7136c5ff4p-1,
        0x1.090f996ec5fb4p-5,
        0x1.5711b08319f5cp-7,
        0x1.2edb4p+20 )
    ~acked:[ 1782; 1526 ] ~events:14912 ()

(* Staggered heterogeneous flows (cubic at 0 s, C-Libra at 1 s, BBR at
   2 s) under a robustness profile with dup_thresh 3: the run_mixed
   path, loss recovery and the fault hooks. 6 s covers the flap
   profile's first outage (5.1-6 s). C-Libra's policy trains at the
   tiny scale, which keeps the case fast and its policy fixed. *)
let check_mixed profile ~util ~acked ~lost ~delivered ~queue_drops ~events =
  Harness.Scale.set Harness.Scale.tiny;
  let spec =
    {
      (Harness.Scenario.make_spec
         ~impair:(List.assoc profile Faults.Spec.robustness_profiles)
         (Traces.Rate.constant 24.0))
      with
      Harness.Scenario.dup_thresh = 3;
    }
  in
  let s =
    Harness.Scenario.run_mixed ~seed:5
      ~flows:
        [
          (Harness.Ccas.cubic, 0.0);
          (Harness.Ccas.c_libra, 1.0);
          (Harness.Ccas.bbr, 2.0);
        ]
      ~duration:6.0 spec
  in
  check_float (profile ^ ": utilization") util (Netsim.Network.utilization s);
  Alcotest.(check (list int)) (profile ^ ": per-flow acked pkts") acked (acked_pkts s);
  Alcotest.(check (list int)) (profile ^ ": per-flow lost pkts") lost (lost_pkts s);
  check_int (profile ^ ": delivered bytes") delivered
    s.Netsim.Network.link_delivered_bytes;
  check_int (profile ^ ": queue drops") queue_drops s.Netsim.Network.queue_drops;
  check_int (profile ^ ": random drops") 0 s.Netsim.Network.random_drops;
  check_int (profile ^ ": logical event count") events s.Netsim.Network.events

let test_golden_mixed_flap () =
  check_mixed "flap" ~util:0x1.ac756b2dbd194p-1 ~acked:[ 4674; 772; 4596 ]
    ~lost:[ 273; 94; 988 ] ~delivered:15063000 ~queue_drops:1492 ~events:47848

let test_golden_mixed_reorder () =
  check_mixed "reorder" ~util:0x1.8fc962fc962fdp-1 ~acked:[ 1932; 3584; 3748 ]
    ~lost:[ 32; 63; 60 ] ~delivered:14055000 ~queue_drops:109 ~events:45249

(* Jitter is the one robustness profile whose ingress hook defers
   admission (a positive extra delay), so this pin holds the link's
   deferred-admission events in heap order. *)
let test_golden_mixed_jitter () =
  check_mixed "jitter" ~util:0x1.422d0e5604189p-1 ~acked:[ 1757; 2036; 2546 ]
    ~lost:[ 36; 144; 987 ] ~delivered:11326500 ~queue_drops:0 ~events:42339

(* Two cubic flows into a 600 KB CoDel buffer on wired:24 for 6 s:
   long enough for the standing queue to push CoDel into its dropping
   state. [queue_drops] counts CoDel's head drops with the tail drops.
   The jitter+dup case sends deferred admissions and duplicates into
   the CoDel queue; its jitter is held to 2 ms because the default
   12 ms leaves cubic too little window for CoDel ever to drop. *)
let check_codel label ?impair ~quad:(util, delay, loss, thr) ~acked ~queue_drops
    ~events () =
  let spec =
    Harness.Scenario.make_spec ~buffer_kb:600 ~aqm:`Codel
      ?impair:(Option.map Faults.Spec.of_string_exn impair)
      (Traces.Rate.constant 24.0)
  in
  let o =
    Harness.Scenario.run_uniform ~seed:5 ~n_flows:2 ~factory:Harness.Ccas.cubic
      ~duration:6.0 spec
  in
  check_float (label ^ ": utilization") util o.Harness.Scenario.utilization;
  check_float (label ^ ": mean delay") delay o.Harness.Scenario.mean_delay;
  check_float (label ^ ": loss rate") loss o.Harness.Scenario.loss_rate;
  check_float (label ^ ": throughput") thr o.Harness.Scenario.throughput;
  let s = o.Harness.Scenario.summary in
  Alcotest.(check (list int)) (label ^ ": per-flow acked pkts") acked (acked_pkts s);
  check_int (label ^ ": queue drops") queue_drops s.Netsim.Network.queue_drops;
  check_int (label ^ ": logical event count") events s.Netsim.Network.events

let test_golden_codel () =
  check_codel "codel"
    ~quad:
      ( 0x1.f15d867c3ece3p-1,
        0x1.7180c4578382p-5,
        0x1.c2890d70f6bd1p-9,
        0x1.61e99p+21 )
    ~acked:[ 6496; 5101 ] ~queue_drops:40 ~events:51510 ()

let test_golden_codel_jitter_dup () =
  check_codel "codel jitter+dup" ~impair:"jitter:max=0.002+dup"
    ~quad:
      ( 0x1.ef9db22d0e56p-1,
        0x1.3e12cc65a6edp-5,
        0x1.1e22283ccda89p-9,
        0x1.5cb97p+21 )
    ~acked:[ 5541; 5886 ] ~queue_drops:23 ~events:65068 ()

(* Every CCA pinned: each registered CCA, plus the W- and I-Libra
   extensions, runs four seeded 4 s scenarios -- two flows on wired:24,
   one flow under 2% Bernoulli loss, one flow on an LTE driving trace,
   and one flow against CUBIC starting 0.5 s later. One MD5 per CCA
   covers each run's event count and queue drops and, per flow, the
   delivered bytes, acked and lost packets and mean RTT (as %h). The
   learned CCAs train at the tiny scale. *)
let cca_pins =
  [
    ("cubic", "b0a15ffe5140ca912a28fcd69f08fa5e");
    ("bbr", "97429398d525162a563e394739148722");
    ("reno", "e308fb9c85318bb7f5b02466750d7868");
    ("vegas", "08b3a79c457a4b96601a8549b178ba0d");
    ("westwood", "53fea7a8f912acc857265bbaf9d7231c");
    ("illinois", "ac9b216939f48c1d59f86d6a065e0119");
    ("copa", "a39df94f5d2cb05afb37a94f6d3d31f9");
    ("sprout", "643b7fdce089a727bda690add5600cb5");
    ("vivace", "6586e0a814547c7e650a68fcea58a27f");
    ("proteus", "7fbd1d91601b83dfb8d0e6069fd44c0e");
    ("remy", "141f4c2ecc90ae3b8915b7b5049e14c9");
    ("indigo", "7eff210c42363eb9219ad078833f745f");
    ("aurora", "96eebd295b19f49fd50c8c9a9062364c");
    ("orca", "9eff1842e2249524dd20581ec162e3d7");
    ("mod-rl", "f7cdccf93ff1407e4c808bf68cae918c");
    ("c-libra", "7fafc3c5941fa2e661358f2b713102e9");
    ("b-libra", "37b17819adb8e27abab96c0f44f76fdf");
    ("cl-libra", "8700742e588f0cf75a985037a1f7796b");
    ("r-libra", "a80718a0f891eb19f25c5091790072c7");
    ("w-libra", "edd0a254126d475859e306939d22daf7");
    ("i-libra", "cb940e74aa64f130117036d3b80aacf6");
  ]

let summary_lines (s : Netsim.Network.summary) =
  Printf.sprintf "events=%d drops=%d" s.Netsim.Network.events
    s.Netsim.Network.queue_drops
  :: List.map
       (fun f ->
         let st = f.Netsim.Network.stats in
         Printf.sprintf "%d %d %d %h"
           (Netsim.Flow_stats.total_delivered_bytes st)
           (Netsim.Flow_stats.total_acked_pkts st)
           (Netsim.Flow_stats.total_lost_pkts st)
           (Netsim.Flow_stats.mean_rtt st))
       s.Netsim.Network.flows

let cca_digest factory =
  let wired = Harness.Scenario.make_spec (Traces.Rate.constant 24.0) in
  let uniform ?n_flows spec =
    (Harness.Scenario.run_uniform ~seed:5 ?n_flows ~factory ~duration:4.0 spec)
      .Harness.Scenario.summary
  in
  let runs =
    [
      uniform ~n_flows:2 wired;
      uniform (Harness.Scenario.make_spec ~loss_p:0.02 (Traces.Rate.constant 24.0));
      uniform
        (Harness.Scenario.make_spec
           (Traces.Lte.generate ~seed:7 ~duration:4.0 Traces.Lte.Driving));
      Harness.Scenario.run_mixed ~seed:5
        ~flows:[ (factory, 0.0); (Harness.Ccas.cubic, 0.5) ]
        ~duration:4.0 wired;
    ]
  in
  Digest.to_hex (Digest.string (String.concat "\n" (List.concat_map summary_lines runs)))

let test_golden_every_cca () =
  Harness.Scale.set Harness.Scale.tiny;
  let factories =
    Harness.Ccas.all
    @ List.filter
        (fun (name, _) -> not (List.mem_assoc name Harness.Ccas.all))
        (Harness.Exp_extension.other_libras ())
  in
  Alcotest.(check (list (pair string string)))
    "per-CCA digests" cca_pins
    (List.map (fun (name, factory) -> (name, cca_digest factory)) factories)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "population"
    [
      ( "samplers",
        qsuite
          [ prop_poisson_iat_mean; prop_sizes_floored; prop_diurnal_gap_finite ]
      );
      ( "spawn",
        [
          Alcotest.test_case "deterministic" `Quick test_spawn_deterministic;
          Alcotest.test_case "insensitive to parent draws" `Quick
            test_spawn_insensitive_to_parent_draws;
          Alcotest.test_case "produces flows" `Quick test_spawn_produces_flows;
          Alcotest.test_case "pinned" `Quick test_spawn_pinned;
        ] );
      ( "network-run-golden",
        [
          Alcotest.test_case "wired" `Quick test_golden_wired;
          Alcotest.test_case "lte" `Quick test_golden_lte;
          Alcotest.test_case "mixed flap" `Quick test_golden_mixed_flap;
          Alcotest.test_case "mixed reorder" `Quick test_golden_mixed_reorder;
          Alcotest.test_case "mixed jitter" `Quick test_golden_mixed_jitter;
          Alcotest.test_case "codel" `Quick test_golden_codel;
          Alcotest.test_case "codel jitter+dup" `Quick test_golden_codel_jitter_dup;
          Alcotest.test_case "every cca" `Quick test_golden_every_cca;
        ] );
    ]
