(* Additional behaviour tests across libraries: RTT tracker, flow-level
   RTO and cwnd limiting, trace statistics, feature extraction values,
   the Vivace state machine, telemetry series, the ideal combiner on
   flow stats, and the extension substrates (Westwood/Illinois/CoDel
   already covered elsewhere; here satellite/5G presets and scale). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let ack ?(seq = 0) ?(inflight = 10) ?(rate_sample = 1e6) ~now ~rtt () =
  {
    Netsim.Cca.now;
    seq;
    rtt;
    acked_bytes = 1500;
    inflight;
    delivered_bytes = 1500 * seq;
    rate_sample;
    newly_lost = 0;
  }

(* ------------------------------------------------------------------ *)
(* Rtt_tracker *)

let test_rtt_tracker_ewma_and_min () =
  let t = Netsim.Cca.Rtt_tracker.create () in
  Netsim.Cca.Rtt_tracker.observe t 0.1;
  check_float "first sample seeds srtt" 0.1 (Netsim.Cca.Rtt_tracker.srtt t);
  Netsim.Cca.Rtt_tracker.observe t 0.2;
  let srtt = Netsim.Cca.Rtt_tracker.srtt t in
  check_bool "ewma between samples" true (srtt > 0.1 && srtt < 0.2);
  check_float "min tracked" 0.1 (Netsim.Cca.Rtt_tracker.min_rtt t);
  check_int "two samples" 2 (Netsim.Cca.Rtt_tracker.samples t)

let test_rtt_tracker_defaults_before_samples () =
  let t = Netsim.Cca.Rtt_tracker.create () in
  check_float "default srtt 100ms" 0.1 (Netsim.Cca.Rtt_tracker.srtt t);
  check_float "default min 100ms" 0.1 (Netsim.Cca.Rtt_tracker.min_rtt t)

(* ------------------------------------------------------------------ *)
(* Flow-level behaviour through the simulator *)

(* A CCA that stops producing after [n] packets never sees ACKs for its
   tail if the link dies; the flow's RTO must declare them lost. *)
let test_flow_rto_fires_on_dead_link () =
  let captured = ref None in
  let cca =
    {
      Netsim.Cca.name = "probe";
      on_ack = (fun _ -> ());
      on_loss = (fun loss -> captured := Some loss.Netsim.Cca.kind);
      on_send = (fun _ -> ());
      pacing_rate = (fun ~now:_ -> 1e6);
      cwnd = (fun ~now:_ -> 4.0);
    }
  in
  (* Dead link: zero capacity, so nothing is ever delivered. *)
  let link =
    { Netsim.Network.rate_fn = (fun _ -> 0.0); grain = 0.02; const_rate = None;
      buffer_bytes = Netsim.Units.kb 150; loss_p = 0.0; aqm = `Fifo }
  in
  let flows = [ { Netsim.Network.cca; start_at = 0.0; stop_at = 5.0; rtt = 0.03 } ] in
  ignore (Netsim.Network.run ~link ~flows ~duration:5.0 ());
  check_bool "timeout loss delivered" true (!captured = Some Netsim.Cca.Timeout)

let test_flow_cwnd_limits_inflight () =
  (* cwnd = 2 with a high pacing rate: inflight can never exceed 2, so
     throughput is bounded by 2 pkts per RTT. *)
  let cca =
    {
      Netsim.Cca.name = "two";
      on_ack = (fun _ -> ());
      on_loss = (fun _ -> ());
      on_send = (fun _ -> ());
      pacing_rate = (fun ~now:_ -> 1e9);
      cwnd = (fun ~now:_ -> 2.0);
    }
  in
  let link =
    { Netsim.Network.rate_fn = (fun _ -> Netsim.Units.mbps_to_bps 100.0); const_rate = None;
      grain = 0.02; buffer_bytes = Netsim.Units.mb 1; loss_p = 0.0; aqm = `Fifo }
  in
  let flows = [ { Netsim.Network.cca; start_at = 0.0; stop_at = 5.0; rtt = 0.1 } ] in
  let s = Netsim.Network.run ~link ~flows ~duration:5.0 () in
  match s.Netsim.Network.flows with
  | [ f ] ->
    let thr = Netsim.Flow_stats.mean_throughput ~from_t:1.0 ~to_t:5.0 f.Netsim.Network.stats in
    (* 2 packets per ~100 ms = 30 kB/s; allow serialization slack. *)
    check_bool (Printf.sprintf "window-limited (%.0f B/s)" thr) true (thr < 45_000.0)
  | _ -> Alcotest.fail "one flow"

let test_flow_stats_loss_accounting () =
  (* CBR over capacity: sent = acked + lost modulo in-flight tail. *)
  let link =
    { Netsim.Network.rate_fn = (fun _ -> Netsim.Units.mbps_to_bps 10.0); const_rate = None;
      grain = 0.02; buffer_bytes = Netsim.Units.kb 30; loss_p = 0.0; aqm = `Fifo }
  in
  let flows =
    [ { Netsim.Network.cca = Netsim.Cca.constant_rate (Netsim.Units.mbps_to_bps 20.0);
        start_at = 0.0; stop_at = 4.0; rtt = 0.03 } ]
  in
  let s = Netsim.Network.run ~link ~flows ~duration:5.0 () in
  match s.Netsim.Network.flows with
  | [ f ] ->
    let st = f.Netsim.Network.stats in
    check_bool "roughly half the packets lost" true
      (Netsim.Flow_stats.loss_rate st > 0.4 && Netsim.Flow_stats.loss_rate st < 0.6)
  | _ -> Alcotest.fail "one flow"

(* ------------------------------------------------------------------ *)
(* Feature extraction values *)

let obs =
  {
    Rlcc.Features.send_rate = 2e6;
    throughput = 1e6;
    avg_rtt = 0.1;
    min_rtt = 0.05;
    rtt_gradient = 0.02;
    loss_rate = 0.3;
    ack_gap_ewma = 0.01;
    send_gap_ewma = 0.02;
    rate_norm = 4e6;
  }

let extract1 c = List.hd (Rlcc.Features.extract obs c)

let test_feature_values () =
  check_float "(iv) send rate normalised" 0.5 (extract1 Rlcc.Features.Send_rate);
  check_float "(ix) delivery normalised" 0.25 (extract1 Rlcc.Features.Delivery_rate);
  check_float "(iii) rtt ratio" 2.0 (extract1 Rlcc.Features.Rtt_ratio);
  check_float "(v) sent/acked" 2.0 (extract1 Rlcc.Features.Sent_acked_ratio);
  check_float "(vii) loss" 0.3 (extract1 Rlcc.Features.Loss_rate);
  check_float "(viii) gradient" 0.02 (extract1 Rlcc.Features.Latency_gradient)

let test_feature_clamps () =
  let hot = { obs with Rlcc.Features.rtt_gradient = 99.0; loss_rate = 5.0 } in
  check_float "gradient clamped" 2.0
    (List.hd (Rlcc.Features.extract hot Rlcc.Features.Latency_gradient));
  check_float "loss clamped" 1.0
    (List.hd (Rlcc.Features.extract hot Rlcc.Features.Loss_rate))

let test_all_candidates_have_names () =
  List.iter
    (fun c -> check_bool "named" true (String.length (Rlcc.Features.candidate_name c) > 0))
    Rlcc.Features.all_candidates

(* ------------------------------------------------------------------ *)
(* AIAD action arithmetic *)

let test_aiad_step_is_packets_per_rtt () =
  let r =
    Rlcc.Actions.apply (Rlcc.Actions.Aiad 10.0) ~rate:1e6 ~min_rtt:0.1 ~mss:1500 2.0
  in
  (* +2 packets per 100 ms = +30 kB/s. *)
  check_float "aiad step" (1e6 +. 30_000.0) r

(* ------------------------------------------------------------------ *)
(* Vivace internals *)

let test_vivace_clamp_step () =
  let v = Rlcc.Vivace.create () in
  (* The base rate can change by at most 25% per decision: drive a huge
     artificial gradient through one probe pair and check the bound. *)
  let send ~seq ~now = Rlcc.Vivace.on_send v { Netsim.Cca.now; seq; size = 1500; inflight = 4 } in
  let acknowledge ~seq ~now ~rtt = Rlcc.Vivace.on_ack v (ack ~seq ~now ~rtt ()) in
  (* Emulate a long clean run: rates should never jump more than 2x in
     one MI (doubling in Starting) nor drop below the floor. *)
  let prev_base = ref (Rlcc.Vivace.base_rate v) in
  let seq = ref 0 in
  for i = 1 to 300 do
    incr seq;
    let now = 0.01 *. float_of_int i in
    send ~seq:!seq ~now;
    acknowledge ~seq:(max 0 (!seq - 3)) ~now ~rtt:0.03;
    (* The base rate may at most double per decision (Starting) and
       never leaves [1500, max_rate]; the applied rate stays within the
       probe band of the base. *)
    let b = Rlcc.Vivace.base_rate v in
    check_bool "base bounded" true
      (b <= (!prev_base *. 2.000001) +. 1.0 && b >= 1500.0 && b <= Rlcc.Actions.max_rate);
    check_bool "applied near base or double" true
      (Rlcc.Vivace.rate v <= (b *. 2.1) +. 1.0);
    prev_base := b
  done

(* ------------------------------------------------------------------ *)
(* Telemetry utility series *)

let test_telemetry_utility_series_follows_choice () =
  let t = Libra.Telemetry.create () in
  Libra.Telemetry.record t
    { Libra.Telemetry.at = 1.0; chosen = Libra.Telemetry.Rl; u_prev = 1.0;
      u_rl = 5.0; u_cl = 2.0; x_next = 1e6 };
  Libra.Telemetry.record t
    { Libra.Telemetry.at = 2.0; chosen = Libra.Telemetry.Cl; u_prev = 1.0;
      u_rl = 0.0; u_cl = 3.0; x_next = 1e6 };
  match Libra.Telemetry.utility_series t with
  | [ (1.0, 5.0); (2.0, 3.0) ] -> ()
  | _ -> Alcotest.fail "series should carry the chosen utility"

(* ------------------------------------------------------------------ *)
(* Ideal combiner over flow stats *)

let test_ideal_utility_of_stats_grid () =
  let stats = Netsim.Flow_stats.create ~bin:0.01 () in
  for i = 1 to 800 do
    Netsim.Flow_stats.record_delivery stats ~now:(0.01 *. float_of_int i)
      ~bytes:1500 ~rtt:0.05
  done;
  let series = Libra.Ideal.utility_of_stats stats ~duration:8.0 in
  check_int "four windows" 4 (Array.length series);
  (* Constant throughput, flat RTT: equal positive utility in each bin. *)
  let u0 = snd series.(0) and u3 = snd series.(3) in
  (* The first window misses one bin-edge delivery; allow 5%. *)
  check_bool "flat utility" true (Float.abs (u0 -. u3) < 0.05 *. u3 && u0 > 0.0)

(* ------------------------------------------------------------------ *)
(* Extension substrates *)

let test_satellite_preset () =
  let p = Traces.Wan.satellite ~duration:5.0 () in
  check_bool "long rtt" true (p.Traces.Wan.rtt > 0.4);
  check_bool "lossy" true (p.Traces.Wan.loss_p >= 0.01)

let test_five_g_switches_regimes () =
  let p = Traces.Wan.five_g ~duration:30.0 () in
  let fn = Traces.Rate.fn p.Traces.Wan.rate in
  let fast = ref 0 and slow = ref 0 in
  for i = 0 to 299 do
    let mbps = Netsim.Units.bps_to_mbps (fn (0.1 *. float_of_int i)) in
    if mbps > 100.0 then incr fast else if mbps < 50.0 then incr slow
  done;
  check_bool "visits both regimes" true (!fast > 20 && !slow > 20)

(* CoDel's queue keeps the same byte bound as FIFO: a burst past it
   tail-drops at admission. *)
let test_codel_keeps_capacity_bound () =
  let sim = Netsim.Sim.create () in
  let served = ref 0 in
  let link =
    Netsim.Link.create ~aqm:`Codel ~sim ~rate_fn:(fun _ -> 125_000.0) ~grain:0.01
      ~buffer_bytes:4500 ~loss_p:0.0 ~rng:(Netsim.Rng.create 1)
      ~deliver:(fun _ -> incr served) ()
  in
  for seq = 0 to 3 do
    Netsim.Link.send link { Netsim.Packet.flow = 0; seq; size = 1500; corrupt = false }
  done;
  check_int "tail drop at capacity" 1 (Netsim.Link.queue_drops link);
  Netsim.Sim.run sim ~until:1.0;
  check_int "admitted 3 served" 3 !served

(* ------------------------------------------------------------------ *)
(* Libra over other classics builds and runs *)

let test_w_libra_runs () =
  let inst =
    Libra.make_instrumented ~name:"w-libra"
      ~classic:(Some (Classic_cc.Westwood.embedded ())) ()
  in
  let link =
    { Netsim.Network.rate_fn = (fun _ -> Netsim.Units.mbps_to_bps 24.0); const_rate = None;
      grain = 0.02; buffer_bytes = Netsim.Units.kb 150; loss_p = 0.0; aqm = `Fifo }
  in
  let flows = [ { Netsim.Network.cca = inst.Libra.cca; start_at = 0.0; stop_at = 10.0; rtt = 0.03 } ] in
  let s = Netsim.Network.run ~link ~flows ~duration:10.0 () in
  check_bool "w-libra utilises" true (Netsim.Network.utilization s > 0.6);
  check_bool "w-libra decided" true
    (Libra.Telemetry.total (Libra.Controller.telemetry inst.Libra.controller) > 5)

let () =
  Alcotest.run "more"
    [
      ( "rtt_tracker",
        [
          Alcotest.test_case "ewma+min" `Quick test_rtt_tracker_ewma_and_min;
          Alcotest.test_case "defaults" `Quick test_rtt_tracker_defaults_before_samples;
        ] );
      ( "flow",
        [
          Alcotest.test_case "rto on dead link" `Quick test_flow_rto_fires_on_dead_link;
          Alcotest.test_case "cwnd limits inflight" `Quick test_flow_cwnd_limits_inflight;
          Alcotest.test_case "loss accounting" `Quick test_flow_stats_loss_accounting;
        ] );
      ( "features",
        [
          Alcotest.test_case "values" `Quick test_feature_values;
          Alcotest.test_case "clamps" `Quick test_feature_clamps;
          Alcotest.test_case "names" `Quick test_all_candidates_have_names;
          Alcotest.test_case "aiad step" `Quick test_aiad_step_is_packets_per_rtt;
        ] );
      ("vivace", [ Alcotest.test_case "bounded steps" `Quick test_vivace_clamp_step ]);
      ( "telemetry",
        [ Alcotest.test_case "utility series" `Quick test_telemetry_utility_series_follows_choice ] );
      ("ideal", [ Alcotest.test_case "grid from stats" `Quick test_ideal_utility_of_stats_grid ]);
      ( "extensions",
        [
          Alcotest.test_case "satellite" `Quick test_satellite_preset;
          Alcotest.test_case "5g regimes" `Quick test_five_g_switches_regimes;
          Alcotest.test_case "codel capacity" `Quick test_codel_keeps_capacity_bound;
          Alcotest.test_case "w-libra runs" `Slow test_w_libra_runs;
        ] );
    ]
