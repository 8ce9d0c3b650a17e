(* Tests for the classic congestion-control algorithms. *)

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let mk_ack ?(now = 0.0) ?(rtt = 0.05) ?(inflight = 10) ?(rate_sample = 1e6) () =
  {
    Netsim.Cca.now;
    seq = 0;
    rtt;
    acked_bytes = 1500;
    inflight;
    delivered_bytes = 0;
    rate_sample;
    newly_lost = 0;
  }

let mk_loss ?(now = 0.0) ?(lost = 1) ?(kind = Netsim.Cca.Gap_detected) () =
  { Netsim.Cca.now; lost; kind; inflight = 5 }

(* ------------------------------------------------------------------ *)
(* Reno *)

(* A law under test is driven through its Cca.t; the start window is
   set through the shell. *)
let reno_from cwnd =
  let w = Classic_cc.Window.create ~cwnd () in
  (w, Classic_cc.Reno.as_cca w)

let test_reno_slow_start_doubles () =
  let w, r = reno_from 2.0 in
  let w0 = w.cwnd in
  r.on_ack (mk_ack ~now:0.1 ());
  r.on_ack (mk_ack ~now:0.11 ());
  check_float "one packet per ack in slow start" (w0 +. 2.0) w.cwnd

let test_reno_halves_on_loss () =
  let w, r = reno_from 20.0 in
  r.on_ack (mk_ack ~now:0.1 ());
  r.on_loss (mk_loss ~now:0.5 ());
  check_bool "halved" true (w.cwnd <= 11.0)

let test_reno_loss_once_per_rtt () =
  let w, r = reno_from 32.0 in
  r.on_ack (mk_ack ~now:0.1 ~rtt:0.05 ());
  r.on_loss (mk_loss ~now:0.5 ());
  let w1 = w.cwnd in
  (* Another loss within the same RTT must not halve again. *)
  r.on_loss (mk_loss ~now:0.51 ());
  check_float "no double reduction" w1 w.cwnd

(* ------------------------------------------------------------------ *)
(* The shell's recovery gate, over every law that uses it *)

let gated_laws =
  Classic_cc.
    [
      ("reno", Reno.make);
      ("cubic", Cubic.make);
      ("vegas", Vegas.make);
      ("westwood", Westwood.make);
      ("illinois", Illinois.make);
    ]

(* ACKs with one fixed RTT, then a gap loss that cuts the window; every
   later loss or ACK before now + srtt (srtt = that RTT) must leave the
   window where the cut put it. Delivery-rate samples of 10-30 kB/s
   keep Westwood's BDP estimate under 10 packets, so its loss cuts too,
   and the later ACKs move that estimate, so a second cut would show. *)
let prop_one_reduction_per_rtt =
  QCheck.Test.make ~name:"one reduction per rtt" ~count:300
    QCheck.(
      quad (int_range 0 (List.length gated_laws - 1)) (int_range 1 60)
        (float_range 0.01 0.3)
        (small_list (pair bool (float_range 0.0 0.99))))
    (fun (law, acks, rtt, later) ->
      let c = (snd (List.nth gated_laws law)) () in
      let ack ?(rate_sample = 3e4) now = c.on_ack (mk_ack ~now ~rtt ~rate_sample ()) in
      for i = 1 to acks do
        ack (0.01 *. float_of_int i)
      done;
      let now = 0.01 *. float_of_int (acks + 1) in
      let before = c.cwnd ~now in
      c.on_loss (mk_loss ~now ());
      let cut = c.cwnd ~now in
      cut < before
      && List.for_all
           (fun (is_loss, f) ->
             let t = now +. (f *. rtt) in
             if is_loss then c.on_loss (mk_loss ~now:t ())
             else ack ~rate_sample:(1e4 +. (2e4 *. f)) t;
             c.cwnd ~now:t = cut)
           (List.sort (fun (_, a) (_, b) -> Float.compare a b) later))

(* ------------------------------------------------------------------ *)
(* CUBIC *)

let test_cubic_curve_shape () =
  (* W(t) passes through origin at t = K and is increasing around it. *)
  let c = 0.4 and origin = 100.0 in
  let k = Float.cbrt (100.0 *. (1.0 -. 0.7) /. c) in
  let at = Classic_cc.Cubic.w_cubic ~c ~k ~origin in
  Alcotest.(check (float 1e-6)) "plateau at K" origin (at k);
  check_bool "concave rise before K" true (at (k /. 2.0) < origin);
  check_bool "probe after K" true (at (k +. 1.0) > origin)

let cubic_from cwnd =
  let w = Classic_cc.Window.create ~cwnd () in
  (w, Classic_cc.Cubic.as_cca (Classic_cc.Cubic.create w))

let test_cubic_reduces_by_beta () =
  let w, t = cubic_from 100.0 in
  t.on_ack (mk_ack ~now:0.05 ());
  let before = w.cwnd in
  t.on_loss (mk_loss ~now:0.2 ());
  Alcotest.(check (float 1e-6)) "beta reduction" (0.7 *. before) w.cwnd

let test_cubic_recovers_toward_wmax () =
  let w, t = cubic_from 100.0 in
  (* Force out of slow start. *)
  t.on_ack (mk_ack ~now:0.05 ());
  t.on_loss (mk_loss ~now:0.1 ());
  let after_loss = w.cwnd in
  (* Feed ACKs for several seconds of simulated time. *)
  let now = ref 0.2 in
  for _ = 1 to 2000 do
    now := !now +. 0.005;
    t.on_ack (mk_ack ~now:!now ())
  done;
  check_bool "grew back toward w_max" true (w.cwnd > after_loss +. 10.0)

let prop_cubic_window_positive =
  QCheck.Test.make ~name:"cubic window stays >= 2" ~count:100
    QCheck.(list (int_range 0 1))
    (fun choices ->
      let t = Classic_cc.Cubic.make () in
      let now = ref 0.0 in
      List.iter
        (fun choice ->
          now := !now +. 0.05;
          if choice = 0 then t.on_ack (mk_ack ~now:!now ())
          else t.on_loss (mk_loss ~now:!now ()))
        choices;
      t.cwnd ~now:!now >= 2.0)

(* ------------------------------------------------------------------ *)
(* BBR *)

let test_bbr_startup_exits_on_plateau () =
  let t = Classic_cc.Bbr.create () in
  check_bool "starts in startup" true (Classic_cc.Bbr.mode t = Classic_cc.Bbr.Startup);
  (* Constant delivery-rate samples: bandwidth stops growing. *)
  let now = ref 0.0 in
  for _ = 1 to 100 do
    now := !now +. 0.02;
    Classic_cc.Bbr.on_ack t (mk_ack ~now:!now ~rtt:0.05 ~rate_sample:3e6 ())
  done;
  check_bool "left startup" true (Classic_cc.Bbr.mode t <> Classic_cc.Bbr.Startup)

let test_bbr_pacing_tracks_btlbw () =
  let t = Classic_cc.Bbr.create () in
  let now = ref 0.0 in
  for _ = 1 to 300 do
    now := !now +. 0.02;
    Classic_cc.Bbr.on_ack t (mk_ack ~now:!now ~rtt:0.05 ~rate_sample:3e6 ~inflight:5 ())
  done;
  let pacing = Classic_cc.Bbr.pacing t ~now:!now in
  (* In PROBE_BW the gain is within [0.75, 1.25] of btl_bw = 3e6. *)
  check_bool "pacing near bandwidth" true (pacing > 2e6 && pacing < 4e6)

(* ------------------------------------------------------------------ *)
(* Westwood *)

let test_westwood_sets_cwnd_to_bdp_on_loss () =
  let w = Classic_cc.Window.create ~cwnd:50.0 () in
  let t = Classic_cc.Westwood.as_cca w in
  (* Feed ACKs establishing bw ~ 3e6 B/s at min RTT 50 ms: BDP = 100 pkts. *)
  for i = 1 to 50 do
    t.on_ack (mk_ack ~now:(0.01 *. float_of_int i) ~rtt:0.05 ~rate_sample:3e6 ())
  done;
  t.on_loss (mk_loss ~now:1.0 ());
  check_bool
    (Printf.sprintf "cwnd near BDP (got %.0f)" w.cwnd)
    true
    (w.cwnd > 80.0 && w.cwnd < 120.0)

(* ------------------------------------------------------------------ *)
(* Illinois *)

let test_illinois_alpha_shrinks_with_delay () =
  let t = Classic_cc.Illinois.create (Classic_cc.Window.create ()) in
  let c = Classic_cc.Illinois.as_cca t in
  (* Low delay: max step. *)
  for i = 1 to 20 do
    c.on_ack (mk_ack ~now:(0.01 *. float_of_int i) ~rtt:0.05 ())
  done;
  let a_low = Classic_cc.Illinois.alpha t in
  (* Queue builds: delay near the observed max. *)
  for i = 21 to 60 do
    c.on_ack (mk_ack ~now:(0.01 *. float_of_int i) ~rtt:0.15 ())
  done;
  let a_high = Classic_cc.Illinois.alpha t in
  check_bool
    (Printf.sprintf "alpha shrinks (%.2f -> %.2f)" a_low a_high)
    true (a_high < a_low)

(* ------------------------------------------------------------------ *)
(* Embedded interface *)

let test_embedded_set_rate_roundtrip () =
  List.iter
    (fun (name, embedded) ->
      let e : Classic_cc.Embedded.t = embedded () in
      (* Give it an RTT estimate first. *)
      e.cca.on_ack (mk_ack ~now:0.1 ~rtt:0.1 ());
      e.set_rate ~now:0.2 2e6;
      let r = e.get_rate ~now:0.2 in
      check_bool (name ^ ": set then get preserves rate") true
        (Float.abs (r -. 2e6) /. 2e6 < 0.05))
    Classic_cc.
      [
        ("reno", Reno.embedded);
        ("cubic", Cubic.embedded);
        ("vegas", Vegas.embedded);
        ("westwood", Westwood.embedded);
        ("illinois", Illinois.embedded);
        ("copa", Copa.embedded);
      ]

let test_embedded_bbr_exploration_length () =
  let e = Classic_cc.Bbr.embedded () in
  check_float "bbr explores 3 rtts" 3.0 e.Classic_cc.Embedded.exploration_rtts;
  let e = Classic_cc.Cubic.embedded () in
  check_float "cubic explores 1 rtt" 1.0 e.Classic_cc.Embedded.exploration_rtts

(* ------------------------------------------------------------------ *)
(* Integration over the simulator *)

let run_one ~cca ~capacity_mbps ~buffer_kb ~rtt ~duration =
  let link =
    {
      Netsim.Network.rate_fn = (fun _ -> Netsim.Units.mbps_to_bps capacity_mbps); const_rate = None;
      grain = 0.02;
      buffer_bytes = Netsim.Units.kb buffer_kb;
      loss_p = 0.0; aqm = `Fifo;
    }
  in
  let flows =
    [ { Netsim.Network.cca; start_at = 0.0; stop_at = duration; rtt } ]
  in
  Netsim.Network.run ~link ~flows ~duration ()

let utilization_of summary = Netsim.Network.utilization summary

let test_illinois_fills_link () =
  let summary =
    run_one ~cca:(Classic_cc.Illinois.make ()) ~capacity_mbps:24.0 ~buffer_kb:150
      ~rtt:0.03 ~duration:15.0
  in
  check_bool "illinois utilization > 0.85" true (utilization_of summary > 0.85)

let test_westwood_resilient_to_random_loss () =
  (* Unlike Reno, a loss at an uncongested operating point barely moves
     Westwood: the BDP estimate equals the operating point. *)
  let lossy_run cca =
    let link =
      { Netsim.Network.rate_fn = (fun _ -> Netsim.Units.mbps_to_bps 24.0); const_rate = None;
        grain = 0.02; buffer_bytes = Netsim.Units.kb 150; loss_p = 0.02; aqm = `Fifo }
    in
    let flows =
      [ { Netsim.Network.cca; start_at = 0.0; stop_at = 15.0; rtt = 0.03 } ]
    in
    Netsim.Network.run ~link ~flows ~duration:15.0 ()
  in
  let westwood = lossy_run (Classic_cc.Westwood.make ()) in
  let reno = lossy_run (Classic_cc.Reno.make ()) in
  check_bool "westwood beats reno under random loss" true
    (Netsim.Network.utilization westwood > Netsim.Network.utilization reno)

let test_cubic_fills_link () =
  let summary =
    run_one ~cca:(Classic_cc.Cubic.make ()) ~capacity_mbps:24.0 ~buffer_kb:150
      ~rtt:0.03 ~duration:15.0
  in
  check_bool "cubic utilization > 0.85" true (utilization_of summary > 0.85)

let test_bbr_fills_link_with_low_delay () =
  let summary =
    run_one ~cca:(Classic_cc.Bbr.make ()) ~capacity_mbps:24.0 ~buffer_kb:750
      ~rtt:0.03 ~duration:15.0
  in
  check_bool "bbr utilization > 0.8" true (utilization_of summary > 0.8);
  match summary.Netsim.Network.flows with
  | [ flow ] ->
    let mean_rtt = Netsim.Flow_stats.mean_rtt flow.Netsim.Network.stats in
    (* A 750 KB buffer at 24 Mbps could add 250 ms; BBR should stay far
       below that. *)
    check_bool "bbr delay bounded" true (mean_rtt < 0.09)
  | _ -> Alcotest.fail "one flow"

let test_cubic_bufferbloat_vs_vegas () =
  let deep = 1000 in
  let rtt_of cca =
    let summary =
      run_one ~cca ~capacity_mbps:24.0 ~buffer_kb:deep ~rtt:0.03 ~duration:15.0
    in
    match summary.Netsim.Network.flows with
    | [ flow ] -> Netsim.Flow_stats.mean_rtt flow.Netsim.Network.stats
    | _ -> Alcotest.fail "one flow"
  in
  let cubic_rtt = rtt_of (Classic_cc.Cubic.make ()) in
  let vegas_rtt = rtt_of (Classic_cc.Vegas.make ()) in
  check_bool "cubic fills deep buffers, vegas does not" true
    (cubic_rtt > 2.0 *. vegas_rtt)

let test_two_cubic_flows_fair () =
  let link =
    {
      Netsim.Network.rate_fn = (fun _ -> Netsim.Units.mbps_to_bps 24.0); const_rate = None;
      grain = 0.02;
      buffer_bytes = Netsim.Units.kb 150;
      loss_p = 0.0; aqm = `Fifo;
    }
  in
  let mk () =
    {
      Netsim.Network.cca = Classic_cc.Cubic.make ();
      start_at = 0.0;
      stop_at = 30.0;
      rtt = 0.03;
    }
  in
  let summary = Netsim.Network.run ~link ~flows:[ mk (); mk () ] ~duration:30.0 () in
  match summary.Netsim.Network.flows with
  | [ a; b ] ->
    let thr f =
      Netsim.Flow_stats.mean_throughput ~from_t:10.0 ~to_t:30.0
        f.Netsim.Network.stats
    in
    let ta = thr a and tb = thr b in
    let ratio = Float.min ta tb /. Float.max ta tb in
    check_bool "near-equal shares" true (ratio > 0.6)
  | _ -> Alcotest.fail "two flows"

let test_copa_keeps_queue_short () =
  let summary =
    run_one ~cca:(Classic_cc.Copa.make ()) ~capacity_mbps:24.0 ~buffer_kb:1000
      ~rtt:0.03 ~duration:15.0
  in
  match summary.Netsim.Network.flows with
  | [ flow ] ->
    let mean_rtt = Netsim.Flow_stats.mean_rtt flow.Netsim.Network.stats in
    check_bool "copa delay bounded" true (mean_rtt < 0.1);
    check_bool "copa utilization decent" true (utilization_of summary > 0.6)
  | _ -> Alcotest.fail "one flow"

let test_sprout_tracks_cellular () =
  let trace = Traces.Lte.generate ~seed:2 ~duration:15.0 Traces.Lte.Walking in
  let link =
    {
      Netsim.Network.rate_fn = Traces.Rate.fn trace; const_rate = Traces.Rate.const_bps trace;
      grain = Traces.Rate.grain trace;
      buffer_bytes = Netsim.Units.kb 150;
      loss_p = 0.0; aqm = `Fifo;
    }
  in
  let flows =
    [
      {
        Netsim.Network.cca = Classic_cc.Sprout_ewma.make ();
        start_at = 0.0;
        stop_at = 15.0;
        rtt = 0.03;
      };
    ]
  in
  let summary = Netsim.Network.run ~link ~flows ~duration:15.0 () in
  check_bool "sprout achieves some utilization" true
    (utilization_of summary > 0.3);
  match summary.Netsim.Network.flows with
  | [ flow ] ->
    check_bool "sprout delay low" true
      (Netsim.Flow_stats.mean_rtt flow.Netsim.Network.stats < 0.15)
  | _ -> Alcotest.fail "one flow"

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "classic"
    [
      ( "reno",
        [
          Alcotest.test_case "slow start" `Quick test_reno_slow_start_doubles;
          Alcotest.test_case "halves on loss" `Quick test_reno_halves_on_loss;
          Alcotest.test_case "once per rtt" `Quick test_reno_loss_once_per_rtt;
        ] );
      ("window", qsuite [ prop_one_reduction_per_rtt ]);
      ( "cubic",
        [
          Alcotest.test_case "curve shape" `Quick test_cubic_curve_shape;
          Alcotest.test_case "beta reduction" `Quick test_cubic_reduces_by_beta;
          Alcotest.test_case "recovers to wmax" `Quick
            test_cubic_recovers_toward_wmax;
        ]
        @ qsuite [ prop_cubic_window_positive ] );
      ( "westwood",
        [ Alcotest.test_case "bdp on loss" `Quick test_westwood_sets_cwnd_to_bdp_on_loss ] );
      ( "illinois",
        [ Alcotest.test_case "alpha vs delay" `Quick test_illinois_alpha_shrinks_with_delay ] );
      ( "bbr",
        [
          Alcotest.test_case "startup exit" `Quick test_bbr_startup_exits_on_plateau;
          Alcotest.test_case "pacing tracks bw" `Quick test_bbr_pacing_tracks_btlbw;
        ] );
      ( "embedded",
        [
          Alcotest.test_case "set/get rate" `Quick test_embedded_set_rate_roundtrip;
          Alcotest.test_case "exploration lengths" `Quick
            test_embedded_bbr_exploration_length;
        ] );
      ( "integration",
        [
          Alcotest.test_case "cubic fills link" `Slow test_cubic_fills_link;
          Alcotest.test_case "illinois fills link" `Slow test_illinois_fills_link;
          Alcotest.test_case "westwood random loss" `Slow
            test_westwood_resilient_to_random_loss;
          Alcotest.test_case "bbr low delay" `Slow test_bbr_fills_link_with_low_delay;
          Alcotest.test_case "bufferbloat contrast" `Slow
            test_cubic_bufferbloat_vs_vegas;
          Alcotest.test_case "two cubic fair" `Slow test_two_cubic_flows_fair;
          Alcotest.test_case "copa short queue" `Slow test_copa_keeps_queue_short;
          Alcotest.test_case "sprout cellular" `Slow test_sprout_tracks_cellular;
        ] );
    ]
