(* Tests for the experiment harness: the CCA registry, scenario
   reductions, and integration checks used by the benches. *)

let check_bool = Alcotest.(check bool)

let test_registry_finds_all_experiments () =
  List.iter
    (fun id ->
      match Harness.Registry.find id with
      | Some _ -> ()
      | None -> Alcotest.fail (Printf.sprintf "missing experiment %s" id))
    [ "fig1"; "fig2a"; "fig2b"; "fig2c"; "fig5"; "tab2"; "fig6"; "tab3"; "tab4";
      "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14";
      "fig15"; "tab5"; "tab6"; "fig16"; "fig17"; "fig18"; "fig19"; "tab7"; "ablate" ]

let test_registry_rejects_unknown () =
  check_bool "unknown id" true (Harness.Registry.find "fig99" = None)

let test_ccas_all_constructible () =
  (* Classic/no-training CCAs must construct instantly; the factory list
     must contain no duplicates. *)
  let names = List.map fst Harness.Ccas.all in
  let uniq = List.sort_uniq compare names in
  check_bool "no duplicate names" true (List.length names = List.length uniq);
  List.iter
    (fun name ->
      if not (List.mem name [ "aurora"; "orca"; "mod-rl"; "c-libra"; "b-libra";
                              "cl-libra"; "r-libra" ])
      then
        let cca = (Harness.Ccas.find name) ~seed:1 in
        check_bool name true (String.length cca.Netsim.Cca.name > 0))
    names

let test_ccas_find_raises_on_unknown () =
  check_bool "raises" true
    (try
       let (_ : Harness.Ccas.factory) = Harness.Ccas.find "nope" in
       false
     with Invalid_argument _ -> true)

let test_scenario_share_and_jain () =
  (* Two identical CBR flows: share 0.5, jain ~1. *)
  let spec = Harness.Scenario.make_spec ~rtt:0.03 (Traces.Rate.constant 20.0) in
  let cbr ~seed:_ = Netsim.Cca.constant_rate (Netsim.Units.mbps_to_bps 15.0) in
  let summary =
    Harness.Scenario.run_mixed ~flows:[ (cbr, 0.0); (cbr, 0.0) ] ~duration:5.0 spec
  in
  let share = Harness.Scenario.share_of_first ~duration:5.0 summary in
  check_bool "share near half" true (Float.abs (share -. 0.5) < 0.05);
  let jain = Harness.Scenario.jain ~duration:5.0 summary in
  check_bool "jain near 1" true (jain > 0.98)

let test_scenario_averaged_runs_vary_seed () =
  let trace = Traces.Lte.generate ~seed:3 ~duration:6.0 Traces.Lte.Driving in
  let spec = Harness.Scenario.make_spec ~loss_p:0.02 trace in
  let u1 =
    (Harness.Scenario.averaged ~base_seed:1 ~runs:2 ~factory:Harness.Ccas.cubic
       ~duration:6.0 spec)
      .Harness.Scenario.util
  in
  let u2 =
    (Harness.Scenario.averaged ~base_seed:991 ~runs:2 ~factory:Harness.Ccas.cubic
       ~duration:6.0 spec)
      .Harness.Scenario.util
  in
  (* Different seeds, same ballpark: these are the same scenario. *)
  check_bool "results in same ballpark" true (Float.abs (u1 -. u2) < 0.3)

let test_scenario_trace_sets () =
  Alcotest.(check int) "four wired" 4 (List.length (Harness.Scenario.wired_traces ()));
  Alcotest.(check int) "four cellular" 4
    (List.length (Harness.Scenario.cellular_traces ~duration:5.0 ()))

let bits_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* The coarsener against a reference written out here: for each window
   k from 0 to the last one a sample falls in, the samples with
   [int_of_float (time /. step) = k], summed left to right over the
   series and divided by their count; windows with no sample left out. *)
let reference_coarsen ~step series =
  let slot (time, _) = int_of_float (time /. step) in
  let samples = Array.to_list series in
  let last = List.fold_left (fun a s -> max a (slot s)) (-1) samples in
  List.filter_map
    (fun k ->
      match List.filter (fun s -> slot s = k) samples with
      | [] -> None
      | in_k ->
        let sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 in_k in
        Some ((float_of_int k +. 0.5) *. step, sum /. float_of_int (List.length in_k)))
    (List.init (last + 1) Fun.id)

let coarsen_matches ~step series =
  let got = Array.to_list (Metrics.Convergence.coarsen ~step series) in
  let want = reference_coarsen ~step series in
  List.length got = List.length want
  && List.for_all2
       (fun (t, v) (t', v') -> bits_equal t t' && bits_equal v v')
       got want

(* Up to 40 samples at random (unsorted) times in [0, 30) s: at these
   steps most series leave some windows empty. *)
let prop_coarsen_reference =
  QCheck.Test.make ~name:"coarsen bit-equals the reference window mean" ~count:300
    QCheck.(
      pair (oneofl [ 0.5; 1.0; 2.0 ])
        (list_of_size (Gen.int_range 0 40)
           (pair (float_range 0.0 30.0) (float_range 0.0 1e8))))
    (fun (step, samples) -> coarsen_matches ~step (Array.of_list samples))

let test_coarsen_skips_empty_windows () =
  let series = [| (0.25, 1.0); (0.75, 4.0); (2.5, 9.0); (2.75, 3.0) |] in
  check_bool "matches reference" true (coarsen_matches ~step:1.0 series);
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "window 1 is empty" [ (0.5, 2.5); (2.5, 6.0) ]
    (Array.to_list (Metrics.Convergence.coarsen ~step:1.0 series))

(* The trace-set mean is the left fold of the per-trace averages, in
   trace order, divided by the number of traces. Over Fig. 7's eight
   traces the order shows in the bits: summed in reverse, they differ. *)
let test_over_traces_is_fold_of_averaged () =
  let duration = 2.0 in
  let traces =
    Harness.Scenario.wired_traces () @ Harness.Scenario.cellular_traces ~duration ()
  in
  let factory = Harness.Ccas.cubic in
  let got = Harness.Scenario.over_traces ~runs:2 ~factory ~duration traces in
  let per =
    List.map
      (fun trace ->
        Harness.Scenario.averaged ~runs:2 ~factory ~duration
          (Harness.Scenario.make_spec ~rtt:0.03 ~buffer_kb:150 trace))
      traces
  in
  let fold f = List.fold_left (fun a m -> a +. f m) 0.0 per /. 8.0 in
  let open Harness.Scenario in
  check_bool "util" true (bits_equal got.util (fold (fun m -> m.util)));
  check_bool "delay" true (bits_equal got.delay (fold (fun m -> m.delay)));
  check_bool "loss" true (bits_equal got.loss (fold (fun m -> m.loss)));
  check_bool "thr" true (bits_equal got.thr (fold (fun m -> m.thr)))

(* Fig. 16 and the satellite/5G rows build their specs with [wan_spec]:
   the path's own RTT, buffer and loss, under the ambient --impair and
   its dup-ACK rule. *)
let test_wan_spec_follows_ambient_impair () =
  let path = Traces.Wan.inter_continental ~duration:5.0 () in
  let clean = Harness.Scenario.wan_spec path in
  check_bool "path rtt" true (clean.Harness.Scenario.rtt = path.Traces.Wan.rtt);
  check_bool "path loss" true (clean.Harness.Scenario.loss_p = path.Traces.Wan.loss_p);
  Alcotest.(check int) "path buffer" path.Traces.Wan.buffer_bytes
    clean.Harness.Scenario.buffer_bytes;
  check_bool "clean by default" true (Faults.Spec.is_empty clean.Harness.Scenario.impair);
  Alcotest.(check int) "exact gap detection" 1 clean.Harness.Scenario.dup_thresh;
  let reorder = Faults.Spec.of_string_exn "reorder" in
  Harness.Scenario.set_default_impair reorder;
  Fun.protect
    ~finally:(fun () -> Harness.Scenario.set_default_impair Faults.Spec.empty)
    (fun () ->
      let s = Harness.Scenario.wan_spec path in
      Alcotest.(check string) "ambient impairment" (Faults.Spec.to_string reorder)
        (Faults.Spec.to_string s.Harness.Scenario.impair);
      Alcotest.(check int) "reordering dup-ACK rule" 3 s.Harness.Scenario.dup_thresh)

(* The one-BDP buffer of Figs. 13-15 and Tab. 4 (48 Mbit/s, 100 ms) and
   of Fig. 2(a) (the step trace's mean level, 80 ms). *)
let test_one_bdp_buffer () =
  let wired =
    Harness.Scenario.one_bdp
      (Harness.Scenario.make_spec ~rtt:0.1 (Traces.Rate.constant 48.0))
  in
  Alcotest.(check int) "48 Mbit/s, 100 ms"
    (Netsim.Units.bdp_bytes ~rate_bps:(Netsim.Units.mbps_to_bps 48.0) ~rtt_s:0.1)
    wired.Harness.Scenario.buffer_bytes;
  Alcotest.(check int) "600 KB" 600_000 wired.Harness.Scenario.buffer_bytes;
  let step = Traces.Rate.step ~period:10.0 Harness.Exp_fig2.step_levels in
  let fig2a = Harness.Scenario.one_bdp (Harness.Scenario.make_spec ~rtt:0.08 step) in
  Alcotest.(check int) "step trace, 80 ms"
    (Netsim.Units.bdp_bytes ~rate_bps:(Traces.Rate.mean_bps step) ~rtt_s:0.08)
    fig2a.Harness.Scenario.buffer_bytes

let test_scale_switches () =
  Harness.Scale.set Harness.Scale.full;
  check_bool "full durations" true ((Harness.Scale.get ()).Harness.Scale.duration = 60.0);
  Harness.Scale.set Harness.Scale.quick;
  check_bool "quick durations" true ((Harness.Scale.get ()).Harness.Scale.duration = 20.0)

let () =
  Alcotest.run "harness"
    [
      ( "registry",
        [
          Alcotest.test_case "all experiments present" `Quick
            test_registry_finds_all_experiments;
          Alcotest.test_case "unknown id" `Quick test_registry_rejects_unknown;
        ] );
      ( "ccas",
        [
          Alcotest.test_case "constructible" `Quick test_ccas_all_constructible;
          Alcotest.test_case "unknown raises" `Quick test_ccas_find_raises_on_unknown;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "share+jain" `Quick test_scenario_share_and_jain;
          Alcotest.test_case "averaged seeds" `Slow test_scenario_averaged_runs_vary_seed;
          Alcotest.test_case "trace sets" `Quick test_scenario_trace_sets;
          Alcotest.test_case "scale" `Quick test_scale_switches;
          Alcotest.test_case "trace-set mean" `Quick test_over_traces_is_fold_of_averaged;
          Alcotest.test_case "wan spec impair" `Quick test_wan_spec_follows_ambient_impair;
          Alcotest.test_case "one bdp" `Quick test_one_bdp_buffer;
        ] );
      ( "coarsen",
        Alcotest.test_case "empty windows" `Quick test_coarsen_skips_empty_windows
        :: List.map QCheck_alcotest.to_alcotest [ prop_coarsen_reference ] );
    ]
