(* Tests for the metrics library: Jain index, CDFs, the Tab. 5
   convergence detector, safety statistics and the overhead ledger. *)

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Jain *)

let test_jain_equal_allocation () =
  check_float "equal is 1" 1.0 (Metrics.Jain.index [| 5.0; 5.0; 5.0 |])

let test_jain_starved_flow () =
  let j = Metrics.Jain.index [| 10.0; 0.0 |] in
  check_float "one of two starved" 0.5 j

let prop_jain_in_unit_interval =
  QCheck.Test.make ~name:"jain in (0,1]" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 10) (float_range 0.0 100.0))
    (fun xs ->
      let j = Metrics.Jain.index (Array.of_list xs) in
      j > 0.0 && j <= 1.0 +. 1e-9)

let prop_jain_maximised_by_fairness =
  QCheck.Test.make ~name:"equal allocation maximises jain" ~count:200
    QCheck.(pair (int_range 2 8) (list_of_size (Gen.int_range 2 8) (float_range 0.1 100.0)))
    (fun (n, xs) ->
      QCheck.assume (List.length xs >= 2);
      let unequal = Metrics.Jain.index (Array.of_list xs) in
      let equal = Metrics.Jain.index (Array.make n 1.0) in
      equal >= unequal -. 1e-9)

let prop_jain_scale_invariant =
  QCheck.Test.make ~name:"jain scale invariant" ~count:200
    QCheck.(pair (float_range 0.1 50.0) (list_of_size (Gen.int_range 1 6) (float_range 0.1 10.0)))
    (fun (k, xs) ->
      let a = Metrics.Jain.index (Array.of_list xs) in
      let b = Metrics.Jain.index (Array.of_list (List.map (fun v -> k *. v) xs)) in
      Float.abs (a -. b) < 1e-9)

(* ------------------------------------------------------------------ *)
(* CDF *)

let test_cdf_quantiles () =
  let cdf = Metrics.Cdf.of_samples [| 3.0; 1.0; 2.0; 5.0; 4.0 |] in
  check_float "min" 1.0 (Metrics.Cdf.min cdf);
  check_float "max" 5.0 (Metrics.Cdf.max cdf);
  check_float "median" 3.0 (Metrics.Cdf.quantile cdf 0.5);
  check_float "mean" 3.0 (Metrics.Cdf.mean cdf);
  check_float "range" 4.0 (Metrics.Cdf.range cdf)

let test_cdf_at () =
  let cdf = Metrics.Cdf.of_samples [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "P[X<=0]" 0.0 (Metrics.Cdf.at cdf 0.0);
  check_float "P[X<=2]" 0.5 (Metrics.Cdf.at cdf 2.0);
  check_float "P[X<=9]" 1.0 (Metrics.Cdf.at cdf 9.0)

let prop_cdf_monotone =
  QCheck.Test.make ~name:"cdf monotone nondecreasing" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 30) (float_range (-50.0) 50.0))
    (fun xs ->
      let cdf = Metrics.Cdf.of_samples (Array.of_list xs) in
      let ok = ref true in
      let prev = ref 0.0 in
      for i = -50 to 50 do
        let p = Metrics.Cdf.at cdf (float_of_int i) in
        if p < !prev then ok := false;
        prev := p
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Convergence *)

let series_of_list step xs =
  Array.of_list (List.mapi (fun i v -> (float_of_int i *. step, v)) xs)

let test_convergence_detects_stable_plateau () =
  (* Ramps for 2 s, then flat at 10 for 8 s (0.5 s bins). *)
  let values = List.init 20 (fun i -> if i < 4 then float_of_int i else 10.0) in
  let series = series_of_list 0.5 values in
  let r = Metrics.Convergence.analyse ~window:3.0 ~entry:0.0 series in
  (match r.Metrics.Convergence.conv_time with
  | Some t -> check_bool "converged at plateau start" true (t >= 1.5 && t <= 2.5)
  | None -> Alcotest.fail "should converge");
  check_float "flat stability" 0.0 r.Metrics.Convergence.stability;
  check_float "avg" 10.0 r.Metrics.Convergence.avg_throughput

let test_convergence_rejects_oscillation () =
  let values = List.init 40 (fun i -> if i mod 2 = 0 then 2.0 else 20.0) in
  let series = series_of_list 0.5 values in
  let r = Metrics.Convergence.analyse ~window:5.0 ~entry:0.0 series in
  check_bool "never stable" true (r.Metrics.Convergence.conv_time = None)

let test_convergence_respects_entry_time () =
  let values = List.init 20 (fun _ -> 10.0) in
  let series = series_of_list 0.5 values in
  let r = Metrics.Convergence.analyse ~window:3.0 ~entry:5.0 series in
  match r.Metrics.Convergence.conv_time with
  | Some t -> check_bool "measured from entry" true (t < 0.6)
  | None -> Alcotest.fail "should converge"

(* ------------------------------------------------------------------ *)
(* Safety *)

let test_safety_statistics () =
  let s = Metrics.Safety.of_trials [| 0.8; 0.9; 1.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 0.9 s.Metrics.Safety.mean;
  Alcotest.(check (float 1e-9)) "range" (0.2 -. 0.0) s.Metrics.Safety.range;
  check_bool "stddev" true (Float.abs (s.Metrics.Safety.stddev -. 0.0816) < 1e-3);
  Alcotest.(check int) "trials" 3 s.Metrics.Safety.trials

(* ------------------------------------------------------------------ *)
(* Overhead ledger *)

let test_overhead_counts_callbacks_and_forwards () =
  let ledger = Metrics.Overhead.create () in
  let nn = Rlcc.Nn.create { Rlcc.Nn.input = 2; hidden = [ 4 ]; output = 1 } in
  let ws = Rlcc.Nn.workspace nn ~rows:1 in
  Rlcc.Nn.set_input ws ~row:0 [| 0.0; 1.0 |];
  let cca =
    {
      Netsim.Cca.name = "probe";
      on_ack = (fun _ -> ignore (Rlcc.Nn.forward nn ws ~rows:1));
      on_loss = (fun _ -> ());
      on_send = (fun _ -> ());
      pacing_rate = (fun ~now:_ -> 1e6);
      cwnd = (fun ~now:_ -> 10.0);
    }
  in
  let wrapped = Metrics.Overhead.wrap ledger cca in
  let ack =
    { Netsim.Cca.now = 0.0; seq = 0; rtt = 0.05; acked_bytes = 1500; inflight = 1;
      delivered_bytes = 0; rate_sample = 0.0; newly_lost = 0 }
  in
  for _ = 1 to 5 do
    wrapped.Netsim.Cca.on_ack ack
  done;
  let report = Metrics.Overhead.report ledger ~sim_seconds:5.0 in
  Alcotest.(check (float 1e-9)) "one forward per ack" 1.0
    report.Metrics.Overhead.forwards_per_sim_s;
  Alcotest.(check int) "callbacks counted" 5 ledger.Metrics.Overhead.callbacks;
  check_bool "cpu priced" true (report.Metrics.Overhead.cpu_per_sim_s > 0.0)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "metrics"
    [
      ( "jain",
        [
          Alcotest.test_case "equal" `Quick test_jain_equal_allocation;
          Alcotest.test_case "starved" `Quick test_jain_starved_flow;
        ]
        @ qsuite
            [ prop_jain_in_unit_interval; prop_jain_maximised_by_fairness; prop_jain_scale_invariant ] );
      ( "cdf",
        [
          Alcotest.test_case "quantiles" `Quick test_cdf_quantiles;
          Alcotest.test_case "at" `Quick test_cdf_at;
        ]
        @ qsuite [ prop_cdf_monotone ] );
      ( "convergence",
        [
          Alcotest.test_case "plateau" `Quick test_convergence_detects_stable_plateau;
          Alcotest.test_case "oscillation" `Quick test_convergence_rejects_oscillation;
          Alcotest.test_case "entry time" `Quick test_convergence_respects_entry_time;
        ] );
      ("safety", [ Alcotest.test_case "statistics" `Quick test_safety_statistics ]);
      ( "overhead",
        [ Alcotest.test_case "ledger" `Quick test_overhead_counts_callbacks_and_forwards ] );
    ]
