(* Tests for the trace generators. *)

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let test_constant_trace () =
  let t = Traces.Rate.constant 48.0 in
  check_float "constant rate" (Netsim.Units.mbps_to_bps 48.0) (Traces.Rate.fn t 3.7)

let test_step_trace_cycles () =
  let t = Traces.Rate.step ~period:10.0 [ 10.0; 20.0 ] in
  let fn = Traces.Rate.fn t in
  check_float "first level" (Netsim.Units.mbps_to_bps 10.0) (fn 5.0);
  check_float "second level" (Netsim.Units.mbps_to_bps 20.0) (fn 15.0);
  check_float "cycles back" (Netsim.Units.mbps_to_bps 10.0) (fn 25.0)

let test_lte_deterministic_per_seed () =
  let a = Traces.Lte.generate ~seed:9 ~duration:10.0 Traces.Lte.Driving in
  let b = Traces.Lte.generate ~seed:9 ~duration:10.0 Traces.Lte.Driving in
  let same = ref true in
  for i = 0 to 99 do
    let time = 0.1 *. float_of_int i in
    if Traces.Rate.fn a time <> Traces.Rate.fn b time then same := false
  done;
  check_bool "seeded generator is deterministic" true !same

let prop_lte_within_bounds =
  QCheck.Test.make ~name:"lte rate within [0.3, 40] Mbps" ~count:20
    QCheck.(pair small_int (int_range 0 3))
    (fun (seed, idx) ->
      let scenario = List.nth Traces.Lte.all_scenarios idx in
      let t = Traces.Lte.generate ~seed ~duration:20.0 scenario in
      let ok = ref true in
      for i = 0 to 199 do
        let mbps = Netsim.Units.bps_to_mbps (Traces.Rate.fn t (0.1 *. float_of_int i)) in
        if mbps < 0.29 || mbps > 40.01 then ok := false
      done;
      !ok)

let test_lte_scenarios_have_increasing_variability () =
  let cv scenario =
    let t = Traces.Lte.generate ~seed:11 ~duration:60.0 scenario in
    let n = 3000 in
    let samples =
      Array.init n (fun i -> Traces.Rate.fn t (0.02 *. float_of_int i))
    in
    let mean = Array.fold_left ( +. ) 0.0 samples /. float_of_int n in
    let var =
      Array.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.0)) 0.0 samples
      /. float_of_int n
    in
    sqrt var /. mean
  in
  let stationary = cv Traces.Lte.Stationary and driving = cv Traces.Lte.Driving in
  check_bool "driving more variable than stationary" true (driving > stationary)

let test_wan_presets () =
  let inter = Traces.Wan.inter_continental ~duration:10.0 () in
  let intra = Traces.Wan.intra_continental ~duration:10.0 () in
  check_bool "inter has longer rtt" true (inter.Traces.Wan.rtt > intra.Traces.Wan.rtt);
  check_bool "inter has more loss" true
    (inter.Traces.Wan.loss_p > intra.Traces.Wan.loss_p)

let test_clamp_and_scale () =
  let t = Traces.Rate.constant 48.0 in
  let clamped = Traces.Rate.clamp ~lo_mbps:0.0 ~hi_mbps:20.0 t in
  check_float "clamped" (Netsim.Units.mbps_to_bps 20.0) (Traces.Rate.fn clamped 1.0);
  let doubled = Traces.Rate.scale 2.0 t in
  check_float "scaled" (Netsim.Units.mbps_to_bps 96.0) (Traces.Rate.fn doubled 1.0)

let test_capacity_integral_matches_constant () =
  let t = Traces.Rate.constant 12.0 in
  let bytes =
    Netsim.Network.capacity_integral ~rate_fn:(Traces.Rate.fn t)
      ~grain:(Traces.Rate.grain t) ~duration:10.0 ()
  in
  Alcotest.(check (float 1.0)) "10s at 12 Mbps"
    (10.0 *. Netsim.Units.mbps_to_bps 12.0)
    bytes

(* The constant-rate short circuit must agree with the step-walk
   integral, including at durations that are not grain multiples. *)
let test_capacity_integral_short_circuit_agrees () =
  let t = Traces.Rate.constant 37.5 in
  let rate =
    match Traces.Rate.const_bps t with
    | Some r -> r
    | None -> Alcotest.fail "constant trace must expose const_bps"
  in
  List.iter
    (fun duration ->
      let stepped =
        Netsim.Network.capacity_integral ~rate_fn:(Traces.Rate.fn t)
          ~grain:(Traces.Rate.grain t) ~duration ()
      in
      let direct =
        Netsim.Network.capacity_integral ~const_rate:rate
          ~rate_fn:(Traces.Rate.fn t) ~grain:(Traces.Rate.grain t) ~duration ()
      in
      Alcotest.(check (float 1e-3))
        (Printf.sprintf "duration %gs" duration)
        stepped direct)
    [ 0.0; 0.02; 1.0; 10.0; 19.97; 60.0 ];
  (* Varying traces must not short-circuit. *)
  let step = Traces.Rate.step ~period:5.0 [ 10.0; 20.0 ] in
  Alcotest.(check bool) "step trace is not constant" true
    (Traces.Rate.const_bps step = None);
  (* A degenerate one-level step is constant again. *)
  let flat = Traces.Rate.step ~period:5.0 [ 10.0 ] in
  Alcotest.(check bool) "one-level step is constant" true
    (Traces.Rate.const_bps flat = Some (Netsim.Units.mbps_to_bps 10.0))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "traces"
    [
      ( "rate",
        [
          Alcotest.test_case "constant" `Quick test_constant_trace;
          Alcotest.test_case "step cycles" `Quick test_step_trace_cycles;
          Alcotest.test_case "clamp+scale" `Quick test_clamp_and_scale;
          Alcotest.test_case "capacity integral" `Quick
            test_capacity_integral_matches_constant;
          Alcotest.test_case "capacity short-circuit" `Quick
            test_capacity_integral_short_circuit_agrees;
        ] );
      ( "lte",
        [
          Alcotest.test_case "deterministic" `Quick test_lte_deterministic_per_seed;
          Alcotest.test_case "variability ordering" `Quick
            test_lte_scenarios_have_increasing_variability;
        ]
        @ qsuite [ prop_lte_within_bounds ] );
      ("wan", [ Alcotest.test_case "presets" `Quick test_wan_presets ]);
    ]
