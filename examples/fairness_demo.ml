(* Fairness demo: three C-Libra flows share a 48 Mbit/s bottleneck.

   Flows that start together split the link near-evenly (Theorem 4.1's
   symmetric equilibrium; also the paper's Fig. 14). Staggered entries
   show a packet-scale caveat this reproduction documents in
   EXPERIMENTS.md: with Eq. 1's heavy RTT-slope penalty, probing past a
   link already running at capacity is punished for everyone, so late
   arrivals can stay pinned near their entry-time share.

   Run with:  dune exec examples/fairness_demo.exe *)

let () =
  let duration = 40.0 in
  let spec =
    Harness.Scenario.one_bdp
      (Harness.Scenario.make_spec ~rtt:0.1 (Traces.Rate.constant 48.0))
  in
  print_endline "three C-Libra flows starting together on 48 Mbit/s...\n";
  let summary =
    Harness.Scenario.run_mixed
      ~flows:
        [ (Harness.Ccas.c_libra, 0.0); (Harness.Ccas.c_libra, 0.0);
          (Harness.Ccas.c_libra, 0.0) ]
      ~duration spec
  in
  (* Per-5-second shares. *)
  Printf.printf "%6s %10s %10s %10s %8s\n" "t(s)" "flow1" "flow2" "flow3" "jain";
  let windows = int_of_float (duration /. 5.0) in
  for w = 0 to windows - 1 do
    let lo = 5.0 *. float_of_int w and hi = 5.0 *. float_of_int (w + 1) in
    let thr =
      List.map
        (fun f ->
          Netsim.Flow_stats.mean_throughput ~from_t:lo ~to_t:hi f.Netsim.Network.stats)
        summary.Netsim.Network.flows
    in
    let active = List.filter (fun v -> v > 1000.0) thr in
    let jain = Metrics.Jain.index (Array.of_list active) in
    match List.map Netsim.Units.bps_to_mbps thr with
    | [ a; b; c ] ->
      Printf.printf "%6.0f %10.2f %10.2f %10.2f %8.3f\n" lo a b c jain
    | _ -> ()
  done;
  let jain = Harness.Scenario.jain ~duration summary in
  Printf.printf "\nsteady-state Jain index (second half): %.3f\n" jain;
  let third = List.nth summary.Netsim.Network.flows 2 in
  let series = Netsim.Flow_stats.throughput_series third.Netsim.Network.stats in
  (* half-second grain for the convergence detector *)
  let coarse = Metrics.Convergence.coarsen ~step:0.5 series in
  (match (Metrics.Convergence.analyse ~entry:0.0 coarse).Metrics.Convergence.conv_time with
  | Some conv -> Printf.printf "third flow stabilised %.1f s after entering\n" conv
  | None -> print_endline "third flow did not meet the +/-25%/5s stability bar");
  (* The staggered variant, for contrast. *)
  print_endline "\nstaggered entries (t = 0, 5, 10 s):";
  let staggered =
    Harness.Scenario.run_mixed
      ~flows:
        [ (Harness.Ccas.c_libra, 0.0); (Harness.Ccas.c_libra, 5.0);
          (Harness.Ccas.c_libra, 10.0) ]
      ~duration spec
  in
  List.iter
    (fun f ->
      Printf.printf "  flow %d: %.1f Mbit/s\n" f.Netsim.Network.flow_id
        (Netsim.Units.bps_to_mbps
           (Netsim.Flow_stats.mean_throughput ~from_t:(duration /. 2.0)
              ~to_t:duration f.Netsim.Network.stats)))
    staggered.Netsim.Network.flows;
  Printf.printf "  jain: %.3f -- late arrivals hold near their entry share\n"
    (Harness.Scenario.jain ~duration staggered);
  print_endline "  (see EXPERIMENTS.md, known divergences)"
