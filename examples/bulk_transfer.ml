(* Bulk transfer: a throughput-oriented application (cloud-storage
   replication, software downloads) on a wide-area path.

   Run with:  dune exec examples/bulk_transfer.exe

   The application asks Libra for the Th-2 preference (3x the default
   throughput weight in Eq. 1). We race it against default Libra and
   CUBIC over the synthetic inter-continental WAN path (180 ms RTT,
   0.8% stochastic loss) and report how much data each moves. *)

let () =
  let duration = 30.0 in
  let path = Traces.Wan.inter_continental ~duration () in
  let spec = Harness.Scenario.wan_spec path in
  Printf.printf "inter-continental path: %.0f ms RTT, %.1f%% stochastic loss\n\n"
    (1000.0 *. path.Traces.Wan.rtt)
    (100.0 *. path.Traces.Wan.loss_p);
  let contenders =
    [
      ("C-Libra Th-2 (bulk preference)", Harness.Ccas.c_libra_pref "Th-2");
      ("C-Libra default", Harness.Ccas.c_libra);
      ("CUBIC", Harness.Ccas.cubic);
      ("BBR", Harness.Ccas.bbr);
    ]
  in
  List.iter
    (fun (name, factory) ->
      let o = Harness.Scenario.run_uniform ~factory ~duration spec in
      let moved =
        List.fold_left
          (fun a f -> a + Netsim.Flow_stats.total_delivered_bytes f.Netsim.Network.stats)
          0 o.Harness.Scenario.summary.Netsim.Network.flows
      in
      Printf.printf "%-32s moved %6.1f MB in %.0fs (%.2f Mbit/s, delay %.0f ms)\n"
        name
        (float_of_int moved /. 1e6)
        duration
        (Netsim.Units.bps_to_mbps o.Harness.Scenario.throughput)
        (1000.0 *. o.Harness.Scenario.mean_delay))
    contenders;
  print_endline
    "\nThe Th-2 preference tells Libra's evaluation stage to score candidate\n\
     rates with a heavier throughput term, so it rides through the path's\n\
     stochastic loss instead of backing off like CUBIC."
