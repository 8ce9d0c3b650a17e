(* Fig. 15 / Tab. 5 -- convergence: three same-CCA flows start 5 s
   apart on a 48 Mbit/s link (100 ms RTT, 1 BDP buffer). Tab. 5 reports
   the third flow's convergence time (stable within +/-25% for 5 s),
   its throughput deviation after convergence, and its average
   throughput. *)

let candidates =
  [
    ("bbr", Ccas.bbr);
    ("cubic", Ccas.cubic);
    ("mod-rl", Ccas.mod_rl);
    ("indigo", Ccas.indigo);
    ("proteus", Ccas.proteus);
    ("orca", Ccas.orca);
    ("c-libra", Ccas.c_libra);
    ("b-libra", Ccas.b_libra);
  ]

let run () =
  let scale = Scale.get () in
  let duration = Float.max 40.0 scale.Scale.duration in
  let entry3 = 10.0 in
  Table.heading "Fig. 15 / Tab. 5: convergence of three staggered flows";
  let results =
    List.map
      (fun (name, factory) ->
        let summary =
          Scenario.run_mixed
            ~flows:[ (factory, 0.0); (factory, 5.0); (factory, entry3) ]
            ~duration (Exp_fairness.spec ())
        in
        (name, summary))
      candidates
  in
  (* Fig. 15: per-flow throughput at 2-second grain. *)
  List.iter
    (fun (name, summary) ->
      Table.subheading (Printf.sprintf "Fig. 15 [%s]: per-flow throughput (Mbit/s)" name);
      let series =
        List.map
          (fun f ->
            Metrics.Convergence.coarsen ~step:2.0
              (Netsim.Flow_stats.throughput_series f.Netsim.Network.stats))
          summary.Netsim.Network.flows
      in
      Table.print
        ~header:[ "t(s)"; "flow1"; "flow2"; "flow3" ]
        (List.map
           (fun (t, _) ->
             Printf.sprintf "%.0f" t
             :: List.map
                  (fun s ->
                    match Array.find_opt (fun (t', _) -> t' = t) s with
                    | Some (_, v) -> Table.mbps v
                    | None -> "-")
                  series)
           (Array.to_list (List.hd series))))
    results;
  (* Tab. 5 for the third flow. *)
  Table.heading "Tab. 5: quantitative convergence of the third flow";
  Table.print
    ~header:[ "cca"; "conv.time"; "thr.deviation"; "avg.throughput"; "jain(final)" ]
    (List.map
       (fun (name, summary) ->
         let third = List.nth summary.Netsim.Network.flows 2 in
         let series = Netsim.Flow_stats.throughput_series third.Netsim.Network.stats in
         let coarse = Metrics.Convergence.coarsen ~step:0.5 series in
         let conv = Metrics.Convergence.analyse ~entry:entry3 coarse in
         let jain = Scenario.jain ~duration summary in
         [
           name;
           (match conv.Metrics.Convergence.conv_time with
           | Some v -> Printf.sprintf "%.1fs" v
           | None -> "-");
           (match conv.Metrics.Convergence.conv_time with
           | Some _ -> Table.mbps conv.Metrics.Convergence.stability ^ "Mbps"
           | None -> "-");
           (match conv.Metrics.Convergence.conv_time with
           | Some _ -> Table.mbps conv.Metrics.Convergence.avg_throughput ^ "Mbps"
           | None -> "-");
           Table.f3 jain;
         ])
       results)
