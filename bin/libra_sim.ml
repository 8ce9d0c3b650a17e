(* libra_sim: run any CCA over any scenario and print the measured
   throughput / delay / loss, plus per-second series if asked.

     libra_sim --cca c-libra --trace lte:driving --rtt 30 --duration 20
     libra_sim --cca cubic --trace wired:48 --flows 2
     libra_sim --list

   Trace syntax: wired:<mbps> | lte:<stationary|walking|driving|moving>
   | step:<mbps,mbps,...> | wan:<inter|intra>. *)

open Cmdliner

let run_cmd (sc : Run_opts.scenario) impair chaos deadline_events invariants series
    obs list_all =
  if list_all then begin
    print_endline "CCAs:";
    List.iter (fun (name, _) -> Printf.printf "  %s\n" name) Harness.Ccas.all;
    print_endline "traces: wired:<mbps> lte:<scenario> step:<m1,m2,..> wan:<inter|intra>";
    Printf.printf
      "impairments: %s, joined with +  (e.g. gilbert:p_gb=0.01,p_bg=0.3+jitter)\n"
      (String.concat " " Faults.Spec.names);
    0
  end
  else begin
    let { Run_opts.cca; trace; duration; flows; seed; _ } = sc in
    let factory = Harness.Ccas.find cca in
    Run_opts.install_chaos chaos;
    let spec = Run_opts.scenario_spec sc ~impair ~seed in
    (* The sampled flow set follows this run's --seed. *)
    let obs =
      {
        obs with
        Run_opts.sample =
          Option.map
            (fun s -> Obs.Sample.create ~seed (Obs.Sample.denominator s))
            obs.Run_opts.sample;
      }
    in
    let manifest =
      Obs.Manifest.make ~seeds:[ seed ] ~scale:"cli" ~domains:1
        ~impair:(Faults.Spec.to_string impair) ~extra:(Run_opts.manifest_extra obs) ()
    in
    (* "default" loads the pack bounded by this run's buffer; the checker
       measures rtt-relative windows against the scenario RTT. *)
    let session =
      Run_opts.session ~manifest ~rtt:spec.Harness.Scenario.rtt
        ~invariants:
          (Run_opts.invariant_pack
             ~default:(Check.Spec.default_pack ~buffer_bytes:spec.Harness.Scenario.buffer_bytes ())
             invariants)
        obs
    in
    (* --deadline-events bounds the run by a deterministic number of
       simulator events — the same logical budget the supervised
       experiment harness uses. Expiry is a clean failure (exit 4),
       never a partial result. *)
    let outcome =
      try
        Netsim.Budget.with_budget ?events:deadline_events (fun () ->
            Run_opts.run session ~lane:0 (fun () ->
                Harness.Scenario.run_uniform ~seed ~n_flows:flows ~factory ~duration
                  spec))
      with Netsim.Budget.Exceeded { spent; budget } ->
        Printf.eprintf "deadline: logical event budget exhausted (%d/%d)\n" spent
          budget;
        exit 4
    in
    Run_opts.export session;
    (* Invariant verdicts: the per-violation report on stderr, exit 5
       when any predicate failed online. *)
    List.iter
      (fun (_, c) ->
        prerr_string (Check.Checker.report c);
        if Check.Checker.total c > 0 then exit 5)
      (Run_opts.checkers session);
    Printf.printf "cca=%s trace=%s flows=%d duration=%.0fs\n" cca
      (Harness.Scenario.trace_to_string trace) flows duration;
    Printf.printf "utilization   %.3f\n" outcome.Harness.Scenario.utilization;
    Printf.printf "throughput    %.2f Mbit/s\n"
      (Netsim.Units.bps_to_mbps outcome.Harness.Scenario.throughput);
    Printf.printf "avg delay     %.1f ms\n"
      (1000.0 *. outcome.Harness.Scenario.mean_delay);
    Printf.printf "loss rate     %.2f%%\n" (100.0 *. outcome.Harness.Scenario.loss_rate);
    if series then begin
      print_endline "\nper-second throughput (Mbit/s) per flow:";
      List.iter
        (fun f ->
          let s = Netsim.Flow_stats.throughput_series f.Netsim.Network.stats in
          Printf.printf "flow %d:" f.Netsim.Network.flow_id;
          let seconds = int_of_float duration in
          for sec = 0 to seconds - 1 do
            let vals =
              Array.to_list s
              |> List.filter (fun (time, _) ->
                     time >= float_of_int sec && time < float_of_int (sec + 1))
              |> List.map snd
            in
            let avg =
              match vals with
              | [] -> 0.0
              | _ -> List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals)
            in
            Printf.printf " %.1f" (Netsim.Units.bps_to_mbps avg)
          done;
          print_newline ())
        outcome.Harness.Scenario.summary.Netsim.Network.flows
    end;
    Run_opts.exit_code 0
  end

let deadline_events =
  Run_opts.deadline_events
    ~doc:
      "fail the run (exit 4) after $(docv) logical simulator events — a \
       deterministic deadline, reproducible across hosts"

let series = Arg.(value & flag & info [ "series" ] ~doc:"print per-second series")
let list_all = Arg.(value & flag & info [ "list" ] ~doc:"list CCAs and traces")

let () =
  Run_opts.eval ~name:"libra_sim" ~doc:"packet-level congestion-control simulator"
    Term.(
      const run_cmd
      $ Run_opts.scenario ~trace:(Harness.Scenario.Wired 48.0) ~duration:20.0
      $ Run_opts.impair $ Run_opts.chaos $ deadline_events $ Run_opts.invariants
      $ series $ Run_opts.obs ~trace:"trace-out" $ list_all)
