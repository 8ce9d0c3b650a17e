(* libra_sim: run any CCA over any scenario and print the measured
   throughput / delay / loss, plus per-second series if asked.

     libra_sim --cca c-libra --trace lte:driving --rtt 30 --duration 20
     libra_sim --cca cubic --trace wired:48 --flows 2
     libra_sim --list

   Trace syntax: wired:<mbps> | lte:<stationary|walking|driving|moving>
   | step:<mbps,mbps,...> | wan:<inter|intra>. *)

open Cmdliner

(* Collect --invariant SPECs (the word "default" expands to the default
   pack, bounded by this run's buffer) and --invariant-file lines into
   one compiled spec list, in argument order. *)
let collect_invariants ~buffer_bytes ~invariants ~invariant_file =
  let from_file =
    match invariant_file with
    | None -> []
    | Some path ->
      let ic =
        try open_in path
        with Sys_error e ->
          Printf.eprintf "--invariant-file: %s\n" e;
          exit 2
      in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      List.rev !lines
  in
  try
    List.concat_map
      (fun spec ->
        if String.trim spec = "default" then Check.Spec.default_pack ~buffer_bytes ()
        else [ Check.Spec.parse spec ])
      invariants
    @ Check.Spec.parse_lines from_file
  with Check.Spec.Parse_error m ->
    Printf.eprintf "--invariant: %s\n" m;
    exit 2

(* Observability plumbing: when --trace-out / --metrics / --invariant
   is given, run the simulation with a tracer (and a metrics registry)
   installed as this domain's ambient sink, then export. Lane 0: single
   run. The manifest (seed + impair provenance) heads the JSONL export.

   An invariant checker rides the tracer as its online observer; when
   only --invariant asks for a session the tracer is a small ring (the
   checker consumes events as they are emitted, so nothing needs to be
   retained), and its categories are widened from --trace-filter to
   whatever the specs need. *)
let with_observability ~trace_out ~trace_filter ~sample ~metrics_out ~rollup_out
    ~rollup_window ~flight_capacity ~manifest ~checker f =
  let categories =
    match trace_filter with
    | None -> Obs.Category.all
    | Some spec -> Obs.Category.parse_filter spec
  in
  let categories =
    match checker with
    | None -> categories
    | Some c -> (
      match Check.Spec.categories_of_pack (Check.Checker.specs c) with
      | None -> Obs.Category.all
      | Some needed -> List.sort_uniq compare (categories @ needed))
  in
  (* The flight recorder wraps everything (including sessionless runs):
     always-on crash evidence, dumped by the supervisor / checker. *)
  let with_flight g =
    if flight_capacity <= 0 then g ()
    else
      let fl = Obs.Flight.create ~capacity:flight_capacity () in
      Obs.Flight.run fl ~lane:0 g
  in
  match (trace_out, metrics_out, checker, rollup_out) with
  | None, None, None, None -> with_flight f
  | _ ->
    let ring_capacity =
      (* checker/rollup-only session: no export retains events *)
      match (trace_out, metrics_out) with None, None -> Some 4096 | _ -> None
    in
    let tracer = Obs.Trace.create ?ring_capacity ?sample ~categories ~manifest () in
    let reg = Obs.Metrics.create_registry () in
    let rollup =
      Option.map (fun _ -> Obs.Rollup.create ~window:rollup_window ()) rollup_out
    in
    let observer =
      match (rollup, checker) with
      | None, None -> None
      | Some r, None -> Some (Obs.Rollup.observe r)
      | None, Some c -> Some (Check.Checker.on_event c)
      | Some r, Some c ->
        Some
          (fun ev ->
            Obs.Rollup.observe r ev;
            Check.Checker.on_event c ev)
    in
    let result =
      with_flight (fun () ->
          Obs.Trace.run tracer ~lane:0 ?observer (fun () -> Obs.Metrics.run reg f))
    in
    Option.iter (Obs.Trace.write tracer) trace_out;
    Option.iter (Obs.Metrics.write_csv reg) metrics_out;
    (match (rollup, rollup_out) with
    | Some r, Some file ->
      Obs.Rollup.write ~manifest ~lanes:[ (0, r) ] file;
      Printf.printf "rollup: %d window(s) -> %s\n" (Obs.Rollup.windows r) file
    | _ -> ());
    Option.iter
      (fun file ->
        Printf.printf "trace: %d events -> %s\n" (Obs.Trace.length tracer) file)
      trace_out;
    result

let run_cmd cca trace_spec rtt_ms buffer_kb loss duration flows seed impair
    chaos chaos_seed deadline_events invariants invariant_file series
    trace_out trace_filter trace_sample metrics_out rollup_out rollup_window
    flight_capacity flight_dir list_all =
  if list_all then begin
    print_endline "CCAs:";
    List.iter (fun (name, _) -> Printf.printf "  %s\n" name) Harness.Ccas.all;
    print_endline "traces: wired:<mbps> lte:<scenario> step:<m1,m2,..> wan:<inter|intra>";
    print_endline
      "impairments: gilbert bernoulli reorder dup corrupt jitter outage clamp \
       flap, joined with +  (e.g. gilbert:p_gb=0.01,p_bg=0.3+jitter)";
    0
  end
  else begin
    let factory = Harness.Ccas.find cca in
    let impair =
      match Faults.Spec.of_string impair with
      | Ok s -> s
      | Error m ->
        prerr_endline m;
        exit 2
    in
    (match Chaos.Spec.of_string chaos with
    | Ok s -> Chaos.Plane.install ~seed:chaos_seed s
    | Error m ->
      prerr_endline m;
      exit 2);
    let spec =
      Harness.Scenario.spec_of_cli ~rtt:(rtt_ms /. 1000.0) ~buffer_kb ~loss_p:loss
        ~impair ~duration ~seed trace_spec
    in
    let checker =
      match
        collect_invariants ~buffer_bytes:spec.Harness.Scenario.buffer_bytes
          ~invariants ~invariant_file
      with
      | [] -> None
      | specs ->
        Some (Check.Checker.create ~rtt:spec.Harness.Scenario.rtt specs)
    in
    let sample =
      match trace_sample with
      | None -> None
      | Some spec -> (
        match Obs.Sample.parse ~seed spec with
        | Ok s -> Some s
        | Error m ->
          Printf.eprintf "--trace-sample: %s\n" m;
          exit 2)
    in
    if rollup_window <= 0.0 then begin
      Printf.eprintf "--rollup-window: must be positive\n";
      exit 2
    end;
    Option.iter Obs.Flight.set_dump_dir flight_dir;
    let manifest =
      Obs.Manifest.make ~seeds:[ seed ] ~scale:"cli" ~domains:1
        ~impair:(Faults.Spec.to_string impair)
        ~extra:
          (match sample with
          | None -> []
          | Some s -> [ ("trace_sample", Obs.Json.Str (Obs.Sample.to_string s)) ])
        ()
    in
    (* --deadline-events bounds the run by a deterministic number of
       simulator events — the same logical budget the supervised
       experiment harness uses. Expiry is a clean failure (exit 4),
       never a partial result. *)
    let outcome =
      try
        Netsim.Budget.with_budget ?events:deadline_events (fun () ->
            with_observability ~trace_out ~trace_filter ~sample ~metrics_out
              ~rollup_out ~rollup_window ~flight_capacity ~manifest
              ~checker (fun () ->
                Harness.Scenario.run_uniform ~seed ~n_flows:flows ~factory
                  ~duration spec))
      with
      | Netsim.Budget.Exceeded { spent; budget } ->
        Printf.eprintf "deadline: logical event budget exhausted (%d/%d)\n"
          spent budget;
        exit 4
      | Chaos.Io.Fault { fault; path; detail } ->
        (* An injected export fault is a structured host-fault exit (6),
           never an unstructured crash. *)
        Printf.eprintf "[chaos] export fault: %s at %s (%s)\n" fault path detail;
        exit 6
    in
    (* Invariant verdicts: the per-violation report on stderr, exit 5
       when any predicate failed online. *)
    (match checker with
    | Some c ->
      prerr_string (Check.Checker.report c);
      if Check.Checker.total c > 0 then exit 5
    | None -> ());
    Printf.printf "cca=%s trace=%s flows=%d duration=%.0fs\n" cca trace_spec flows
      duration;
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
    if Chaos.Plane.surfaced () > 0 || Chaos.Plane.corrupt_detected () > 0 then 6
    else 0
  end

let cca = Arg.(value & opt string "c-libra" & info [ "cca" ] ~doc:"CCA to run")
let trace = Arg.(value & opt string "wired:48" & info [ "trace" ] ~doc:"trace spec")
let rtt = Arg.(value & opt float 30.0 & info [ "rtt" ] ~doc:"min RTT in ms")
let buffer = Arg.(value & opt int 150 & info [ "buffer" ] ~doc:"buffer in KB")
let loss = Arg.(value & opt float 0.0 & info [ "loss" ] ~doc:"stochastic loss prob")
let duration = Arg.(value & opt float 20.0 & info [ "duration" ] ~doc:"seconds")
let flows = Arg.(value & opt int 1 & info [ "flows" ] ~doc:"number of flows")
let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"random seed")

let impair =
  Arg.(
    value
    & opt string "clean"
    & info [ "impair" ] ~docv:"SPEC"
        ~doc:
          "fault-injection schedule for the bottleneck: '+'-joined items, \
           each name[:k=v,..] -- gilbert, bernoulli, reorder, dup, corrupt, \
           jitter (packet channels; accept from=/until= windows) and outage, \
           clamp, flap (link-rate shapers); 'clean' disables")

let chaos =
  Arg.(
    value
    & opt string "none"
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          "host-fault schedule for persistence (trace/metrics/rollup exports, \
           flight dumps): '+'-joined name[:k=v,..] items — torn, flip, \
           enospc, eio, kill-domain (accept from=/until= windows). Faults \
           surface as structured errors and exit code 6. 'none' disables.")

let chaos_seed =
  Arg.(
    value & opt int 0
    & info [ "chaos-seed" ] ~docv:"N" ~doc:"seed for the chaos schedule")

let deadline_events =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-events" ] ~docv:"N"
        ~doc:
          "fail the run (exit 4) after $(docv) logical simulator events — a \
           deterministic deadline, reproducible across hosts")

let invariants =
  Arg.(
    value
    & opt_all string []
    & info [ "invariant" ] ~docv:"SPEC"
        ~doc:
          "check an invariant online while the simulation runs (repeatable). \
           $(docv) is \"NAME: always COND\", \"NAME: never COND\", \"NAME: \
           after COND eventually COND within N events|N s|N rtt\" or \"NAME: \
           after COND until COND expect COND\"; COND is '&'-joined clauses \
           like ev=enqueue, backlog<=150000, kind=link_up. The word \
           $(b,default) loads the default invariant pack. Violations print a \
           report and exit 5.")

let invariant_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "invariant-file" ] ~docv:"FILE"
        ~doc:
          "read invariant specs from $(docv), one per line ('#' comments); \
           combined with any --invariant flags")

let series = Arg.(value & flag & info [ "series" ] ~doc:"print per-second series")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "export the simulation-time event trace to $(docv) (.csv gets \
           CSV, anything else JSONL). Note: --trace is the network trace \
           spec; this flag is the observability export.")

let trace_filter =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-filter" ] ~docv:"CAT,.."
        ~doc:
          "comma-separated event categories to record \
           (pkt,link,ack,rate,monitor,stage,cycle,rl,fault,invariant); \
           default all. --invariant widens the filter to whatever its specs \
           need.")

let trace_sample =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-sample" ] ~docv:"1/N"
        ~doc:
          "deterministic head-based flow sampling for the trace export: keep \
           every event of ~one flow in $(i,N), drop the rest. The kept set is \
           a pure function of (--seed, flow id) — byte-identical at any \
           --domains. Structural events (link, stage, cycle, run, harness, \
           invariant) are never dropped.")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE" ~doc:"export the metrics registry as CSV")

let rollup_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "rollup-out" ] ~docv:"FILE"
        ~doc:
          "export fixed-window rollups of the event stream (per-window queue \
           min/mean/max, drops, delivered bytes, rate and utility aggregates) \
           to $(docv) (.csv gets CSV, anything else JSONL) — a dense \
           time-series orders of magnitude smaller than the full trace")

let rollup_window =
  Arg.(
    value
    & opt float 0.1
    & info [ "rollup-window" ] ~docv:"SECONDS"
        ~doc:"rollup window length in simulation seconds (default 0.1)")

let flight_capacity =
  Arg.(
    value
    & opt int 2048
    & info [ "flight" ] ~docv:"N"
        ~doc:
          "keep a flight recorder of the last $(docv) events (default 2048); \
           dumped on supervised failures and first invariant violation. 0 \
           disables.")

let flight_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dir" ] ~docv:"DIR"
        ~doc:"directory for flight-recorder dumps (default: the temp dir)")

let list_all = Arg.(value & flag & info [ "list" ] ~doc:"list CCAs and traces")

let cmd =
  Cmd.v
    (Cmd.info "libra_sim" ~doc:"packet-level congestion-control simulator")
    Term.(
      const run_cmd $ cca $ trace $ rtt $ buffer $ loss $ duration $ flows $ seed
      $ impair $ chaos $ chaos_seed $ deadline_events $ invariants
      $ invariant_file $ series $ trace_out $ trace_filter $ trace_sample
      $ metrics_out $ rollup_out $ rollup_window $ flight_capacity $ flight_dir
      $ list_all)

let () = exit (Cmd.eval' cmd)
