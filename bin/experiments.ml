(* experiments: run any paper experiment by id.

     experiments fig1 fig7
     experiments --all
     experiments --full tab6      # paper-scale durations and trials *)

open Cmdliner

let run_cmd full tiny stress domains impair chaos (ckpt : Run_opts.checkpoint)
    inject_crash retries deadline_events wall_deadline invariants obs profile_out ids
    all =
  if (if full then 1 else 0) + (if tiny then 1 else 0) + (if stress then 1 else 0) > 1
  then begin
    prerr_endline "--full, --tiny and --stress are mutually exclusive";
    exit 2
  end;
  Option.iter Exec.Pool.set_default_size domains;
  Harness.Scenario.set_default_impair impair;
  (* --chaos installs the host-fault schedule over every persistence
     operation (checkpoint cells, trace/rollup/metrics exports, flight
     dumps) and the domain pool's tasks. *)
  Run_opts.install_chaos chaos;
  let scale_name =
    if full then "full"
    else if tiny then "tiny"
    else if stress then "stress"
    else "quick"
  in
  Harness.Scale.set
    (if full then Harness.Scale.full
     else if tiny then Harness.Scale.tiny
     else if stress then Harness.Scale.stress
     else Harness.Scale.quick);
  let manifest =
    Obs.Manifest.make ~scale:scale_name
      ~domains:(Exec.Pool.size (Exec.Pool.default ()))
      ~impair:(Faults.Spec.to_string impair) ~extra:(Run_opts.manifest_extra obs) ()
  in
  (* "default" is the scenario-independent pack, without a global queue
     bound. *)
  let invariant_specs =
    Run_opts.invariant_pack ~default:(Check.Spec.default_pack ()) invariants
  in
  let session =
    Run_opts.session ?profile:profile_out ~invariants:invariant_specs ~manifest obs
  in
  (* Lanes are entry indices, deterministic at any pool size. *)
  let wrap lane run = Run_opts.run session ~lane run in
  let run_all_groups = all || ids = [] in
  let missing =
    if run_all_groups then []
    else List.filter (fun id -> Harness.Registry.find id = None) ids
  in
  let status =
    if missing <> [] then begin
      Printf.eprintf "unknown experiment(s): %s\nknown: %s\n"
        (String.concat ", " missing)
        (String.concat ", " (Harness.Registry.ids ()));
      1
    end
    else begin
      let entries =
        if run_all_groups then Harness.Registry.groups ()
        else List.filter_map Harness.Registry.find ids
      in
      (* --inject-crash appends a fixture entry that always raises, so
         the crash-isolation path (failure report in order, non-zero
         exit, siblings untouched) can be exercised end-to-end by CI
         without corrupting a real experiment. *)
      let entries =
        if inject_crash then
          entries
          @ [
              Harness.Registry.e "fixture-crash"
                "always-raising fixture (--inject-crash)"
                (fun () -> failwith "injected crash")
                "fixture-crash";
            ]
        else entries
      in
      let supervision =
        {
          Harness.Registry.retries;
          deadline_events;
          wall_s = wall_deadline;
          checkpoint =
            Option.map
              (fun dir ->
                let store = Exec.Checkpoint.create ~dir in
                (* The startup sweep removes temp files orphaned by an
                   interrupted save (crash or injected torn write). *)
                if Exec.Checkpoint.swept store > 0 then
                  Printf.eprintf "[checkpoint] swept %d orphaned tmp file(s)\n%!"
                    (Exec.Checkpoint.swept store);
                store)
              ckpt.dir;
          resume = ckpt.resume;
        }
      in
      let summary = Harness.Registry.run_all ~wrap ~supervision ~entries () in
      if summary.Harness.Registry.failed > 0 then 3 else 0
    end
  in
  let lane_name =
    let entries =
      if run_all_groups then Harness.Registry.groups ()
      else List.filter_map Harness.Registry.find ids
    in
    let arr = Array.of_list entries in
    fun lane ->
      if lane < Array.length arr then
        (if run_all_groups then arr.(lane).Harness.Registry.group
         else arr.(lane).Harness.Registry.id)
      else if inject_crash && lane = Array.length arr then "fixture-crash"
      else string_of_int lane
  in
  Run_opts.export session ~lane_name;
  (* Invariant summary: lane-ordered (= entry-ordered), so the output
     is byte-identical at any pool size. Violations already failed
     their entries through the supervisor; this is the detail. *)
  (match Run_opts.checkers session with
  | [] -> ()
  | checkers ->
    let events, viols =
      List.fold_left
        (fun (e, v) (_, c) -> (e + Check.Checker.events_seen c, v + Check.Checker.total c))
        (0, 0) checkers
    in
    Printf.eprintf "[invariants] %d spec(s) over %d lane(s): %d violation(s) in %d event(s)\n%!"
      (List.length invariant_specs) (List.length checkers) viols events;
    List.iter
      (fun (lane, c) ->
        if Check.Checker.total c > 0 then begin
          Printf.eprintf "[invariants] lane %s:\n" (lane_name lane);
          prerr_string (Check.Checker.report c)
        end)
      checkers);
  (* Host-fault accounting: what the chaos plane injected and what the
     harness detected. *)
  if Chaos.Plane.active () || Chaos.Plane.surfaced () > 0
     || Chaos.Plane.corrupt_detected () > 0
  then begin
    let st = Chaos.Plane.stats () in
    Printf.eprintf
      "[chaos] injected: torn=%d flip=%d enospc=%d eio=%d kill=%d; healed: \
       resurrected=%d respawned=%d; surfaced=%d corrupt-detected=%d\n%!"
      st.Chaos.Plane.torn st.Chaos.Plane.flips st.Chaos.Plane.enospc
      st.Chaos.Plane.eio st.Chaos.Plane.kills st.Chaos.Plane.resurrections
      st.Chaos.Plane.respawns (Chaos.Plane.surfaced ()) (Chaos.Plane.corrupt_detected ())
  end;
  Run_opts.exit_code status

let full = Arg.(value & flag & info [ "full" ] ~doc:"paper-scale durations")

let tiny =
  Arg.(
    value & flag
    & info [ "tiny" ]
        ~doc:"smoke-test durations (meaningless numbers, full code paths)")

let stress =
  Arg.(
    value & flag
    & info [ "stress" ]
        ~doc:
          "many-flow stress durations (long single runs for the population / \
           scale-out experiments)")

let checkpoint =
  Run_opts.checkpoint
    ~store:
      "save each finished experiment's report to a content-addressed store \
       under $(docv), keyed by (experiment, scale, impair, git sha); combine \
       with --resume to skip completed cells"
    ~serve:
      "serve experiments already present in the --checkpoint store from \
       their saved reports (byte-identical) instead of re-running them"

let inject_crash =
  Arg.(
    value & flag
    & info [ "inject-crash" ]
        ~doc:
          "append an always-raising fixture experiment (crash-isolation \
           smoke test; the run exits 3 with every real experiment intact)")

let retries =
  Arg.(
    value & opt Run_opts.non_negative_int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "extra attempts per experiment after a failure, with a \
           deterministic recorded backoff schedule")

let deadline_events =
  Run_opts.deadline_events
    ~doc:
      "deterministic per-attempt budget: at most $(docv) logical events \
       (simulator pops / training steps) before the experiment is failed \
       as 'deadline'. It counts only the events an experiment runs outside \
       its pool fan-out: pool tasks run unbudgeted, so the many experiments \
       that fan their simulations out (over seeds, through the scenario \
       averaging) never reach it"

let wall_deadline =
  Arg.(
    value
    & opt (some Run_opts.positive_float) None
    & info [ "wall-deadline" ] ~docv:"SECONDS"
        ~doc:
          "nondeterministic wall-clock backstop per attempt (recorded in \
           the failure report but excluded from its digest)")

let profile_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "record a host-time span profile per experiment and write it as JSON \
           to $(docv) (render with perf_report --profile)")

let all = Arg.(value & flag & info [ "all" ] ~doc:"run every experiment")
let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID")

let () =
  Run_opts.eval ~name:"experiments" ~doc:"reproduce the paper's tables and figures"
    Term.(
      const run_cmd $ full $ tiny $ stress $ Run_opts.domains $ Run_opts.impair
      $ Run_opts.chaos $ checkpoint $ inject_crash $ retries
      $ deadline_events $ wall_deadline $ Run_opts.invariants
      $ Run_opts.obs ~trace:"trace" $ profile_out $ ids $ all)
