(* Experiment registry: every table and figure of the paper's
   evaluation, addressable by id from the bench executable and the CLI.
   DESIGN.md's per-experiment index mirrors this list.

   Each entry's [run] yields a buffered {!Report.t} (see report.ml), so
   experiment groups can execute concurrently on the domain pool while
   [run_all] still renders output in registry order — byte-identical to
   a sequential run. *)

type entry = { id : string; what : string; run : unit -> Report.t; group : string }

(* Every entry runs inside an [exp.<id>] span and every group fan-out
   adds a [group.<name>] span (see [run_all_reports]), so a profiled
   run attributes wall time per experiment with no per-site wiring. *)
let e id what runner group =
  let span = Obs.Span.probe ("exp." ^ id) in
  { id; what; run = (fun () -> Obs.Span.timed span (fun () -> Report.capture runner)); group }

let group_span e = Obs.Span.probe ("group." ^ e.group)

let all =
  [
    e "fig1" "adaptability under wired/cellular networks" Exp_fig1.run "fig1";
    e "fig2a" "throughput over the step-scenario" Exp_fig2.run_fig2a "fig2a";
    e "fig2b" "CDF of link utilization over cellular runs" Exp_fig2.run_fig2b "fig2b";
    e "fig2c" "normalised overhead comparison" Exp_fig2.run_fig2c "fig2c";
    e "fig5" "reward curves per state space" Exp_rl_design.run_fig5 "fig5";
    e "tab2" "state-space add/remove search" Exp_rl_design.run_tab2 "tab2";
    e "fig6" "AIAD vs MIMD action spaces" Exp_rl_design.run_fig6 "fig6";
    e "tab3" "reward with/without loss term" Exp_rl_design.run_tab3 "tab3";
    e "tab4" "reward r vs delta-r" Exp_rl_design.run_tab4 "tab4";
    e "fig7" "throughput/delay scatter over 8 traces" Exp_fig7.run "fig7";
    e "fig8" "following LTE capacity" Exp_fig8.run "fig8";
    e "fig9" "buffer-size sweep" Exp_sweeps.run_fig9 "fig9";
    e "fig10" "stochastic-loss sweep" Exp_sweeps.run_fig10 "fig10";
    e "fig11" "flexibility via utility preferences" Exp_flex.run "fig11";
    e "fig12" "CPU overhead vs link capacity" Exp_overhead.run "fig12";
    e "fig13" "inter-protocol fairness vs CUBIC" Exp_fairness.run_fig13 "fig13";
    e "fig14" "intra-protocol fairness" Exp_fairness.run_fig14 "fig14";
    e "fig15" "convergence of three staggered flows" Exp_convergence.run "fig15";
    e "tab5" "quantitative convergence (part of fig15)" Exp_convergence.run "fig15";
    e "tab6" "safety assurance over repeated trials" Exp_safety.run "tab6";
    e "fig16" "synthetic live-Internet scenarios" Exp_wan.run "fig16";
    e "fig17" "fraction of applied decisions" Exp_deepdive.run_fig17 "fig17";
    e "fig18" "Libra vs ideal combination" Exp_deepdive.run_fig18 "fig18";
    e "fig19" "stage-duration sensitivity" Exp_sensitivity.run_fig19 "fig19";
    e "tab7" "switching-threshold sensitivity" Exp_sensitivity.run_tab7 "tab7";
    e "ablate" "eval-order / exploitation ablations" Exp_ablation.run "ablate";
    e "extend" "Sec. 7 extensions: other CCAs, satellite/5G, CoDel" Exp_extension.run "extend";
    e "trace" "deterministic sim-time trace export (JSONL/CSV)" Exp_trace.run "trace";
    e "robust" "CCA suite x fault-injection robustness matrix" Exp_robustness.run "robust";
    e "adversarial" "adversarial worst-case search leaderboard (lib/search)" Exp_adversarial.run "adversarial";
    e "robust-mini" "2x2 corner of the robustness matrix (smoke)" Exp_robustness.run_mini "robust-mini";
    e "population" "open-loop flow population vs Libra long flows (arena engine)" Exp_population.run "population";
    e "population-mini" "light population churn on the arena engine (smoke)" Exp_population.run_mini "population-mini";
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let ids () = List.map (fun e -> e.id) all

(* One representative entry per group, in registry order (fig15 and
   tab5 share a runner; don't run it twice). *)
let groups () =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun e ->
      if Hashtbl.mem seen e.group then false
      else begin
        Hashtbl.replace seen e.group ();
        true
      end)
    all

(* ---- supervised execution ----

   Every entry runs under [Exec.Supervisor.protect]: an exception (or a
   deterministic deadline expiry) becomes a structured failure report
   rendered in registry order alongside the successes, and the returned
   summary drives the CLI's exit code. Because entries are independent,
   a crashing entry leaves its siblings' reports byte-identical to a
   run without it — enforced in test/test_exec.ml at pool sizes 1
   and 4. *)

type supervision = {
  retries : int;  (* extra attempts per entry after the first *)
  deadline_events : int option;  (* logical Netsim.Budget per attempt *)
  wall_s : float option;  (* nondeterministic CI backstop *)
  checkpoint : Exec.Checkpoint.store option;
  resume : bool;  (* skip cells already present in the store *)
}

let default_supervision =
  { retries = 0; deadline_events = None; wall_s = None; checkpoint = None; resume = false }

type outcome = {
  entry : entry;
  report : Report.t;
  failure : Exec.Supervisor.failure option;
  resumed : bool;
  corrupt : Exec.Supervisor.failure option;
    (* a checkpoint cell failed verification: quarantined, flight-dumped
       and re-executed — the served report is the re-execution's *)
  io_fault : string option;
    (* an injected checkpoint I/O fault (load or save) degraded the
       cell to re-execution / no-save; names the fault class *)
}

type summary = { total : int; ok : int; failed : int; resumed : int; corrupt : int }

(* The checkpoint identity of an entry: everything that changes the
   cell's output must be in here, so a resume can never serve a report
   produced under a different configuration. Scale and impair spec are
   the run-shaping knobs; the manifest contributes code provenance
   (git sha / dirty). *)
let cell_context () =
  let s = Scale.get () in
  let scale =
    Printf.sprintf "duration=%g,runs=%d,trials=%d,train=%d,eval=%d" s.Scale.duration
      s.Scale.runs s.Scale.safety_trials s.Scale.train_episodes s.Scale.eval_episodes
  in
  (scale, Faults.Spec.to_string !Scenario.default_impair)

let cell_key e =
  let scale, impair = cell_context () in
  let manifest = Obs.Manifest.default () in
  let mpart key =
    match Obs.Json.member key manifest with
    | Some (Obs.Json.Str s) -> s
    | Some j -> Obs.Json.to_compact j
    | None -> ""
  in
  Exec.Checkpoint.key
    ~parts:[ e.id; scale; impair; mpart "git_sha"; mpart "dirty" ]

let emit_checkpoint_event ~id ~detail =
  if Obs.Trace.on Obs.Category.Harness then
    Obs.Trace.emit
      (Obs.Event.Harness
         { t = 0.0; kind = "checkpoint"; id; detail; attempt = 0; value = 0.0 })

(* A failure rendered as a report, in place of the one the entry never
   produced. Lines come from Supervisor.render (deterministic modulo
   the exception text); the cell context ties the failure to its
   configuration, mirroring what the checkpoint key digests. *)
let failure_report e (f : Exec.Supervisor.failure) =
  let r = Report.create () in
  let scale, impair = cell_context () in
  Report.linef r "== FAILED %s: %s ==" e.id e.what;
  List.iter (fun l -> Report.line r ("  " ^ l)) (Exec.Supervisor.render f);
  Report.linef r "  cell:      scale{%s} impair{%s}" scale impair;
  Report.kv r "failed" (Exec.Supervisor.kind_name f.kind);
  Report.kv r "failure_digest" (Exec.Supervisor.digest f);
  r

(* Run [entries] (default: one per group) fanned out across [pool],
   each under Supervisor.protect, and return outcomes in input order.
   Rendering is decoupled from execution, so concatenated output is
   identical at any pool size.

   [wrap i run] lets the caller install ambient sinks around entry [i]
   (the CLI uses it to give each entry a deterministic trace lane). *)
let run_entries ?pool ?(wrap = fun _i run -> run ())
    ?(supervision = default_supervision) ?entries () =
  let pool = match pool with Some p -> p | None -> Exec.Pool.default () in
  let gs = Array.of_list (match entries with Some es -> es | None -> groups ()) in
  let sv = supervision in
  let run_one e =
    Obs.Span.timed (group_span e) (fun () ->
        let key = cell_key e in
        let corrupt = ref None in
        let io_fault = ref None in
        (* A cell that fails verification is never served: it is
           quarantined (the evidence survives), dumped to the flight
           recorder, rendered as a structured Corrupt failure for the
           stderr report — and the entry re-executes. *)
        let on_corrupt store ~path ~reason =
          let qpath = Exec.Checkpoint.quarantine store ~key in
          let flight = Obs.Flight.dump ~reason:(e.id ^ "-corrupt") () in
          let detail =
            match qpath with
            | Some q -> Printf.sprintf "%s (quarantined to %s)" reason q
            | None -> reason
          in
          corrupt :=
            Some
              {
                Exec.Supervisor.context = e.id;
                exn = detail;
                backtrace = "none";
                attempts = 1;
                backoffs = [];
                kind = Exec.Supervisor.Corrupt { path; fault = "verify" };
                flight;
              };
          emit_checkpoint_event ~id:e.id ~detail:"corrupt"
        in
        let cached =
          match sv.checkpoint with
          | Some store when sv.resume -> (
            match Exec.Checkpoint.load store ~key with
            | Exec.Checkpoint.Hit blob -> (
              (* The envelope checksum passed, but the payload must
                 still parse as a report — anything else is format
                 drift or garbage, rejected like byte corruption. *)
              match Obs.Json.parse blob with
              | Ok j -> (
                match Report.of_json j with
                | Some r -> Some r
                | None ->
                  Chaos.Plane.note_corrupt_detected ();
                  on_corrupt store
                    ~path:(Exec.Checkpoint.path store ~key)
                    ~reason:"sealed payload is not a report";
                  None)
              | Error msg ->
                Chaos.Plane.note_corrupt_detected ();
                on_corrupt store
                  ~path:(Exec.Checkpoint.path store ~key)
                  ~reason:("sealed payload is not valid JSON: " ^ msg);
                None)
            | Exec.Checkpoint.Miss -> None
            | Exec.Checkpoint.Corrupt { path; reason } ->
              on_corrupt store ~path ~reason;
              None
            | exception Chaos.Io.Fault { fault; path; _ } ->
              (* Injected read fault: resume degrades to re-execution. *)
              io_fault := Some (Printf.sprintf "load: %s at %s" fault path);
              None)
          | _ -> None
        in
        match cached with
        | Some report ->
          emit_checkpoint_event ~id:e.id ~detail:"resume";
          { entry = e; report; failure = None; resumed = true; corrupt = None;
            io_fault = None }
        | None -> (
          match
            Exec.Supervisor.protect ~retries:sv.retries
              ?deadline_events:sv.deadline_events ?wall_s:sv.wall_s ~context:e.id
              (fun ~attempt:_ ->
                let r = e.run () in
                (* Dirty ambient invariant checker (installed by the
                   CLI's wrap) -> Violation_error, caught by protect as
                   a structured Invariant failure. No-op unchecked. *)
                Check.Runtime.assert_clean ();
                r)
          with
          | Ok report ->
            (match sv.checkpoint with
            | Some store -> (
              match
                Exec.Checkpoint.save store ~key
                  (Obs.Json.to_compact (Report.to_json report))
              with
              | () -> emit_checkpoint_event ~id:e.id ~detail:"save"
              | exception Chaos.Io.Fault { fault; path; _ } ->
                (* A failed save must not fail the run — the report is
                   already in hand; the cell just won't resume. *)
                io_fault := Some (Printf.sprintf "save: %s at %s" fault path);
                emit_checkpoint_event ~id:e.id ~detail:("save-fault:" ^ fault))
            | None -> ());
            { entry = e; report; failure = None; resumed = false;
              corrupt = !corrupt; io_fault = !io_fault }
          | Error f ->
            { entry = e; report = failure_report e f; failure = Some f;
              resumed = false; corrupt = !corrupt; io_fault = !io_fault }))
  in
  let outcomes =
    Exec.Pool.map pool
      (fun (i, e) -> wrap i (fun () -> run_one e))
      (Array.mapi (fun i e -> (i, e)) gs)
  in
  Array.to_list outcomes

let summarize outcomes =
  List.fold_left
    (fun s o ->
      {
        total = s.total + 1;
        ok = (s.ok + if o.failure = None then 1 else 0);
        failed = (s.failed + if o.failure <> None then 1 else 0);
        resumed = (s.resumed + if o.resumed then 1 else 0);
        corrupt = (s.corrupt + if o.corrupt <> None then 1 else 0);
      })
    { total = 0; ok = 0; failed = 0; resumed = 0; corrupt = 0 }
    outcomes

(* Compatibility shape used by tests: (group, report) pairs for the
   default group list, unsupervised. *)
let run_all_reports ?pool ?wrap () =
  List.map
    (fun o -> (o.entry.group, o.report))
    (run_entries ?pool ?wrap ())

(* Render everything in input order (stdout stays byte-identical to an
   unsupervised clean run) and summarize on stderr — the summary line
   must not disturb report bytes, which checkpoint resumes and the
   crash-isolation tests compare exactly. *)
let print_outcomes outcomes =
  List.iter (fun o -> Report.print o.report) outcomes;
  let s = summarize outcomes in
  Printf.eprintf "[registry] %d group(s): %d ok, %d failed, %d resumed%s\n%!" s.total
    s.ok s.failed s.resumed
    (if s.corrupt > 0 then Printf.sprintf ", %d corrupt" s.corrupt else "");
  List.iter
    (fun o ->
      match o.failure with
      | Some f ->
        Printf.eprintf "[registry] FAILED %s: %s (digest %s)\n%!" o.entry.id f.exn
          (Exec.Supervisor.digest f)
      | None -> ())
    outcomes;
  (* Host-fault evidence, in registry order: corrupt cells that were
     quarantined and re-executed, and injected checkpoint I/O faults
     that degraded a cell to re-execution / no-save. *)
  List.iter
    (fun (o : outcome) ->
      (match o.corrupt with
      | Some f ->
        Printf.eprintf "[registry] CORRUPT %s:\n%!" o.entry.id;
        List.iter
          (fun l -> Printf.eprintf "[registry]   %s\n%!" l)
          (Exec.Supervisor.render f)
      | None -> ());
      match o.io_fault with
      | Some d -> Printf.eprintf "[registry] CHECKPOINT FAULT %s: %s\n%!" o.entry.id d
      | None -> ())
    outcomes;
  s

let run_all ?pool ?wrap ?supervision ?entries () =
  print_outcomes (run_entries ?pool ?wrap ?supervision ?entries ())
