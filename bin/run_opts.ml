(* Run options shared by the simulator CLIs (libra_sim, experiments,
   train, libra_search, diverge).

   - cmdliner terms for the shared flags; spec-valued and numeric flags
     parse through converters that check their range, so bad input is a
     usage error (exit 2) naming the flag;
   - the scenario flags of libra_sim and diverge, the
     --checkpoint/--resume pair of experiments and train, and the
     --deadline-events of libra_sim and experiments;
   - the lane-keyed observability session behind the export flags:
     one tracer whose lanes are run indices, and per lane a metrics
     registry, an invariant checker and a rollup, all merged in lane
     order at export (byte-identical at any pool size), plus the flight
     recorder and optional span profile;
   - the chaos install and the exit-code-6 rule.

   Each binary composes only the terms it accepts. What differs between
   callers stays with them: the manifest, the default invariant pack's
   queue bound, and how a violation fails the run. *)

open Cmdliner

(* ---- converters ---- *)

let conv parse print =
  Arg.conv' (parse, fun ppf v -> Format.pp_print_string ppf (print v))

(* A number [of_string] reads and [ok] accepts; [want] names the range
   in the error. *)
let ranged want of_string ok base =
  Arg.conv'
    ( (fun s ->
        match of_string s with
        | Some v when ok v -> Ok v
        | _ -> Error (Printf.sprintf "invalid value %S (want %s)" s want)),
      Arg.conv_printer base )

let finite_float want ok =
  ranged want float_of_string_opt (fun v -> Float.is_finite v && ok v) Arg.float

let positive_int = ranged "a positive integer" int_of_string_opt (fun v -> v > 0) Arg.int
let non_negative_int = ranged "an integer >= 0" int_of_string_opt (fun v -> v >= 0) Arg.int
let positive_float = finite_float "a positive number" (fun v -> v > 0.0)
let non_negative_float = finite_float "a number >= 0" (fun v -> v >= 0.0)
let probability = finite_float "a probability in [0, 1]" (fun v -> v >= 0.0 && v <= 1.0)
let impair_conv = conv Faults.Spec.of_string Faults.Spec.to_string
let chaos_conv = conv Chaos.Spec.of_string Chaos.Spec.to_string
let trace_conv = conv Harness.Scenario.parse_trace Harness.Scenario.trace_to_string
let cca_conv = conv (fun s -> Result.map (fun _ -> s) (Harness.Ccas.lookup s)) Fun.id
let sample_conv = conv Obs.Sample.parse Obs.Sample.to_string

let filter_conv =
  conv Obs.Category.parse_filter (fun cs ->
      String.concat "," (List.map Obs.Category.to_string cs))

(* ---- shared flags ---- *)

let impair =
  Arg.(
    value
    & opt impair_conv Faults.Spec.empty
    & info [ "impair" ] ~docv:"SPEC"
        ~doc:
          "fault-injection schedule for the bottleneck: '+'-joined items, \
           each name[:k=v,..] -- gilbert, bernoulli, reorder, dup, corrupt, \
           jitter (packet channels; accept from=/until= windows) and outage, \
           clamp, flap (link-rate shapers); 'clean' disables. Scenarios that \
           set their own impairment keep it.")

let domains =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:"size of the domain pool (default: \\$LIBRA_DOMAINS or core count)")

(* [doc] says what the budget bounds for the caller and what expiry
   does. *)
let deadline_events ~doc =
  Arg.(value & opt (some positive_int) None & info [ "deadline-events" ] ~docv:"N" ~doc)

(* ---- scenario flags (libra_sim, diverge) ---- *)

type scenario = {
  cca : string;
  trace : Harness.Scenario.trace_spec;
  rtt_ms : float;
  buffer_kb : int;
  loss : float;
  duration : float;
  flows : int;
  seed : int;
}

(* [trace] and [duration] are the caller's defaults. *)
let scenario ~trace ~duration =
  let cca = Arg.(value & opt cca_conv "c-libra" & info [ "cca" ] ~doc:"CCA to run") in
  let trace = Arg.(value & opt trace_conv trace & info [ "trace" ] ~doc:"trace spec") in
  let num c name default ~docv ~doc =
    Arg.(value & opt c default & info [ name ] ~docv ~doc)
  in
  Term.(
    const (fun cca trace rtt_ms buffer_kb loss duration flows seed ->
        { cca; trace; rtt_ms; buffer_kb; loss; duration; flows; seed })
    $ cca $ trace
    $ num non_negative_float "rtt" 30.0 ~docv:"MS" ~doc:"min RTT in ms"
    $ num positive_int "buffer" 150 ~docv:"KB" ~doc:"buffer in KB"
    $ num probability "loss" 0.0 ~docv:"P" ~doc:"stochastic loss prob"
    $ num positive_float "duration" duration ~docv:"SECONDS" ~doc:"seconds"
    $ num positive_int "flows" 1 ~docv:"N" ~doc:"number of flows"
    $ num Arg.int "seed" 1 ~docv:"N" ~doc:"random seed")

(* The scenario's spec for a run seeded [seed] (LTE traces draw from
   it). *)
let scenario_spec s ~impair ~seed =
  Harness.Scenario.spec_of_cli ~rtt:(s.rtt_ms /. 1000.0) ~buffer_kb:s.buffer_kb
    ~loss_p:s.loss ~impair ~duration:s.duration ~seed s.trace

(* ---- --checkpoint DIR / --resume (experiments, train) ---- *)

type checkpoint = { dir : string option; resume : bool }

(* [store] says what the store under DIR keeps, [serve] what --resume
   serves from it. --resume without --checkpoint is a usage error. *)
let checkpoint ~store ~serve =
  let dir =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR" ~doc:store)
  in
  let resume = Arg.(value & flag & info [ "resume" ] ~doc:serve) in
  Term.(
    ret
      (const (fun dir resume ->
           if resume && dir = None then `Error (false, "--resume requires --checkpoint DIR")
           else `Ok { dir; resume })
      $ dir $ resume))

type chaos = { spec : Chaos.Spec.t; seed : int }

let chaos =
  let spec =
    Arg.(
      value
      & opt chaos_conv Chaos.Spec.empty
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "inject host faults into persistence (checkpoints, snapshots, \
             trace/metrics/rollup exports, flight dumps) and the domain pool: \
             '+'-joined name[:k=v,..] items in the --impair grammar -- \
             $(b,torn) (crash mid-write), $(b,flip) (silent bit corruption, \
             caught by verify-on-read), $(b,enospc) (disk full after N \
             bytes), $(b,eio) (I/O errors), $(b,kill-domain) (pool worker \
             death; tasks are resurrected); all accept from=/until= windows. \
             Faults surface as structured errors and exit code 6, never a \
             crash. 'none' disables.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "chaos-seed" ] ~docv:"N"
          ~doc:
            "seed for the deterministic chaos schedule: which operations \
             fault is a pure function of (seed, operation index)")
  in
  Term.(const (fun spec seed -> { spec; seed }) $ spec $ seed)

let install_chaos c = Chaos.Plane.install ~seed:c.seed c.spec

(* A fault surfaced to a caller, or a corrupt checkpoint detected
   (chaos installed or not), turns a would-be-clean exit into 6, so CI
   can tell "results fine, host faulty" from success and failure. *)
let exit_code status =
  if status <> 0 then status
  else if Chaos.Plane.surfaced () > 0 || Chaos.Plane.corrupt_detected () > 0 then 6
  else 0

(* --invariant SPECs then --invariant-file lines, in argument order;
   [None] stands for the word "default", whose pack the caller picks. *)
let invariants =
  let spec_conv =
    conv
      (fun s ->
        if String.trim s = "default" then Ok None
        else try Ok (Some (Check.Spec.parse s)) with Check.Spec.Parse_error m -> Error m)
      (function None -> "default" | Some s -> Check.Spec.to_string s)
  in
  let file_conv =
    conv
      (fun path ->
        match In_channel.with_open_text path In_channel.input_all with
        | text -> (
          try Ok (path, Check.Spec.parse_lines (String.split_on_char '\n' text))
          with Check.Spec.Parse_error m -> Error m)
        | exception Sys_error e -> Error e)
      fst
  in
  let specs =
    Arg.(
      value & opt_all spec_conv []
      & info [ "invariant" ] ~docv:"SPEC"
          ~doc:
            "check an invariant online over the event stream (repeatable). \
             $(docv) is \"NAME: always COND\", \"NAME: never COND\", \"NAME: \
             after COND eventually COND within N events|N s|N rtt\" or \
             \"NAME: after COND until COND expect COND\"; COND is '&'-joined \
             clauses like ev=enqueue, backlog<=150000, kind=link_up. The word \
             $(b,default) loads the default invariant pack. libra_sim reports \
             violations and exits 5; experiments fails the violating \
             experiment through the supervisor (exit 3).")
  in
  let file =
    Arg.(
      value
      & opt (some file_conv) None
      & info [ "invariant-file" ] ~docv:"FILE"
          ~doc:
            "read invariant specs from $(docv), one per line ('#' comments); \
             combined with any --invariant flags")
  in
  Term.(
    const (fun specs file ->
        specs @ match file with None -> [] | Some (_, l) -> List.map Option.some l)
    $ specs $ file)

let invariant_pack ~default l =
  List.concat_map (function None -> default | Some s -> [ s ]) l

(* ---- observability flags ---- *)

type obs = {
  trace_out : string option;
  categories : Obs.Category.t list;
  sample : Obs.Sample.t option;
  metrics_out : string option;
  rollup_out : string option;
  rollup_window : float;
  flight : int;  (* flight-recorder capacity; 0 = none *)
  flight_dir : string option;
}

let file_opt name ~doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

(* The trace export, --trace-filter and --metrics. [trace] names the
   export flag: libra_sim's --trace is its network trace. *)
let exports ~trace =
  let filter =
    Arg.(
      value
      & opt (some filter_conv) None
      & info [ "trace-filter" ] ~docv:"CAT,.."
          ~doc:
            "comma-separated event categories to record \
             (pkt,link,ack,rate,monitor,stage,cycle,rl,fault,invariant); \
             default all. --invariant widens the filter to whatever its specs \
             need.")
  in
  Term.(
    const (fun trace_out categories metrics_out ->
        {
          trace_out;
          categories = Option.value ~default:Obs.Category.all categories;
          sample = None;
          metrics_out;
          rollup_out = None;
          rollup_window = 0.1;
          flight = 0;
          flight_dir = None;
        })
    $ file_opt trace
        ~doc:
          "export the simulation-time event trace to $(docv) (.csv gets CSV, \
           anything else JSONL); runs are merged as trace lanes in order"
    $ filter
    $ file_opt "metrics" ~doc:"export the metrics registry as CSV")

(* [exports] plus sampling, rollups and the flight recorder. *)
let obs ~trace =
  let sample =
    Arg.(
      value
      & opt (some sample_conv) None
      & info [ "trace-sample" ] ~docv:"1/N"
          ~doc:
            "deterministic head-based flow sampling for the trace export: keep \
             every event of ~one flow in $(i,N), drop the rest. The kept set \
             is a pure function of the flow id (and libra_sim's --seed) -- \
             byte-identical at any --domains. Structural events (link, stage, \
             cycle, run, harness, invariant) are never dropped.")
  in
  let window =
    Arg.(
      value & opt positive_float 0.1
      & info [ "rollup-window" ] ~docv:"SECONDS"
          ~doc:"rollup window length in simulation seconds (default 0.1)")
  in
  let flight =
    Arg.(
      value & opt non_negative_int 2048
      & info [ "flight" ] ~docv:"N"
          ~doc:
            "keep a per-lane flight recorder of the last $(docv) events \
             (default 2048); dumped on supervised failures and the first \
             invariant violation. 0 disables.")
  in
  let flight_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dir" ] ~docv:"DIR"
          ~doc:"directory for flight-recorder dumps (default: the temp dir)")
  in
  Term.(
    const (fun o sample rollup_out rollup_window flight flight_dir ->
        { o with sample; rollup_out; rollup_window; flight; flight_dir })
    $ exports ~trace $ sample
    $ file_opt "rollup-out"
        ~doc:
          "export fixed-window rollups of the event stream (per-window queue \
           min/mean/max, drops, delivered bytes, rate and utility aggregates) \
           to $(docv) (.csv gets CSV, anything else JSONL), merged as lanes \
           in order -- a dense time-series orders of magnitude smaller than \
           the full trace"
    $ window $ flight $ flight_dir)

(* The manifest entries every trace-exporting caller adds. *)
let manifest_extra o =
  match o.sample with
  | None -> []
  | Some s -> [ ("trace_sample", Obs.Json.Str (Obs.Sample.to_string s)) ]

(* ---- the observability session ---- *)

type lane = {
  reg : Obs.Metrics.registry;
  checker : Check.Checker.t option;
  rollup : Obs.Rollup.t option;
}

type session = {
  obs : obs;
  manifest : Obs.Json.t;
  tracer : Obs.Trace.t option;  (* None: nothing to export or check *)
  flight : Obs.Flight.t option;
  profile : (Obs.Span.t * string) option;  (* recorder, output file *)
  invariants : Check.Spec.t list;
  rtt : float option;
  lock : Mutex.t;
  lanes : (int, lane) Hashtbl.t;
}

(* [profile] adds a span profile written at export; [rtt] and
   [invariants] configure each lane's checker. *)
let session ?profile ?rtt ?(invariants = []) ~manifest obs =
  Option.iter Obs.Flight.set_dump_dir obs.flight_dir;
  let tracer =
    if
      obs.trace_out = None && obs.metrics_out = None && obs.rollup_out = None
      && profile = None && invariants = []
    then None
    else
      (* --invariant widens the subscription to whatever its specs need. *)
      let categories =
        match invariants with
        | [] -> obs.categories
        | specs -> (
          match Check.Spec.categories_of_pack specs with
          | None -> Obs.Category.all
          | Some needed -> List.sort_uniq compare (obs.categories @ needed))
      in
      (* Without a trace export nothing is retained: the checker and
         rollups consume events online, so a small ring bounds memory. *)
      let ring_capacity = if obs.trace_out = None then Some 4096 else None in
      Some (Obs.Trace.create ?ring_capacity ?sample:obs.sample ~categories ~manifest ())
  in
  {
    obs;
    manifest;
    tracer;
    flight =
      (if obs.flight <= 0 then None else Some (Obs.Flight.create ~capacity:obs.flight ()));
    profile = Option.map (fun file -> (Obs.Span.create (), file)) profile;
    invariants;
    rtt;
    lock = Mutex.create ();
    lanes = Hashtbl.create 8;
  }

let new_lane s lane =
  let l =
    {
      reg = Obs.Metrics.create_registry ();
      checker =
        (match s.invariants with
        | [] -> None
        | specs -> Some (Check.Checker.create ?rtt:s.rtt specs));
      rollup =
        Option.map (fun _ -> Obs.Rollup.create ~window:s.obs.rollup_window ()) s.obs.rollup_out;
    }
  in
  Mutex.protect s.lock (fun () -> Hashtbl.replace s.lanes lane l);
  l

(* Run [f] as lane [lane] of the session. The lane's checker, if any,
   is also the ambient one ([Check.Runtime]), so a violation fails a
   supervised entry. *)
let run s ~lane f =
  let inner () =
    match s.tracer with
    | None -> f ()
    | Some tracer ->
      let l = new_lane s lane in
      let body () =
        match l.checker with Some c -> Check.Runtime.with_checker c f | None -> f ()
      in
      let body =
        match l.rollup with
        | Some r -> fun () -> Obs.Rollup.with_ambient r body
        | None -> body
      in
      let body () = Obs.Metrics.run l.reg body in
      let body =
        match s.profile with
        | Some (sp, _) -> fun () -> Obs.Span.run sp ~lane body
        | None -> body
      in
      let observer =
        match (l.rollup, l.checker) with
        | None, None -> None
        | Some r, None -> Some (Obs.Rollup.observe r)
        | None, Some c -> Some (Check.Checker.on_event c)
        | Some r, Some c ->
          Some
            (fun ev ->
              Obs.Rollup.observe r ev;
              Check.Checker.on_event c ev)
      in
      Obs.Trace.run tracer ~lane ?observer body
  in
  match s.flight with Some fl -> Obs.Flight.run fl ~lane inner | None -> inner ()

let lanes s = List.sort compare (Hashtbl.fold (fun i l acc -> (i, l) :: acc) s.lanes [])

(* Lane-ordered checkers, for the caller's violation report. *)
let checkers s =
  List.filter_map (fun (i, l) -> Option.map (fun c -> (i, c)) l.checker) (lanes s)

(* Write every requested artefact. An injected host fault on an export
   is named on stderr and left to [exit_code], never an unstructured
   crash. [lane_name] labels span-profile groups. *)
let export ?(lane_name = string_of_int) s =
  match s.tracer with
  | None -> ()
  | Some tracer -> (
    try
      let lanes = lanes s in
      Option.iter (Obs.Trace.write tracer) s.obs.trace_out;
      Option.iter
        (fun file ->
          let rollups =
            List.filter_map (fun (i, l) -> Option.map (fun r -> (i, r)) l.rollup) lanes
          in
          Obs.Rollup.write ~manifest:s.manifest ~lanes:rollups file;
          Printf.printf "rollup: %d window(s) over %d lane(s) -> %s\n"
            (List.fold_left (fun acc (_, r) -> acc + Obs.Rollup.windows r) 0 rollups)
            (List.length rollups) file)
        s.obs.rollup_out;
      Option.iter
        (fun file ->
          let merged = Obs.Metrics.create_registry () in
          List.iter (fun (_, l) -> Obs.Metrics.merge ~into:merged l.reg) lanes;
          Obs.Metrics.write_csv merged file)
        s.obs.metrics_out;
      (match s.profile with
      | Some (sp, file) ->
        let groups =
          List.map (fun (lane, trees) -> (lane_name lane, trees)) (Obs.Span.lanes_json sp)
        in
        Chaos.Io.write_file file
          (Obs.Json.to_string
             (Obs.Json.Obj
                [
                  ("profile", Obs.Json.Num 1.0);
                  ("manifest", s.manifest);
                  ("groups", Obs.Json.Obj groups);
                ])
          ^ "\n");
        Printf.printf "profile: %d group(s) -> %s\n" (List.length groups) file
      | None -> ());
      Option.iter
        (fun file -> Printf.printf "trace: %d events -> %s\n" (Obs.Trace.length tracer) file)
        s.obs.trace_out
    with Chaos.Io.Fault { fault; path; detail } ->
      Printf.eprintf "[chaos] export fault: %s at %s (%s)\n%!" fault path detail)

(* ---- evaluation ---- *)

(* Evaluate [term] as command [name] and exit with its code; usage
   errors (unknown flags, bad values, spec parse errors) exit 2. *)
let eval ~name ~doc term =
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"on success (see the README for run-specific codes).";
      Cmd.Exit.info 2 ~doc:"on command line usage errors.";
      Cmd.Exit.info 125 ~doc:"on unexpected internal errors (bugs).";
    ]
  in
  exit
    (match Cmd.eval_value' (Cmd.v (Cmd.info name ~doc ~exits) term) with
    | `Ok code -> code
    | `Exit code -> if code = Cmd.Exit.cli_error then 2 else code)
