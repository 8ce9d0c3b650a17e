(* Scenario runners: the one place a (CCA, scenario) pair turns into
   the numbers the paper's experiments report.

   A scenario is a trace + propagation RTT + buffer + stochastic loss
   (+ the ambient impairment); runners place one or more flows on it,
   repeat over seeds or trace sets, and reduce the per-flow statistics
   into the metrics the figures report. The experiment modules keep
   only what is specific to their figure: CCAs, scenarios, columns. *)

type spec = {
  trace : Traces.Rate.t;
  rtt : float;  (* seconds *)
  buffer_bytes : int;
  loss_p : float;
  aqm : [ `Fifo | `Codel ];
  impair : Faults.Spec.t;  (* fault schedule; Faults.Spec.empty = clean *)
  dup_thresh : int;  (* sender dup-ACK loss threshold *)
}

(* Ambient impairment, set by the CLIs' --impair flag: applied by
   [make_spec] and [wan_spec] whenever a caller doesn't pass one
   explicitly, so a whole experiment suite can be rerun under a fault
   schedule. Set once before any simulation starts (it is read
   concurrently by pool workers). *)
let default_impair = ref Faults.Spec.empty
let set_default_impair s = default_impair := s

(* The dup-ACK threshold follows the impairment: a spec whose channels
   can reorder ACKs gets the TCP-style 3, a clean path keeps exact gap
   detection (1). *)
let make_spec ?(rtt = 0.03) ?(buffer_kb = 150) ?(loss_p = 0.0) ?(aqm = `Fifo)
    ?impair trace =
  let impair = match impair with Some i -> i | None -> !default_impair in
  let dup_thresh = if Faults.Spec.may_reorder impair then 3 else 1 in
  { trace; rtt; buffer_bytes = Netsim.Units.kb buffer_kb; loss_p; aqm;
    impair; dup_thresh }

(* A WAN path keeps its own RTT, buffer and stochastic loss. *)
let wan_spec ?impair (path : Traces.Wan.path) =
  {
    (make_spec ~rtt:path.Traces.Wan.rtt ~loss_p:path.Traces.Wan.loss_p ?impair
       path.Traces.Wan.rate)
    with
    buffer_bytes = path.Traces.Wan.buffer_bytes;
  }

(* [spec] with a one-BDP buffer at its trace's mean rate. *)
let one_bdp spec =
  {
    spec with
    buffer_bytes =
      Netsim.Units.bdp_bytes ~rate_bps:(Traces.Rate.mean_bps spec.trace) ~rtt_s:spec.rtt;
  }

(* The CLI trace grammar shared by libra_sim and diverge:
   wired:<mbps> | lte:<stationary|walking|driving|moving> |
   step:<mbps,mbps,...> | wan:<inter|intra>. Parsing only checks the
   text, so bad input fails at the command line; [spec_of_cli] builds
   the trace (LTE traces need the run's duration and seed). Every rate
   must be finite and positive: a NaN capacity breaks the simulator's
   clock, an infinite one never finishes a run, and a non-positive one
   never delivers. *)
type trace_spec =
  | Wired of float
  | Lte of Traces.Lte.scenario
  | Step of float list
  | Wan of [ `Inter | `Intra ]

let lte_scenarios =
  Traces.Lte.[ ("stationary", Stationary); ("walking", Walking); ("driving", Driving);
               ("moving", Moving) ]

let parse_trace spec =
  let ( let* ) = Result.bind in
  let num v =
    match float_of_string_opt v with
    | Some f when Float.is_finite f && f > 0.0 -> Ok f
    | Some _ ->
      Error (Printf.sprintf "trace %S: %S is not a finite, positive rate" spec v)
    | None -> Error (Printf.sprintf "trace %S: %S is not a number" spec v)
  in
  let rec nums acc = function
    | [] -> Ok (List.rev acc)
    | v :: rest ->
      let* f = num v in
      nums (f :: acc) rest
  in
  match String.split_on_char ':' spec with
  | [ "wired"; mbps ] -> Result.map (fun m -> Wired m) (num mbps)
  | [ "lte"; name ] -> (
    match List.assoc_opt name lte_scenarios with
    | Some s -> Ok (Lte s)
    | None ->
      Error
        (Printf.sprintf "unknown LTE scenario %S (known: %s)" name
           (String.concat ", " (List.map fst lte_scenarios))))
  | [ "step"; levels ] ->
    Result.map (fun l -> Step l) (nums [] (String.split_on_char ',' levels))
  | [ "wan"; "inter" ] -> Ok (Wan `Inter)
  | [ "wan"; "intra" ] -> Ok (Wan `Intra)
  | _ ->
    Error
      (Printf.sprintf
         "bad trace spec %S (want wired:<mbps> | lte:<scenario> | \
          step:<mbps,mbps,..> | wan:<inter|intra>)"
         spec)

let trace_to_string = function
  | Wired m -> Printf.sprintf "wired:%g" m
  | Lte s ->
    "lte:" ^ fst (List.find (fun (_, s') -> s' = s) lte_scenarios)
  | Step l -> "step:" ^ String.concat "," (List.map (Printf.sprintf "%g") l)
  | Wan `Inter -> "wan:inter"
  | Wan `Intra -> "wan:intra"

(* A full spec from the CLI knobs: the scenario-level rtt/buffer/loss
   apply to rate-trace specs; WAN paths keep their own. *)
let spec_of_cli ~rtt ~buffer_kb ~loss_p ~impair ~duration ~seed trace_spec =
  let rate trace = make_spec ~rtt ~buffer_kb ~loss_p ~impair trace in
  match trace_spec with
  | Wired mbps -> rate (Traces.Rate.constant mbps)
  | Lte s -> rate (Traces.Lte.generate ~seed ~duration s)
  | Step levels -> rate (Traces.Rate.step ~period:10.0 levels)
  | Wan `Inter -> wan_spec ~impair (Traces.Wan.inter_continental ~duration ())
  | Wan `Intra -> wan_spec ~impair (Traces.Wan.intra_continental ~duration ())

(* Network.run's [faults] argument for this spec ([None] when clean, so
   unimpaired runs take the hook-free fast path and stay bit-identical
   to pre-fault builds). *)
let faults_of spec =
  if Faults.Spec.is_empty spec.impair then None
  else
    Some
      (fun rng -> Faults.Injector.hooks (Faults.Injector.create ~rng spec.impair))

let link_of spec =
  {
    Netsim.Network.rate_fn = Traces.Rate.fn spec.trace;
    const_rate = Traces.Rate.const_bps spec.trace;
    grain = Traces.Rate.grain spec.trace;
    buffer_bytes = spec.buffer_bytes;
    loss_p = spec.loss_p;
    aqm = spec.aqm;
  }

(* Flows with individual start times (flow i seeded [seed + 1000 i]);
   returns the raw summary for fairness/convergence analysis. *)
let run_mixed ?(seed = 1) ~flows ~duration spec =
  let flows =
    List.mapi
      (fun i (factory, start_at) ->
        {
          Netsim.Network.cca = factory ~seed:(seed + (1000 * i));
          start_at;
          stop_at = duration;
          rtt = spec.rtt;
        })
      flows
  in
  Netsim.Network.run ~seed ~dup_thresh:spec.dup_thresh ?faults:(faults_of spec)
    ~link:(link_of spec) ~flows ~duration ()

type outcome = {
  utilization : float;
  mean_delay : float;  (* seconds *)
  loss_rate : float;
  throughput : float;  (* bytes/s, aggregate over flows *)
  summary : Netsim.Network.summary;
}

(* Run [n_flows] copies of one CCA for [duration], all starting at 0,
   and reduce the summary: mean RTT over the flows that got an ACK,
   loss over all packets, throughput summed over flows. *)
let run_uniform ?(seed = 1) ?(n_flows = 1) ~factory ~duration spec =
  let summary =
    run_mixed ~seed ~flows:(List.init n_flows (fun _ -> (factory, 0.0))) ~duration spec
  in
  let stats = List.map (fun f -> f.Netsim.Network.stats) summary.Netsim.Network.flows in
  let delays = List.filter_map (fun s ->
      let d = Netsim.Flow_stats.mean_rtt s in
      if Float.is_nan d then None else Some d) stats
  in
  let mean_delay =
    if delays = [] then nan
    else List.fold_left ( +. ) 0.0 delays /. float_of_int (List.length delays)
  in
  let acked = List.fold_left (fun a s -> a + Netsim.Flow_stats.total_acked_pkts s) 0 stats in
  let lost = List.fold_left (fun a s -> a + Netsim.Flow_stats.total_lost_pkts s) 0 stats in
  let loss_rate =
    if acked + lost = 0 then 0.0 else float_of_int lost /. float_of_int (acked + lost)
  in
  let throughput =
    List.fold_left
      (fun a s -> a +. Netsim.Flow_stats.mean_throughput ~from_t:0.0 ~to_t:duration s)
      0.0 stats
  in
  {
    utilization = Netsim.Network.utilization summary;
    mean_delay;
    loss_rate;
    throughput;
    summary;
  }

(* The statistics of a run's first flow (the single-flow figures plot
   it over time). *)
let first_stats o = (List.hd o.summary.Netsim.Network.flows).Netsim.Network.stats

(* An outcome's reduction averaged over seeds or traces: utilization,
   mean delay (s), loss rate and throughput (bytes/s). *)
type mean = { util : float; delay : float; loss : float; thr : float }

(* The mean of [f] over [items]: left folds in list order, then / n.
   The figures' printed digits depend on this float order. *)
let mean_of f items =
  let ms = List.map f items in
  let n = float_of_int (List.length ms) in
  let avg g = List.fold_left (fun a m -> a +. g m) 0.0 ms /. n in
  {
    util = avg (fun m -> m.util);
    delay = avg (fun m -> m.delay);
    loss = avg (fun m -> m.loss);
    thr = avg (fun m -> m.thr);
  }

(* Average an outcome over [runs] seeds. Each repetition is an isolated,
   seed-deterministic simulation, so they fan out across the pool; the
   averages fold in seed order, keeping the result bit-identical to a
   sequential run at any pool size. *)
let averaged ?pool ?(base_seed = 1) ~runs ~factory ~duration spec =
  let pool = match pool with Some p -> p | None -> Exec.Pool.default () in
  let outcomes =
    Exec.Pool.map pool
      (fun i -> run_uniform ~seed:(base_seed + (7919 * i)) ~factory ~duration spec)
      (Array.init runs Fun.id)
  in
  mean_of
    (fun o ->
      { util = o.utilization; delay = o.mean_delay; loss = o.loss_rate; thr = o.throughput })
    (Array.to_list outcomes)

(* [averaged] over each trace of a set on the standard 30 ms / 150 KB
   path, then the mean over the traces. *)
let over_traces ~runs ~factory ~duration traces =
  mean_of (fun trace -> averaged ~runs ~factory ~duration (make_spec trace)) traces

(* Steady-state throughput share of flow 0 vs the rest (Fig. 13's
   normalised throughput ratio), measured over the second half. *)
let share_of_first ~duration (summary : Netsim.Network.summary) =
  let thr f =
    Netsim.Flow_stats.mean_throughput ~from_t:(duration /. 2.0) ~to_t:duration
      f.Netsim.Network.stats
  in
  match summary.Netsim.Network.flows with
  | [] -> nan
  | first :: rest ->
    let t0 = thr first in
    let total = List.fold_left (fun a f -> a +. thr f) t0 rest in
    if total <= 0.0 then nan else t0 /. total

(* Jain index over steady-state per-flow throughputs. *)
let jain ~duration (summary : Netsim.Network.summary) =
  let thr =
    List.map
      (fun f ->
        Netsim.Flow_stats.mean_throughput ~from_t:(duration /. 2.0) ~to_t:duration
          f.Netsim.Network.stats)
      summary.Netsim.Network.flows
  in
  Metrics.Jain.index (Array.of_list thr)

(* One flow of an instrumented Libra variant over [spec]: the run's
   outcome and the flow's controller, whose telemetry Figs. 17/18
   read. *)
let run_libra
    ~(make :
       ?params:Libra.Params.t -> ?initial_rate:float -> unit -> Libra.instrumented)
    ~duration spec =
  let controller = ref None in
  let factory ~seed =
    let inst = make ~params:(Ccas.libra_params ~seed) () in
    controller := Some inst.Libra.controller;
    inst.Libra.cca
  in
  let o = run_uniform ~factory ~duration spec in
  (o, Option.get !controller)

(* The paper's standard wired and cellular trace sets (Fig. 7). *)
let wired_traces () =
  List.map Traces.Rate.constant [ 12.0; 24.0; 48.0; 96.0 ]

let cellular_traces ?(seed = 1) ~duration () =
  List.map
    (fun s -> Traces.Lte.generate ~seed ~duration s)
    Traces.Lte.all_scenarios

(* ---- adversarial search support ---- *)

(* A Search.Eval.runner over this module's uniform-flow scenario: a
   constant-rate wired bottleneck at the candidate's knobs. The fixed
   [seed] makes the runner pure, which is what lets Search's pool
   fan-out stay byte-identical at any pool size — and lets a committed
   counterexample replay to the very numbers the search saw. *)
let adversarial_runner ?(seed = 11) ~factory ~duration () : Search.Eval.runner =
 fun ~impair (knobs : Search.Space.knobs) ->
  let spec =
    make_spec ~rtt:knobs.Search.Space.rtt ~buffer_kb:knobs.Search.Space.buffer_kb
      ~impair
      (Traces.Rate.constant knobs.Search.Space.bw_mbps)
  in
  let o = run_uniform ~seed ~n_flows:knobs.Search.Space.flows ~factory ~duration spec in
  {
    Search.Eval.throughput_bps = o.throughput;
    mean_delay = o.mean_delay;
    loss_rate = o.loss_rate;
  }

(* ---- counterexample corpus (scenarios/*.scn) ---- *)

(* One committed counterexample: the shrunk impairment spec plus the
   scenario knobs and enough provenance (CCA, search seed, degradation
   at find time) to replay it as a named regression in exp_robustness. *)
type counterexample = {
  name : string;
  cca : string;
  impair : Faults.Spec.t;
  knobs : Search.Space.knobs;
  threshold : float;
  degradation : float;  (* relative utility degradation when found *)
  seed : int;  (* the runner seed the search evaluated with *)
  duration : float;  (* per-leg scenario duration, seconds *)
}

(* Where the corpus lives; dune rules run in _build/default, where the
   (source_tree scenarios) dep materialises it under this default. *)
let scenarios_dir () =
  Option.value (Sys.getenv_opt "LIBRA_SCENARIOS") ~default:"scenarios"

(* `key: value` lines, `#` comments, manifest-stamped. The manifest line
   is provenance only and is ignored on load. It deliberately excludes
   argv and the domain count: a committed file must be byte-identical
   whether the search that found it ran at pool size 1 or 4. *)
let counterexample_to_string (c : counterexample) =
  let b = Buffer.create 256 in
  let add k v = Buffer.add_string b (Printf.sprintf "%s: %s\n" k v) in
  Buffer.add_string b "# libra adversarial counterexample (see EXPERIMENTS.md)\n";
  add "manifest"
    (Obs.Manifest.header_line
       (Obs.Manifest.make ~seeds:[ c.seed ]
          ~impair:(Faults.Spec.to_string c.impair)
          ~argv:[] ()));
  add "name" c.name;
  add "cca" c.cca;
  add "impair" (Faults.Spec.to_string c.impair);
  add "bandwidth_mbps" (Printf.sprintf "%g" c.knobs.Search.Space.bw_mbps);
  add "rtt" (Printf.sprintf "%g" c.knobs.Search.Space.rtt);
  add "buffer_kb" (string_of_int c.knobs.Search.Space.buffer_kb);
  add "flows" (string_of_int c.knobs.Search.Space.flows);
  add "threshold" (Printf.sprintf "%g" c.threshold);
  add "degradation" (Printf.sprintf "%g" c.degradation);
  add "seed" (string_of_int c.seed);
  add "duration" (Printf.sprintf "%g" c.duration);
  Buffer.contents b

(* Writes go through the chaos I/O plane: atomic tmp+rename, faults
   structured. *)
let to_file path (c : counterexample) =
  Chaos.Io.write_file path (counterexample_to_string c)

(* The keys {!counterexample_to_string} emits (plus the provenance
   header). Anything else in a scenario file is garbage and rejected —
   with the line it sits on — rather than silently ignored. *)
let known_keys =
  [
    "manifest"; "name"; "cca"; "impair"; "bandwidth_mbps"; "rtt"; "buffer_kb";
    "flows"; "threshold"; "degradation"; "seed"; "duration";
  ]

let counterexample_of_string ~fallback_name s =
  let ( let* ) = Result.bind in
  (* Parse "key: value" lines, keeping 1-based line numbers so every
     rejection names the position of the offending line. *)
  let* kvs =
    String.split_on_char '\n' s
    |> List.mapi (fun i line -> (i + 1, String.trim line))
    |> List.fold_left
         (fun acc (ln, line) ->
           let* acc = acc in
           if line = "" || line.[0] = '#' then Ok acc
           else
             match String.index_opt line ':' with
             | None ->
               Error (Printf.sprintf "line %d: %S is not a 'key: value' line" ln line)
             | Some i ->
               let k = String.trim (String.sub line 0 i) in
               let v =
                 String.trim (String.sub line (i + 1) (String.length line - i - 1))
               in
               if not (List.mem k known_keys) then
                 Error (Printf.sprintf "line %d: unknown key %S" ln k)
               else Ok ((k, (ln, v)) :: acc))
         (Ok [])
  in
  let kvs = List.rev kvs in
  let get k = Option.map snd (List.assoc_opt k kvs) in
  (* Numeric keys: integers where the scenario counts, finite floats
     elsewhere, and the knobs inside Search.Space's validity box — a
     value the replay would truncate or cannot run is rejected with its
     line, never loaded. *)
  let value k default parse =
    match List.assoc_opt k kvs with
    | None -> Ok default
    | Some (ln, v) ->
      Result.map_error (Printf.sprintf "line %d: key %s: %S %s" ln k v) (parse v)
  in
  let within show ~lo ~hi x =
    if x >= lo && x <= hi then Ok x
    else Error (Printf.sprintf "is outside [%s, %s]" (show lo) (show hi))
  in
  let float_of v =
    match float_of_string_opt v with
    | None -> Error "is not a number"
    | Some f when not (Float.is_finite f) -> Error "is not finite"
    | Some f -> Ok f
  in
  let int_of v =
    match (int_of_string_opt v, float_of_string_opt v) with
    | Some i, _ -> Ok i
    | None, Some _ -> Error "is not an integer"
    | None, None -> Error "is not a number"
  in
  let num k default = value k default float_of in
  let knob k default ~lo ~hi =
    value k default (fun v ->
        Result.bind (float_of v) (within (Printf.sprintf "%g") ~lo ~hi))
  in
  let int_knob k default ~lo ~hi =
    value k default (fun v -> Result.bind (int_of v) (within string_of_int ~lo ~hi))
  in
  let* impair =
    match List.assoc_opt "impair" kvs with
    | None -> Error "scenario file: missing required key 'impair'"
    | Some (ln, v) -> (
      match Faults.Spec.of_string v with
      | Ok s -> Ok s
      | Error m -> Error (Printf.sprintf "line %d: %s" ln m))
  in
  let* cca =
    match List.assoc_opt "cca" kvs with
    | None -> Error "scenario file: missing required key 'cca'"
    | Some (ln, v) -> (
      match Ccas.lookup v with
      | Ok _ -> Ok v
      | Error m -> Error (Printf.sprintf "line %d: key cca: %s" ln m))
  in
  let base = Search.Space.base_knobs in
  let* bw =
    knob "bandwidth_mbps" base.bw_mbps ~lo:Search.Space.min_bw ~hi:Search.Space.max_bw
  in
  let* rtt = knob "rtt" base.rtt ~lo:Search.Space.min_rtt ~hi:Search.Space.max_rtt in
  let* buffer_kb =
    int_knob "buffer_kb" base.buffer_kb ~lo:Search.Space.min_buffer_kb
      ~hi:Search.Space.max_buffer_kb
  in
  let* flows =
    int_knob "flows" base.flows ~lo:Search.Space.min_flows ~hi:Search.Space.max_flows
  in
  let* threshold = num "threshold" 0.25 in
  let* degradation = num "degradation" 0.0 in
  let* seed = value "seed" 11 int_of in
  let* duration =
    value "duration" 6.0 (fun v ->
        Result.bind (float_of v) (fun d ->
            if d > 0.0 then Ok d else Error "is not a positive duration"))
  in
  Ok
    {
      name = Option.value (get "name") ~default:fallback_name;
      cca;
      impair;
      knobs = { Search.Space.bw_mbps = bw; rtt; buffer_kb; flows };
      threshold;
      degradation;
      seed;
      duration;
    }

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | s ->
    let fallback_name = Filename.remove_extension (Filename.basename path) in
    counterexample_of_string ~fallback_name s

(* All *.scn files in [dir] (default {!scenarios_dir}), sorted by file
   name for deterministic replay order. A missing directory is an empty
   corpus; a malformed committed file raises. *)
let load_corpus ?dir () =
  let dir = match dir with Some d -> d | None -> scenarios_dir () in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f ".scn")
    |> List.sort compare
    |> List.map (fun f ->
           match of_file (Filename.concat dir f) with
           | Ok c -> c
           | Error m -> failwith (Printf.sprintf "scenario %s: %s" f m))

(* Replay a counterexample: re-evaluate its candidate with the same
   runner shape and seed the search used, returning the fresh
   clean/impaired utilities and degradation. *)
let replay_counterexample (c : counterexample) =
  let factory = Ccas.find c.cca in
  let runner = adversarial_runner ~seed:c.seed ~factory ~duration:c.duration () in
  Search.Eval.evaluate ~runner ~duration:c.duration
    { Search.Space.impair = c.impair; knobs = c.knobs }
