(* Observability deep-dive: replay a wired and an LTE scenario with the
   trace subsystem attached and export the event stream plus the
   Fig. 17/18 series (decision fractions, utility over time) as files.

   The two scenarios fan out over the domain pool as trace lanes 0 and
   1; the export merges lanes in (lane, within-lane order), so the
   bytes written are identical at any pool size — the determinism test
   in test_exec.ml compares [artifacts] under pool sizes 1 and 4. *)

let scenarios ~duration =
  [
    ("wired", Traces.Rate.constant 48.0);
    ("lte", Traces.Lte.generate ~seed:21 ~duration Traces.Lte.Walking);
  ]

(* Control-plane categories only: per-packet / per-ACK streams are left
   to the CLI's --trace-filter, keeping the committed experiment's
   output small. *)
let categories =
  Obs.Category.[ Link; Monitor; Stage; Cycle; Rl ]

(* One C-Libra flow over [trace]; returns the telemetry fractions and
   the windowed utility series of the flow. *)
let run_scenario ~duration trace =
  let o, controller =
    Scenario.run_libra ~make:Libra.make_c_libra_instrumented ~duration
      (Scenario.make_spec ~rtt:0.03 ~buffer_kb:150 trace)
  in
  ( Libra.Telemetry.fractions (Libra.Controller.telemetry controller),
    Libra.Ideal.utility_of_stats (Scenario.first_stats o) ~duration )

let fcell v = if Float.is_finite v then Printf.sprintf "%.6f" v else ""

(* Pure artifact builder: (filename, contents) pairs, no file I/O. *)
let artifacts ?pool () =
  let pool = match pool with Some p -> p | None -> Exec.Pool.default () in
  let duration = (Scale.get ()).Scale.duration in
  let scns = Array.of_list (scenarios ~duration) in
  let tracer = Obs.Trace.create ~categories () in
  let results =
    Exec.Pool.map pool
      (fun i ->
        let name, trace = scns.(i) in
        let reg = Obs.Metrics.create_registry () in
        let fractions, series =
          Obs.Trace.run tracer ~lane:i (fun () ->
              Obs.Metrics.run reg (fun () -> run_scenario ~duration trace))
        in
        (name, fractions, series, reg))
      (Array.init (Array.length scns) Fun.id)
  in
  (* Merge per-lane registries in lane order (counters add, gauges
     overwrite), mirroring the lane-merge discipline of the tracer. *)
  let merged = Obs.Metrics.create_registry () in
  Array.iter (fun (_, _, _, reg) -> Obs.Metrics.merge ~into:merged reg) results;
  let fig17 =
    let b = Buffer.create 256 in
    Buffer.add_string b "scenario,x_prev,x_rl,x_cl\n";
    Array.iter
      (fun (name, (prev, rl, cl), _, _) ->
        Buffer.add_string b
          (Printf.sprintf "%s,%s,%s,%s\n" name (fcell prev) (fcell rl)
             (fcell cl)))
      results;
    Buffer.contents b
  in
  let fig18 =
    let b = Buffer.create 1024 in
    let names = Array.map (fun (name, _, _, _) -> name) results in
    let series = Array.map (fun (_, _, s, _) -> s) results in
    Buffer.add_string b "t";
    Array.iter (fun n -> Buffer.add_string b ("," ^ n ^ "_utility")) names;
    Buffer.add_char b '\n';
    let len =
      Array.fold_left (fun a s -> min a (Array.length s)) max_int series
    in
    for i = 0 to len - 1 do
      let t0, _ = series.(0).(i) in
      Buffer.add_string b (fcell t0);
      Array.iter
        (fun s ->
          let _, u = s.(i) in
          Buffer.add_string b ("," ^ fcell u))
        series;
      Buffer.add_char b '\n'
    done;
    Buffer.contents b
  in
  [
    ("exp_trace.jsonl", Obs.Trace.to_jsonl tracer);
    ("exp_trace_events.csv", Obs.Trace.to_csv tracer);
    ("exp_trace_fig17.csv", fig17);
    ("exp_trace_fig18.csv", fig18);
    ("exp_trace_metrics.csv", Obs.Metrics.to_csv merged);
  ]

(* Through the chaos I/O plane: atomic write, faults structured. *)
let write_file name contents = Chaos.Io.write_file name contents

(* The JSONL export opens with the manifest line, which embeds argv;
   its byte count leaves that line out, so this table reads the same
   however the binary was invoked. *)
let body_bytes name contents =
  if Filename.check_suffix name ".jsonl" then
    String.length contents - (String.index contents '\n' + 1)
  else String.length contents

let run () =
  let files = artifacts () in
  List.iter (fun (name, contents) -> write_file name contents) files;
  Table.heading "exp_trace: deterministic sim-time trace export";
  Table.print ~header:[ "file"; "bytes"; "lines" ]
    (List.map
       (fun (name, contents) ->
         let lines =
           String.fold_left (fun a c -> if c = '\n' then a + 1 else a) 0 contents
         in
         [ name; string_of_int (body_bytes name contents); string_of_int lines ])
       files);
  Report.printf "trace categories: %s\n"
    (String.concat "," (List.map Obs.Category.to_string categories))
