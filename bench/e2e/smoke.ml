(* Smoke test: every workload's first two runs, untraced and traced, at
   the harness's tiny training scale. Both must run clean, read the same
   digest, and emit exactly the metrics BENCHMARK.json names, each with
   the unit it declares there. *)

open Bench_e2e

let errors = ref []
let check ok fmt = Printf.ksprintf (fun msg -> if not ok then errors := msg :: !errors) fmt

let declared benchmark key =
  match Obs.Json.member key benchmark with
  | Some (Obs.Json.List ms) ->
    List.map
      (fun m ->
        let s k = Option.bind (Obs.Json.member k m) Obs.Json.str |> Option.get in
        (s "name", s "unit"))
      ms
  | _ -> failwith ("BENCHMARK.json: no list " ^ key)

let () =
  let benchmark =
    In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all
    |> Obs.Json.parse_exn
  in
  let end_to_end = declared benchmark "end_to_end" in
  let per_layer = declared benchmark "per_layer" in
  Harness.Scale.set Harness.Scale.tiny;
  List.iter
    (fun (w : Workloads.t) ->
      let emitted (r : Measure.result) =
        List.map (fun (x : Measure.metric) -> (x.name, x.unit)) r.metrics
      in
      let untraced = Measure.untraced w ~seed:1 ~seconds:0.0 ~limit:(Some 2) in
      let traced = Measure.traced w ~seed:1 ~seconds:0.0 ~limit:(Some 2) in
      List.iter
        (fun (mode, (r : Measure.result), declared) ->
          check (r.correct && r.failed = 0) "%s %s: correct=%b failed=%d/%d" w.name mode
            r.correct r.failed r.attempted;
          check (emitted r = declared) "%s %s: metrics differ from BENCHMARK.json" w.name
            mode)
        [ ("untraced", untraced, end_to_end); ("traced", traced, per_layer) ];
      check (untraced.digest = traced.digest) "%s: digest %s untraced, %s traced" w.name
        untraced.digest traced.digest)
    Workloads.all;
  match List.rev !errors with
  | [] -> print_endline "bench/e2e smoke: ok"
  | errs ->
    List.iter prerr_endline errs;
    exit 1
