(* perf_report: compare entries of the bench trajectory and render span
   profiles.

     perf_report [--file BENCH_history.jsonl]      compare latest vs baseline
     perf_report --baseline N --candidate M        compare two entries by index
     perf_report --gate PCT                        exit 1 if any common
                                                   metric regressed > PCT%
     perf_report --latest                          render the latest entry
                                                   (wall + span attribution)
     perf_report --trend                           p50/p90 wall time per
                                                   experiment over the history
     perf_report --profile FILE                    render an `experiments
                                                   --profile` span dump

   The default baseline is the latest earlier entry with the same scale
   and at least one metric in common (see Obs.Perf.find_baseline).
   With fewer than two comparable entries the compare modes print a
   note and exit 0 — a fresh history must not fail the perf gate.

   Exit codes: 0 ok, 1 gate failed or an input file is unreadable,
   2 usage error (unknown flag or malformed value, named on stderr). *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let usage_error fmt = Printf.ksprintf (fun s -> prerr_endline ("perf_report: " ^ s); exit 2) fmt

let index flag v =
  match int_of_string_opt v with
  | Some i when i >= 0 -> i
  | _ -> usage_error "%s %S: expected a history entry index" flag v

let () =
  let file = ref "BENCH_history.jsonl" in
  let baseline = ref None in
  let candidate = ref None in
  let gate = ref None in
  let latest = ref false in
  let trend = ref false in
  let profile = ref None in
  let rec parse = function
    | [] -> ()
    | "--file" :: v :: rest -> file := v; parse rest
    | "--baseline" :: v :: rest -> baseline := Some (index "--baseline" v); parse rest
    | "--candidate" :: v :: rest -> candidate := Some (index "--candidate" v); parse rest
    | "--gate" :: v :: rest ->
      (match float_of_string_opt v with
      | Some pct when pct >= 0.0 -> gate := Some pct
      | _ -> usage_error "--gate %S: expected a non-negative percentage" v);
      parse rest
    | "--latest" :: rest -> latest := true; parse rest
    | "--trend" :: rest -> trend := true; parse rest
    | "--profile" :: v :: rest -> profile := Some v; parse rest
    | [ ("--file" | "--baseline" | "--candidate" | "--gate" | "--profile") as flag ] ->
      usage_error "%s needs a value" flag
    | arg :: _ ->
      usage_error
        "unknown argument %s\nusage: perf_report [--file F] [--baseline N] [--candidate N] \
         [--gate PCT] [--latest] [--trend] [--profile FILE]"
        arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !profile with
  | Some path ->
    (* Render a span-profile file (experiments --profile). *)
    let text =
      match Chaos.Io.read_file path with Some s -> s | None -> fail "cannot open %s" path
    in
    let v = match Obs.Json.parse text with Ok v -> v | Error e -> fail "%s: %s" path e in
    (match Option.bind (Obs.Json.member "manifest" v) (fun m -> Some m) with
    | Some m ->
      (match Obs.Manifest.validate m with
      | Ok () -> ()
      | Error e -> fail "%s: %s" path e)
    | None -> fail "%s: profile has no manifest" path);
    let groups =
      match Obs.Json.member "groups" v with
      | Some (Obs.Json.Obj kvs) -> kvs
      | _ -> fail "%s: profile has no groups object" path
    in
    let b = Buffer.create 1024 in
    List.iter
      (fun (name, trees) ->
        Buffer.add_string b (Printf.sprintf "group %s\n" name);
        Obs.Perf.render_span_trees b trees)
      groups;
    print_string (Buffer.contents b);
    Printf.printf "%s: %d group(s), manifest ok\n" path (List.length groups)
  | None ->
    let entries =
      match Obs.Perf.load_history !file with
      | Ok entries -> entries
      | Error e ->
        if !gate = None then begin
          Printf.printf "perf_report: %s\n" e;
          exit 0
        end
        else fail "perf_report: %s" e
    in
    if entries = [] then begin
      Printf.printf "perf_report: %s is empty\n" !file;
      exit 0
    end;
    let by_index flag i =
      match List.find_opt (fun e -> e.Obs.Perf.index = i) entries with
      | Some e -> e
      | None ->
        usage_error "%s %d: no history entry #%d (have 0..%d)" flag i i
          (List.length entries - 1)
    in
    if !trend then print_string (Obs.Perf.render_trend entries)
    else begin
      let cand =
        match !candidate with
        | Some i -> by_index "--candidate" i
        | None -> List.nth entries (List.length entries - 1)
      in
      if !latest then print_string (Obs.Perf.render_entry cand)
      else begin
        let base =
          match !baseline with
          | Some i -> Some (by_index "--baseline" i)
          | None -> Obs.Perf.find_baseline entries ~candidate:cand
        in
        match base with
        | None ->
          Printf.printf
            "perf_report: no comparable baseline for entry #%d (need same scale + shared \
             metrics); nothing to gate\n"
            cand.Obs.Perf.index
        | Some base ->
          let deltas = Obs.Perf.compare_entries ~baseline:base ~candidate:cand in
          print_string (Obs.Perf.render_comparison ~baseline:base ~candidate:cand deltas);
          (match !gate with
          | None -> ()
          | Some pct ->
            let regs = Obs.Perf.regressions ~threshold_pct:pct deltas in
            if regs = [] then
              Printf.printf "gate: ok (no metric regressed more than %.0f%%)\n" pct
            else begin
              Printf.printf "gate: FAIL (%d metric(s) regressed more than %.0f%%)\n"
                (List.length regs) pct;
              List.iter
                (fun { Obs.Perf.group; logical; base; cand; pct } ->
                  Printf.printf "  %s: %s -> %s (%+.1f%%)\n" group
                    (Obs.Perf.render_value ~logical base)
                    (Obs.Perf.render_value ~logical cand) pct)
                regs;
              exit 1
            end)
      end
    end
