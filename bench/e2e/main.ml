(* The repository benchmark.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--record FILE]
     main.exe compare A.jsonl B.jsonl

   The first form measures one workload and prints every metric by name
   with its unit, then, as its last line, one JSON object with the keys
   correct / attempted / failed / metrics. [--trace 0] gives the
   end-to-end metrics, [--trace 1] the per-layer ones. [--record]
   appends the same result, tagged with workload and seed, to FILE for
   [compare]. See README.md. *)

open Bench_e2e

(* Digest of the full run list at seed 1, when this benchmark was
   defined. A mismatch is reported, not failed: a change that means to
   alter simulated behaviour changes it. *)
let recorded_digests =
  [
    ("wired-bulk", "49a6ed68fcc73ee971487a369166d3ea");
    ("cellular-learned", "b52256e86590d34691f1017d9cded59f");
    ("population-churn", "91cd4908efbaf8d699f7332fe83c839c");
    ("impaired-shared", "886a7bcad2fb0d269e905a7b31562ba2");
  ]

let usage =
  "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--record FILE]\n\
  \       main.exe compare A.jsonl B.jsonl\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)

let die msg =
  prerr_endline msg;
  prerr_endline usage;
  exit 2

let parse args =
  let workload = ref None and seed = ref 1 and seconds = ref 18.0 in
  let trace = ref false and record = ref None in
  let int_of flag v =
    match int_of_string_opt v with Some n -> n | None -> die (flag ^ ": not an integer: " ^ v)
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (match Workloads.find v with
      | Some w -> workload := Some w
      | None -> die ("--workload: unknown workload " ^ v));
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of "--seed" v;
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s >= 0.0 -> seconds := s
      | _ -> die ("--seconds: not a duration: " ^ v));
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := false
      | "1" -> trace := true
      | _ -> die ("--trace: expected 0 or 1, got " ^ v));
      go rest
    | "--record" :: v :: rest ->
      record := Some v;
      go rest
    | arg :: _ -> die ("unexpected argument " ^ arg)
  in
  go args;
  match !workload with
  | None -> die "--workload is required"
  | Some w -> (w, !seed, !seconds, !trace, !record)

let bench args =
  let w, seed, seconds, trace, record = parse args in
  Rlcc.Pretrained.eval_episodes := Workloads.policy_episodes;
  let measure = if trace then Measure.traced else Measure.untraced in
  let r = measure w ~seed ~seconds ~limit:None in
  Printf.eprintf "%s seed %d: %d runs, %d failed, digest %s%s\n%!" w.name seed r.attempted
    r.failed r.digest
    (match List.assoc_opt w.name recorded_digests with
    | Some d when seed = 1 && d = r.digest -> " (matches the recorded seed-1 digest)"
    | Some d when seed = 1 -> " (differs from the recorded seed-1 digest " ^ d ^ ")"
    | _ -> "");
  if not r.correct then
    prerr_endline "not correct: a run failed, or repeats of the same runs disagreed";
  List.iter
    (fun (x : Measure.metric) -> Printf.printf "%-30s %14.6g %s\n" x.name x.value x.unit)
    r.metrics;
  Option.iter
    (fun path ->
      Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 path (fun oc ->
          output_string oc
            (Obs.Json.to_compact
               (Obs.Json.Obj
                  ([
                     ("workload", Obs.Json.Str w.name);
                     ("seed", Num (float_of_int seed));
                     ("trace", Bool trace);
                     ("digest", Str r.digest);
                   ]
                  @ Measure.result_fields r)));
          output_char oc '\n'))
    record;
  print_endline (Obs.Json.to_compact (Obs.Json.Obj (Measure.result_fields r)))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; baseline; change ] ->
    let regressed =
      try Compare.run ~benchmark:"BENCHMARK.json" ~baseline ~change
      with Failure m | Sys_error m ->
        prerr_endline m;
        exit 2
    in
    exit (if regressed then 1 else 0)
  | "compare" :: _ -> die "compare takes two files"
  | args -> bench args
