(* `main.exe compare A.jsonl B.jsonl`: A is the baseline, B the change.
   Each line of either file is one untraced invocation as [--record]
   writes it. For every workload and every end-to-end metric in
   BENCHMARK.json, print both sides' median and quartiles and a verdict:

   - regressed: B's median is worse than A's by more than the bound;
   - improved: B wins at least 9 of 10 pairs (the i-th run of each file
     forms a pair; ties count for neither) and the medians differ, B's
     way, by more than A's quartile spread;
   - unresolved: A's own quartile spread is wider than the bound, unless
     every B run reads better than every A run;
   - unchanged: otherwise. *)

type bound = { metric : string; lower_is_better : bool; bound : float }

let fail fmt = Printf.ksprintf failwith fmt

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let field key j =
  match Obs.Json.member key j with Some v -> v | None -> fail "missing key %S" key

let str key j =
  match Obs.Json.str (field key j) with Some s -> s | None -> fail "%S is not a string" key

let num key j =
  match Obs.Json.num (field key j) with Some v -> v | None -> fail "%S is not a number" key

let bounds path =
  match Obs.Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Error e -> fail "%s: %s" path e
  | Ok j -> (
    match field "end_to_end" j with
    | Obs.Json.List ms ->
      List.map
        (fun e ->
          {
            metric = str "name" e;
            lower_is_better = str "better" e = "lower";
            bound = num "bound" e;
          })
        ms
    | _ -> fail "%s: end_to_end is not a list" path)

(* One record per untraced invocation: workload, failures, metric values.
   Traced records carry per-layer metrics only and are skipped. *)
type record = { workload : string; attempted : float; failed : float; values : (string * float) list }

let records path =
  read_lines path
  |> List.mapi (fun i line ->
      match Obs.Json.parse line with
      | Error e -> fail "%s:%d: %s" path (i + 1) e
      | Ok j when Obs.Json.member "trace" j = Some (Obs.Json.Bool true) -> None
      | Ok j -> (
        try
          let values =
            match field "metrics" j with
            | Obs.Json.Obj ms -> List.map (fun (k, v) -> (k, num "value" v)) ms
            | _ -> fail "metrics is not an object"
          in
          Some
            {
              workload = str "workload" j;
              attempted = num "attempted" j;
              failed = num "failed" j;
              values;
            }
        with Failure m -> fail "%s:%d: %s" path (i + 1) m))
  |> List.filter_map Fun.id

let verdict b ~a ~b:bs =
  let better x y = if b.lower_is_better then x < y else x > y in
  let ma = Stats.median a and mb = Stats.median bs in
  let q1, q3 = Stats.quartiles a in
  let worse_by = (if b.lower_is_better then mb -. ma else ma -. mb) /. Float.abs ma in
  let pairs = min (Array.length a) (Array.length bs) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better bs.(i) a.(i) then incr wins
  done;
  let all_better =
    Array.for_all (fun y -> Array.for_all (fun x -> better y x) a) bs
  in
  let v =
    if worse_by > b.bound then "regressed"
    else if
      pairs > 0
      && float_of_int !wins >= 0.9 *. float_of_int pairs
      && better mb ma
      && Float.abs (mb -. ma) > q3 -. q1
    then "improved"
    else if (q3 -. q1) /. Float.abs ma > b.bound && not all_better then "unresolved"
    else "unchanged"
  in
  (v, !wins, pairs, worse_by)

let summary xs =
  let q1, q3 = Stats.quartiles xs in
  Printf.sprintf "%.4g [%.4g, %.4g] n=%d" (Stats.median xs) q1 q3 (Array.length xs)

(* Prints the table; returns whether any metric regressed. *)
let run ~benchmark ~baseline ~change =
  let bounds = bounds benchmark in
  let a = records baseline and b = records change in
  let workloads =
    List.fold_left (fun acc r -> if List.mem r.workload acc then acc else acc @ [ r.workload ]) [] a
  in
  let regressed = ref false in
  List.iter
    (fun w ->
      let of_w rs = List.filter (fun r -> r.workload = w) rs in
      let ra = of_w a and rb = of_w b in
      let err rs =
        let sum f = List.fold_left (fun s r -> s +. f r) 0.0 rs in
        sum (fun r -> r.failed) /. Float.max 1.0 (sum (fun r -> r.attempted))
      in
      Printf.printf "== %s  (error rate: A %.4g, B %.4g)\n" w (err ra) (err rb);
      if rb = [] then Printf.printf "  no B records\n"
      else
        List.iter
          (fun bd ->
            let vals rs =
              Array.of_list
                (List.filter_map (fun r -> List.assoc_opt bd.metric r.values) rs)
            in
            let xa = vals ra and xb = vals rb in
            if Array.length xa = 0 || Array.length xb = 0 then
              Printf.printf "  %-12s missing\n" bd.metric
            else begin
              let v, wins, pairs, worse_by = verdict bd ~a:xa ~b:xb in
              if v = "regressed" then regressed := true;
              Printf.printf "  %-12s A %s | B %s | worse by %+.1f%% (bound %.0f%%) | B wins %d/%d | %s\n"
                bd.metric (summary xa) (summary xb) (100.0 *. worse_by)
                (100.0 *. bd.bound) wins pairs v
            end)
          bounds)
    workloads;
  !regressed
