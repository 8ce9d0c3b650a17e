(* Perf-regression analysis over the bench trajectory.

   `bench` appends one compact JSON line per invocation to
   BENCH_history.jsonl:
   { "manifest": {...}, "scale": "quick", "domains": 1,
     "subset": "all" | [targets...],
     "experiments": { name: wall seconds, ... },
     "logical": { name: deterministic value (count, logical rate), ... },
     "total_wall_s": sum of "experiments",
     "spans": { experiment: [span trees...], ... } | null }

   Older entries hold the events-per-sec logical rate under
   "experiments"; parsing reclassifies it (see [reclassify]).

   This module parses that file, picks comparison baselines, computes
   per-metric deltas, applies the regression gate, and renders the
   tables `bin/perf_report` prints. It also renders span-profile
   rollups (from history entries or `experiments --profile` files) and
   computes the span attribution fraction — the share of an
   experiment's wall time covered by named top-level spans. *)

type entry = { index : int; json : Json.t }

(* ---- accessors ---- *)

let str_member key e = Option.bind (Json.member key e.json) Json.str
let scale e = Option.value ~default:"unknown" (str_member "scale" e)

let subset e =
  match Json.member "subset" e.json with
  | Some (Json.List items) -> String.concat "," (List.filter_map Json.str items)
  | Some (Json.Str s) -> s
  | _ -> "all"

let git_describe e =
  match Option.bind (Json.member "manifest" e.json) (Json.member "git_describe") with
  | Some (Json.Str s) -> s
  | _ -> "unknown"

let num_map key e =
  match Json.member key e.json with
  | Some (Json.Obj kvs) -> List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.num v)) kvs
  | _ -> []

(* (name, wall seconds) and (name, deterministic value), in file order. *)
let experiments = num_map "experiments"
let logical = num_map "logical"

(* Every metric of [e] by name, with whether it is logical. *)
let metrics e =
  List.map (fun (k, v) -> (k, (false, v))) (experiments e)
  @ List.map (fun (k, v) -> (k, (true, v))) (logical e)

let nums kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) kvs)

(* A name any entry holds under "logical" is logical in every entry, so
   rows written before the map existed pair with new ones by name and
   their logical rate never counts as wall time. *)
let reclassify entries =
  let names = List.concat_map (fun e -> List.map fst (logical e)) entries in
  List.map
    (fun e ->
      match List.partition (fun (k, _) -> List.mem k names) (experiments e) with
      | [], _ -> e
      | moved, walls ->
        let json = Json.set_member "experiments" (nums walls) e.json in
        { e with json = Json.set_member "logical" (nums (logical e @ moved)) json })
    entries

(* ---- parsing ---- *)

let parse_history text =
  let lines = String.split_on_char '\n' text in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" then go i acc rest
      else (
        match Json.parse trimmed with
        | Ok json -> go (i + 1) ({ index = i; json } :: acc) rest
        | Error e -> Error (Printf.sprintf "history entry %d: %s" i e))
  in
  Result.map reclassify (go 0 [] lines)

let load_history path =
  match Chaos.Io.read_file path with
  | Some text -> parse_history text
  | None -> Error (Printf.sprintf "no history file %s" path)

(* Span trees per group, if the entry recorded spans. *)
let spans e =
  match Json.member "spans" e.json with
  | Some (Json.Obj kvs) -> kvs
  | _ -> []

(* ---- comparison and gate ---- *)

type delta = { group : string; logical : bool; base : float; cand : float; pct : float }

let compare_entries ~baseline ~candidate =
  let base_metrics = metrics baseline in
  List.filter_map
    (fun (group, (logical, cand)) ->
      match List.assoc_opt group base_metrics with
      | None -> None
      | Some (_, base) ->
        let pct = if base > 0.0 then (cand -. base) /. base *. 100.0 else 0.0 in
        Some { group; logical; base; cand; pct })
    (metrics candidate)

(* (base, candidate) wall seconds summed over the compared wall metrics;
   logical values never enter a wall total. *)
let wall_totals deltas =
  List.fold_left
    (fun (b, c) d -> if d.logical then (b, c) else (b +. d.base, c +. d.cand))
    (0.0, 0.0) deltas

let regressions ~threshold_pct deltas = List.filter (fun d -> d.pct > threshold_pct) deltas

(* The baseline for [candidate]: the latest earlier entry with the same
   scale and at least one metric in common. Comparing across scales
   (quick vs full) or disjoint subsets would gate on noise. *)
let find_baseline entries ~candidate =
  let earlier =
    List.filter
      (fun e ->
        e.index < candidate.index
        && scale e = scale candidate
        && List.exists (fun (g, _) -> List.mem_assoc g (metrics e)) (metrics candidate))
      entries
  in
  match List.rev earlier with [] -> None | e :: _ -> Some e

(* ---- span rollups ---- *)

let node_num key node = Option.value ~default:0.0 (Option.bind (Json.member key node) Json.num)
let node_name node = Option.value ~default:"?" (Option.bind (Json.member "name" node) Json.str)

let node_children node =
  match Json.member "children" node with Some (Json.List kids) -> kids | _ -> []

(* Share of [wall] seconds covered by the top-level named spans. *)
let attributed_fraction ~spans ~wall =
  match spans with
  | Json.List roots when wall > 0.0 ->
    let covered = List.fold_left (fun a n -> a +. node_num "total_s" n) 0.0 roots in
    covered /. wall
  | _ -> 0.0

(* Indented rollup of one group's span trees. *)
let render_span_trees b spans =
  let rec walk indent node =
    Buffer.add_string b
      (Printf.sprintf "    %-42s %10.0f %12.6f %12.6f\n"
         (String.make indent ' ' ^ node_name node)
         (node_num "count" node) (node_num "total_s" node) (node_num "self_s" node));
    List.iter (walk (indent + 2)) (node_children node)
  in
  match spans with
  | Json.List roots ->
    if roots = [] then Buffer.add_string b "    (no spans recorded)\n"
    else begin
      Buffer.add_string b
        (Printf.sprintf "    %-42s %10s %12s %12s\n" "span" "count" "total_s" "self_s");
      List.iter (walk 0) roots
    end
  | _ -> Buffer.add_string b "    (no spans recorded)\n"

(* ---- rendering ---- *)

(* Wall values carry their unit; logical values are bare numbers. *)
let render_value ~logical v =
  if not logical then Printf.sprintf "%.3fs" v
  else if Float.is_integer v then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

let describe_entry e =
  Printf.sprintf "#%d %s scale=%s subset=%s" e.index (git_describe e) (scale e) (subset e)

let render_entry e =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "entry %s\n" (describe_entry e));
  let sp = spans e in
  Buffer.add_string b (Printf.sprintf "  %-28s %12s %12s\n" "metric" "value" "attributed");
  List.iter
    (fun (group, (logical, v)) ->
      let attributed =
        match List.assoc_opt group sp with
        | Some trees when v > 0.0 && not logical ->
          Printf.sprintf "%5.1f%%" (100.0 *. attributed_fraction ~spans:trees ~wall:v)
        | _ -> "-"
      in
      Buffer.add_string b
        (Printf.sprintf "  %-28s %12s %12s\n" group (render_value ~logical v) attributed))
    (metrics e);
  if experiments e <> [] then
    Buffer.add_string b
      (Printf.sprintf "  %-28s %12s\n" "total wall"
         (render_value ~logical:false
            (List.fold_left (fun a (_, s) -> a +. s) 0.0 (experiments e))));
  List.iter
    (fun (group, trees) ->
      Buffer.add_string b (Printf.sprintf "  spans: %s\n" group);
      render_span_trees b trees)
    sp;
  Buffer.contents b

let render_comparison ~baseline ~candidate deltas =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "baseline  %s\n" (describe_entry baseline));
  Buffer.add_string b (Printf.sprintf "candidate %s\n" (describe_entry candidate));
  let row name ~logical base cand pct =
    Buffer.add_string b
      (Printf.sprintf "  %-28s %12s %12s %+8.1f%%\n" name (render_value ~logical base)
         (render_value ~logical cand) pct)
  in
  Buffer.add_string b
    (Printf.sprintf "  %-28s %12s %12s %9s\n" "metric" "base" "cand" "delta");
  List.iter (fun d -> row d.group ~logical:d.logical d.base d.cand d.pct) deltas;
  let bt, ct = wall_totals deltas in
  if bt > 0.0 then row "total wall" ~logical:false bt ct ((ct -. bt) /. bt *. 100.0);
  Buffer.contents b

(* ---- trend: quantiles of each experiment's wall time across the
   whole history (exercises Metrics.quantile, including its empty and
   single-sample edge cases for experiments present in few entries) ---- *)

let trend_bounds =
  (* log-spaced 1 ms .. ~17 min *)
  Array.init 21 (fun i -> 0.001 *. (2.0 ** float_of_int i))

let trend_probe = Metrics.histogram "perf.trend_wall_s" ~bounds:trend_bounds

let trend entries =
  let groups =
    List.fold_left
      (fun acc e ->
        List.fold_left
          (fun acc (g, _) -> if List.mem g acc then acc else acc @ [ g ])
          acc (experiments e))
      [] entries
  in
  List.map
    (fun g ->
      let samples = List.filter_map (fun e -> List.assoc_opt g (experiments e)) entries in
      let reg = Metrics.create_registry () in
      Metrics.run reg (fun () -> List.iter (Metrics.observe trend_probe) samples);
      ( g,
        List.length samples,
        Metrics.quantile reg trend_probe 0.5,
        Metrics.quantile reg trend_probe 0.9 ))
    groups

let render_trend entries =
  let b = Buffer.create 1024 in
  let fq = function Some v -> Printf.sprintf "%10.3f" v | None -> Printf.sprintf "%10s" "-" in
  Buffer.add_string b
    (Printf.sprintf "  %-28s %5s %10s %10s\n" "experiment" "n" "p50_s" "p90_s");
  List.iter
    (fun (g, n, p50, p90) ->
      Buffer.add_string b (Printf.sprintf "  %-28s %5d %s %s\n" g n (fq p50) (fq p90)))
    (trend entries);
  Buffer.contents b
