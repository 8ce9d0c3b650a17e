(* trace_check: validate a trace export (JSONL or CSV).

     trace_check [--require-manifest] FILE

   A FILE ending in .csv is a CSV export, anything else JSONL. Every
   line becomes a row that one validator checks against Obs.Event's
   schema: a known "ev"; a numeric "t" and "lane"; each payload field
   of that event with its type (floats may be null, an empty CSV
   cell), the "kind" of "harness" and "violation" events drawn from
   its known set; and timestamps non-decreasing within each lane (the
   exporter's determinism contract). A "run_start" event restarts its
   lane's clock; "harness" events are stamped outside any simulation
   clock and are exempt.

   CSV width and column positions come from the file's own header
   line, never hardcoded, so a file whose header widened still
   validates. In JSONL a line carrying a "manifest" key is a
   provenance header, validated by Obs.Manifest; --require-manifest
   demands one on the first non-empty line (the contract of
   Obs.Trace.to_jsonl).

   Exits 0 on success, 1 with a diagnostic when the file is unreadable
   or fails validation, 2 on a usage error. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let usage () =
  prerr_endline "usage: trace_check [--require-manifest] FILE";
  exit 2

(* A row as the validator reads it: a field's numeric value (nan for a
   JSON null or an empty cell) and its string value; [None] when the
   row has no such field of that type. *)
type row = { num : string -> float option; str : string -> string option }

let json_row v =
  let member k = Obs.Json.member k v in
  {
    num =
      (fun k ->
        match member k with Some Obs.Json.Null -> Some nan | j -> Option.bind j Obs.Json.num);
    str = (fun k -> Option.bind (member k) Obs.Json.str);
  }

let csv_row ~col cells =
  let cell k = Option.map (List.nth cells) (col (Obs.Event.csv_column k)) in
  {
    num =
      (fun k -> if cell k = Some "" then Some nan else Option.bind (cell k) float_of_string_opt);
    str = cell;
  }

let closed_sets =
  [
    (("harness", "kind"), List.map Obs.Event.Harness_kind.name Obs.Event.Harness_kind.all);
    (("violation", "kind"), Check.Spec.kind_names);
  ]

let last_t = Hashtbl.create 8
let events = ref 0

let validate ~at row =
  let ev = match row.str "ev" with Some ev -> ev | None -> fail "%s: missing \"ev\"" at in
  let fields =
    match List.assoc_opt ev Obs.Event.schema with
    | Some fields -> fields
    | None ->
      fail "%s: unknown event %S (known: %s)" at ev (String.concat ", " Obs.Event.all_names)
  in
  let num ?(null = false) key =
    match row.num key with
    | Some v when null || not (Float.is_nan v) -> v
    | _ -> fail "%s: %s event missing numeric %S" at ev key
  in
  let t = num "t" and lane = int_of_float (num "lane") in
  List.iter
    (fun (key, proto) ->
      match proto, row.str key, List.assoc_opt (ev, key) closed_sets with
      | Obs.Event.Int _, _, _ -> ignore (num key)
      | Obs.Event.Float _, _, _ -> ignore (num ~null:true key)
      | Obs.Event.Str _, None, _ -> fail "%s: %s event missing string %S" at ev key
      | Obs.Event.Str _, Some v, Some known when not (List.mem v known) ->
        fail "%s: %s event with unknown %s %S (known: %s)" at ev key v
          (String.concat ", " known)
      | Obs.Event.Str _, Some _, _ -> ())
    fields;
  if ev <> "run_start" && ev <> "harness" then
    (match Hashtbl.find_opt last_t lane with
    | Some prev when t < prev ->
      fail "%s: time went backwards in lane %d (%.9g < %.9g)" at lane t prev
    | _ -> ());
  if ev <> "harness" then Hashtbl.replace last_t lane t;
  incr events

let () =
  let require_manifest, file =
    match List.tl (Array.to_list Sys.argv) with
    | [ file ] -> (false, file)
    | [ "--require-manifest"; file ] | [ file; "--require-manifest" ] -> (true, file)
    | _ -> usage ()
  in
  if String.starts_with ~prefix:"-" file then usage ();
  let csv = Filename.check_suffix file ".csv" in
  if csv && require_manifest then
    fail "%s: --require-manifest applies to JSONL exports only" file;
  let ic = try open_in file with Sys_error e -> fail "cannot open: %s" e in
  let header =
    if not csv then None
    else
      match input_line ic with
      | h -> Some h
      | exception End_of_file -> fail "%s: empty CSV (no header row)" file
  in
  let width = Option.fold ~none:0 ~some:Obs.Event.csv_width_of_header header in
  let columns = Option.fold ~none:[] ~some:(String.split_on_char ',') header in
  let col name = List.find_index (String.equal name) columns in
  let manifests = ref 0 and first_is_manifest = ref false and nonempty = ref 0 in
  (* The row a line holds; [None] for a JSONL manifest header. *)
  let read ~at line =
    if csv then begin
      let cells = String.split_on_char ',' line in
      let n = List.length cells in
      if n <> width then fail "%s: %d column(s), header has %d" at n width;
      Some (csv_row ~col cells)
    end
    else
      match Obs.Json.parse line with
      | Error msg -> fail "%s: bad JSON: %s" at msg
      | Ok v when Obs.Json.member "manifest" v <> None -> (
        match Obs.Manifest.validate v with
        | Ok () ->
          incr manifests;
          if !nonempty = 1 then first_is_manifest := true;
          None
        | Error msg -> fail "%s: %s" at msg)
      | Ok v -> Some (json_row v)
  in
  let lineno = ref (if csv then 1 else 0) in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then begin
         incr nonempty;
         let at = Printf.sprintf "%s:%d" file !lineno in
         Option.iter (validate ~at) (read ~at line)
       end
     done
   with End_of_file -> ());
  close_in ic;
  if require_manifest && not !first_is_manifest then
    fail "%s: --require-manifest: first line is not a valid manifest header" file;
  Printf.printf "%s: %d events, %d lane(s), %s, timestamps non-decreasing\n" file !events
    (Hashtbl.length last_t)
    (if csv then Printf.sprintf "%d columns" width
     else Printf.sprintf "%d manifest(s)" !manifests)
