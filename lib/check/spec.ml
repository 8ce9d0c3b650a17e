(* The invariant-spec grammar: a small LTL-flavoured predicate DSL over
   the Obs event stream, parsed from `--invariant SPEC` strings (or
   lines of a spec file) into an AST that lib/check/checker.ml compiles
   to online state machines.

   Grammar (one spec per line; '#' starts a comment):

     NAME: always COND
     NAME: never COND
     NAME: after COND eventually COND within N events|N s|N rtt
     NAME: after COND until COND expect COND

   COND is a conjunction of '&'-separated atomic clauses:

     ev=EVENT          event-name selector (enqueue, ack, fault, ...)
     FIELD OP NUMBER   numeric predicate; OP in < <= > >= = !=
     FIELD=STRING      string equality (FIELD!=STRING for inequality)
     cycle_argmax      builtin: a non-skip Libra cycle chose an arm of
                       maximal utility (see checker.ml)

   FIELD must be "t" or a payload field of some event (Obs.Event's
   schema), compared as a number only if some event carries it as one
   and as a string only if some event carries it as a string; anything
   else is a parse error naming the known fields. Semantics are
   three-valued per clause (true / false / inapplicable): an `ev=`
   mismatch, or a field missing from (or non-finite in) the event at
   hand, makes the clause — and the whole conjunction — inapplicable,
   so `always ev=enqueue & backlog<=B` quantifies only over enqueue
   events. Window units: `events` counts checked events, `s` is
   simulation seconds, `rtt` multiplies the checker's configured base
   RTT. *)

type cmp = Lt | Le | Gt | Ge | Eq | Ne

type clause =
  | Ev of string  (* event-name selector *)
  | Num of { field : string; op : cmp; value : float }
  | Str of { field : string; negated : bool; value : string }
  | Cycle_argmax  (* builtin: chosen arm has maximal finite utility *)

(* A conjunction: every clause must hold; any inapplicable clause makes
   the conjunction inapplicable for this event. *)
type cond = clause list

type window_unit = Events | Seconds | Rtts
type window = { n : float; unit_ : window_unit }

type formula =
  | Always of cond
  | Never of cond
  | Leads_to of { trigger : cond; goal : cond; within : window }
  | After_until of { trigger : cond; release : cond; expect : cond }

type t = { name : string; formula : formula }

(* The kind string recorded on Violation events and in supervisor
   failure reports. *)
let kind_name = function
  | Always _ -> "always"
  | Never _ -> "never"
  | Leads_to _ -> "leads_to"
  | After_until _ -> "after_until"

let kind_names = [ "always"; "never"; "leads_to"; "after_until" ]

(* ---- printing (canonical form; parse . to_string = id) ---- *)

(* Shortest decimal rendering that round-trips through the parser. *)
let float_str v =
  let s = Printf.sprintf "%.12g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let cmp_str = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "="
  | Ne -> "!="

let clause_to_string = function
  | Ev name -> "ev=" ^ name
  | Num { field; op; value } -> field ^ cmp_str op ^ float_str value
  | Str { field; negated; value } -> field ^ (if negated then "!=" else "=") ^ value
  | Cycle_argmax -> "cycle_argmax"

let cond_to_string cond = String.concat " & " (List.map clause_to_string cond)

let window_to_string { n; unit_ } =
  let u = match unit_ with Events -> "events" | Seconds -> "s" | Rtts -> "rtt" in
  float_str n ^ " " ^ u

let to_string { name; formula } =
  let body =
    match formula with
    | Always c -> "always " ^ cond_to_string c
    | Never c -> "never " ^ cond_to_string c
    | Leads_to { trigger; goal; within } ->
      Printf.sprintf "after %s eventually %s within %s" (cond_to_string trigger)
        (cond_to_string goal) (window_to_string within)
    | After_until { trigger; release; expect } ->
      Printf.sprintf "after %s until %s expect %s" (cond_to_string trigger)
        (cond_to_string release) (cond_to_string expect)
  in
  name ^ ": " ^ body

(* ---- parsing ---- *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let is_float s =
  match float_of_string_opt s with
  | Some v -> Float.is_finite v
  | None -> false

(* Split "lhs OP rhs" on the first operator occurrence, longest
   operators first so "<=" is not read as "<" followed by "=". *)
let split_op s =
  let ops = [ "<="; ">="; "!="; "<"; ">"; "=" ] in
  let best = ref None in
  List.iter
    (fun op ->
      let ol = String.length op in
      let rec scan i =
        if i + ol <= String.length s then
          if String.sub s i ol = op then
            match !best with
            | Some (j, oj) when j < i || (j = i && String.length oj >= ol) -> ()
            | _ -> best := Some (i, op)
          else scan (i + 1)
      in
      scan 0)
    ops;
  match !best with
  | None -> None
  | Some (i, op) ->
    let lhs = String.sub s 0 i in
    let rhs = String.sub s (i + String.length op) (String.length s - i - String.length op) in
    Some (String.trim lhs, op, String.trim rhs)

(* Every (field, value) pair the event schema declares, plus the
   timestamp every event carries. *)
let schema_fields = ("t", Obs.Event.Float 0.0) :: List.concat_map snd Obs.Event.schema

let known_fields = List.sort_uniq compare (List.map fst schema_fields)

let check_field tok field ~numeric =
  if not (List.mem field known_fields) then
    fail "clause %S: unknown field %S (known: %s)" tok field
      (String.concat ", " known_fields);
  let is_string = function Obs.Event.Str _ -> true | _ -> false in
  if not (List.exists (fun (k, v) -> k = field && is_string v <> numeric) schema_fields) then
    fail "clause %S: field %S is never %s" tok field
      (if numeric then "a number" else "a string")

let parse_clause tok =
  let tok = String.trim tok in
  if tok = "" then fail "empty clause"
  else if tok = "cycle_argmax" then Cycle_argmax
  else
    match split_op tok with
    | None -> fail "clause %S: expected FIELD OP VALUE, ev=NAME, or cycle_argmax" tok
    | Some (field, op, value) ->
      if field = "" then fail "clause %S: missing field name" tok
      else if value = "" then fail "clause %S: missing value" tok
      else if field = "ev" then begin
        if op <> "=" then fail "clause %S: the ev selector only supports '='" tok;
        if not (List.mem value Obs.Event.all_names) then
          fail "clause %S: unknown event name %S (known: %s)" tok value
            (String.concat ", " Obs.Event.all_names);
        Ev value
      end
      else if is_float value then begin
        check_field tok field ~numeric:true;
        let op =
          match op with
          | "<" -> Lt
          | "<=" -> Le
          | ">" -> Gt
          | ">=" -> Ge
          | "=" -> Eq
          | "!=" -> Ne
          | _ -> assert false
        in
        Num { field; op; value = float_of_string value }
      end
      else begin
        if op <> "=" && op <> "!=" then
          fail "clause %S: ordered comparison against non-numeric value %S" tok value;
        check_field tok field ~numeric:false;
        Str { field; negated = op = "!="; value }
      end

let parse_cond s =
  let s = String.trim s in
  if s = "" then fail "empty condition";
  String.split_on_char '&' s |> List.map parse_clause

let parse_window ~num ~unit_tok =
  if not (is_float num) then fail "window %S: expected a number" num;
  let n = float_of_string num in
  if n <= 0.0 then fail "window %S: must be positive" num;
  let unit_ =
    match unit_tok with
    | "events" | "event" -> Events
    | "s" | "sec" | "seconds" -> Seconds
    | "rtt" | "rtts" -> Rtts
    | u -> fail "unknown window unit %S (expected events, s, or rtt)" u
  in
  { n; unit_ }

(* Find keyword [kw] as a whitespace-delimited word in [s]; return the
   text before and after. *)
let split_keyword s kw =
  let toks = String.split_on_char ' ' s in
  let rec go before = function
    | [] -> None
    | tok :: rest when String.trim tok = kw ->
      Some (String.concat " " (List.rev before), String.concat " " rest)
    | tok :: rest -> go (tok :: before) rest
  in
  go [] toks

let parse line =
  let line = String.trim line in
  match String.index_opt line ':' with
  | None -> fail "spec %S: expected \"NAME: FORMULA\"" line
  | Some i ->
    let name = String.trim (String.sub line 0 i) in
    let body = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
    if name = "" then fail "spec %S: empty name" line;
    String.iter
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> ()
        | c -> fail "spec name %S: invalid character %C" name c)
      name;
    let formula =
      match String.index_opt body ' ' with
      | None -> fail "spec %S: missing formula body" name
      | Some j -> (
        let kw = String.sub body 0 j in
        let rest = String.trim (String.sub body j (String.length body - j)) in
        match kw with
        | "always" -> Always (parse_cond rest)
        | "never" -> Never (parse_cond rest)
        | "after" -> (
          match split_keyword rest "eventually" with
          | Some (trigger, tail) -> (
            match split_keyword tail "within" with
            | None -> fail "spec %S: \"after .. eventually ..\" needs \"within N UNIT\"" name
            | Some (goal, window) -> (
              match
                String.split_on_char ' ' window
                |> List.filter (fun t -> String.trim t <> "")
              with
              | [ num; unit_tok ] ->
                Leads_to
                  {
                    trigger = parse_cond trigger;
                    goal = parse_cond goal;
                    within = parse_window ~num ~unit_tok;
                  }
              | _ -> fail "spec %S: window must be \"N events\", \"N s\", or \"N rtt\"" name))
          | None -> (
            match split_keyword rest "until" with
            | None -> fail "spec %S: \"after ..\" needs \"eventually\" or \"until\"" name
            | Some (trigger, tail) -> (
              match split_keyword tail "expect" with
              | None -> fail "spec %S: \"after .. until ..\" needs \"expect COND\"" name
              | Some (release, expect) ->
                After_until
                  {
                    trigger = parse_cond trigger;
                    release = parse_cond release;
                    expect = parse_cond expect;
                  })))
        | kw -> fail "spec %S: unknown combinator %S (always, never, after)" name kw)
    in
    { name; formula }

(* Parse the lines of a spec file: blank lines and '#' comments are
   skipped. *)
let parse_lines lines =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then None else Some (parse line))
    lines

(* ---- category needs ---- *)

let cond_event_names cond =
  List.filter_map (function Ev n -> Some n | _ -> None) cond

let formula_conds = function
  | Always c | Never c -> [ c ]
  | Leads_to { trigger; goal; _ } -> [ trigger; goal ]
  | After_until { trigger; release; expect } -> [ trigger; release; expect ]

(* The trace categories a spec needs subscribed to be evaluated
   faithfully. [None] means "all": some condition has no `ev=` selector
   and can in principle match any event. *)
let categories spec =
  let conds = formula_conds spec.formula in
  let per_cond =
    List.map
      (fun cond ->
        match cond_event_names cond with
        | [] -> if List.mem Cycle_argmax cond then Some [ "cycle" ] else None
        | names -> Some names)
      conds
  in
  if List.exists (fun x -> x = None) per_cond then None
  else
    let names = List.concat_map Option.get per_cond in
    Some (List.sort_uniq compare (List.filter_map Obs.Event.category_of_name names))

(* Union of category needs across a spec list: [None] = all. *)
let categories_of_pack specs =
  List.fold_left
    (fun acc spec ->
      match acc, categories spec with
      | None, _ | _, None -> None
      | Some a, Some b -> Some (List.sort_uniq compare (a @ b)))
    (Some []) specs

(* ---- the default invariant pack ---- *)

(* Behavioural contracts that every clean run of the stack must
   satisfy. [buffer_bytes] (when known) bounds queue occupancy by the
   configured buffer; the flap-recovery window is expressed in RTTs and
   scaled by the checker's base RTT at evaluation time. *)
let default_pack ?buffer_bytes () =
  let specs =
    [
      "queue-nonneg: always backlog>=0";
      "mi-wellformed: always ev=mi_snapshot & duration>=0 & loss_rate>=0 & loss_rate<=1";
      "ack-rtt-positive: always ev=ack & rtt>0";
      "flap-recovery: after ev=fault & kind=link_up eventually ev=ack within 100 rtt";
      "cycle-argmax: always ev=cycle & cycle_argmax";
    ]
  in
  let specs =
    match buffer_bytes with
    | Some b when b > 0 ->
      Printf.sprintf "queue-bound: always backlog<=%d" b :: specs
    | _ -> specs
  in
  List.map parse specs

let default_pack_names = [
  "queue-bound"; "queue-nonneg"; "mi-wellformed"; "ack-rtt-positive";
  "flap-recovery"; "cycle-argmax";
]
