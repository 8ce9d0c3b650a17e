(* Supervised execution: crash isolation, deterministic deadlines and
   bounded retries for harness work.

   [protect ~context f] runs [f] and turns any exception into a
   structured {!failure} value instead of letting it unwind the caller
   — one crashing experiment must not abort a registry run, and its
   siblings' reports must stay byte-identical to a run without it.

   Deadlines are counted in logical units via [Netsim.Budget] (sim
   events / train steps), never wall clock, so expiry is
   bit-reproducible at any pool size. An optional [?wall_s] ceiling
   exists as a CI backstop; it is recorded in the failure but excluded
   from {!digest}, the determinism digest, because its expiry point is
   inherently nondeterministic.

   Retries derive their (recorded, never slept) backoff schedule from
   [Rng.split_key] on the supervision seed, so a retried run is
   bit-reproducible: same seed -> same schedule -> same report. *)

type kind =
  | Crash  (* the protected thunk raised *)
  | Deadline of { spent : int; budget : int }  (* logical budget exhausted *)
  | Wall of { budget_s : float }  (* wall-clock backstop fired (CI only) *)
  | Invariant of { spec : string; index : int; count : int }
    (* the online invariant checker recorded violations (lib/check):
       [spec] and [index] identify the first, [count] the total *)
  | Corrupt of { path : string; fault : string }
    (* a host fault surfaced: an injected I/O fault ([fault] names the
       class — torn/enospc/eio) or a checkpoint cell that failed
       verification. [path] is host-chosen, so it is excluded from
       {!digest}. *)

type failure = {
  context : string;  (* supervision context, e.g. the experiment id *)
  exn : string;  (* Printexc rendering of the final exception *)
  backtrace : string;  (* digest prefix of the raise-site backtrace, or "none" *)
  attempts : int;  (* total attempts made (1 + retries used) *)
  backoffs : float list;  (* recorded backoff schedule, seconds, oldest first *)
  kind : kind;
  flight : (string * int) option;
    (* flight-recorder dump written when the final attempt failed:
       (path, events held). The dump path derives from [context] and
       the ring contents from the lane's events, so it is byte-stable
       across pool sizes — but it is excluded from [digest] because
       the *directory* is host-chosen. *)
}

(* The harness-event kind a failure is recorded under. *)
let event_kind = function
  | Crash -> Obs.Event.Harness_kind.Failure
  | Deadline _ | Wall _ -> Obs.Event.Harness_kind.Deadline
  | Invariant _ -> Obs.Event.Harness_kind.Violation
  | Corrupt _ -> Obs.Event.Harness_kind.Corrupt

let kind_name k = Obs.Event.Harness_kind.name (event_kind k)

(* The raw backtrace string embeds build paths and line numbers that
   shift with unrelated edits; a short digest keeps failure reports
   stable enough to compare across runs while still fingerprinting the
   raise site. *)
let backtrace_digest bt =
  let s = Printexc.raw_backtrace_to_string bt in
  if String.trim s = "" then "none"
  else String.sub (Digest.to_hex (Digest.string s)) 0 16

(* Deterministic digest of a failure: everything except the wall-clock
   backstop's parameters (its expiry point is host-dependent, so two
   runs killed by the wall may legitimately differ — they must not be
   compared byte-for-byte). *)
let digest f =
  let kind_part =
    match f.kind with
    | Crash -> "crash:" ^ f.exn
    | Deadline { spent; budget } -> Printf.sprintf "deadline:%d/%d" spent budget
    | Wall _ -> "wall"
    | Invariant { spec; index; count } ->
      Printf.sprintf "violation:%s@%d:%d" spec index count
    | Corrupt { fault; _ } -> "corrupt:" ^ fault
  in
  let parts =
    [
      f.context;
      kind_part;
      string_of_int f.attempts;
      String.concat "," (List.map (Printf.sprintf "%.6f") f.backoffs);
    ]
  in
  String.sub (Digest.to_hex (Digest.string (String.concat "\x00" parts))) 0 16

(* Render a failure as report lines, deterministic modulo the exception
   text itself. *)
let render f =
  let describe =
    match f.kind with
    | Crash -> Printf.sprintf "exception: %s" f.exn
    | Deadline { spent; budget } ->
      Printf.sprintf "deadline: budget %d exhausted (%d events)" budget spent
    | Wall { budget_s } ->
      (* Wall kills are a CI backstop: recorded, but nondeterministic,
         so the budget value is stated without the host-dependent spend. *)
      Printf.sprintf "wall-clock backstop: exceeded %gs" budget_s
    | Invariant { spec; index; count } ->
      Printf.sprintf "invariant violated: %s at event index %d (%d violation(s))"
        spec index count
    | Corrupt { path; fault } ->
      (* [exn] carries the detail — for a verify failure, the byte
         position and cause; for an injected fault, its rendering. *)
      Printf.sprintf "host fault: %s at %s: %s" fault path f.exn
  in
  [
    describe;
    Printf.sprintf "backtrace: %s" f.backtrace;
    Printf.sprintf "attempts:  %d%s" f.attempts
      (match f.backoffs with
      | [] -> ""
      | bs ->
        Printf.sprintf " (backoff %s)"
          (String.concat ", " (List.map (Printf.sprintf "%.3fs") bs)));
    Printf.sprintf "digest:    %s" (digest f);
  ]
  @
  match f.flight with
  | None -> []
  | Some (path, n) -> [ Printf.sprintf "flight:    %s (%d event(s))" path n ]

let emit_event ~kind ~context ~detail ~attempt ~value =
  if Obs.Trace.on Obs.Category.Harness then
    Obs.Trace.emit
      (Obs.Event.Harness { t = 0.0; kind; id = context; detail; attempt; value })

(* Recorded exponential backoff with keyed jitter: attempt [i] (1-based)
   waits 0.1 * 2^(i-1) * (0.5 + u) seconds, u drawn from the split_key
   child stream for key [i] — independent of any other randomness, so
   the schedule depends on (seed, attempt) alone. Nothing sleeps in
   simulation; the schedule is recorded for the report and CI logs. *)
let backoff_for ~seed ~attempt =
  let parent = Netsim.Rng.create seed in
  let child = Netsim.Rng.split_key parent ~key:attempt in
  0.1 *. Float.of_int (1 lsl (attempt - 1)) *. (0.5 +. Netsim.Rng.float child)

let protect ?(retries = 0) ?deadline_events ?wall_s ?(seed = 0) ~context f =
  if retries < 0 then invalid_arg "Supervisor.protect: retries < 0";
  let rec attempt i backoffs =
    match
      Netsim.Budget.with_budget ?events:deadline_events ?wall_s (fun () ->
          f ~attempt:i)
    with
    | v -> Ok v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      let kind =
        match e with
        | Netsim.Budget.Exceeded { spent; budget } -> Deadline { spent; budget }
        | Netsim.Budget.Wall_exceeded { budget_s } -> Wall { budget_s }
        | Check.Checker.Violation_error { spec; index; count; _ } ->
          Invariant { spec; index; count }
        | Chaos.Io.Fault { fault; path; _ } -> Corrupt { path; fault }
        | _ -> Crash
      in
      let exn_s = Printexc.to_string e in
      if i <= retries then begin
        let b = backoff_for ~seed ~attempt:i in
        emit_event ~kind:Retry ~context ~detail:exn_s ~attempt:i ~value:b;
        attempt (i + 1) (b :: backoffs)
      end
      else begin
        (* Final failure: dump the flight ring (if one is installed) so
           the report points at the surrounding events. *)
        let flight = Obs.Flight.dump ~reason:context () in
        let fl =
          {
            context;
            exn = exn_s;
            backtrace = backtrace_digest bt;
            attempts = i;
            backoffs = List.rev backoffs;
            kind;
            flight;
          }
        in
        emit_event ~kind:(event_kind fl.kind) ~context ~detail:exn_s ~attempt:i
          ~value:
            (match fl.kind with
            | Deadline d -> float_of_int d.budget
            | Invariant v -> float_of_int v.count
            | Crash | Wall _ | Corrupt _ -> 0.0);
        Error fl
      end
  in
  attempt 1 []
