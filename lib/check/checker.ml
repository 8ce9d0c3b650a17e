(* Online evaluation of invariant specs over the Obs event stream.

   A checker compiles a spec list into one small mutable state machine
   per spec and consumes events as they are emitted — installed as a
   [Trace.run ~observer], it runs at simulation speed with no second
   pass over the trace. Per event the work is one field list (the
   event's [Obs.Event.fields], shared by every machine) and a verdict
   per machine, so the enabled cost stays within noise of
   tracing alone (the `bench invariant-overhead` lane measures this).

   Clause semantics are three-valued (True / False / Inapplicable): an
   `ev=` mismatch or a missing / non-finite field makes the whole
   conjunction inapplicable, so universal specs quantify only over the
   events they describe. [Run_start] resets every machine: obligations
   do not leak across run boundaries, and a pending `eventually` at the
   end of a run is *not* a violation (weak/finite-trace semantics).

   Violations are recorded in order; the first few per spec are also
   re-emitted into the trace as [Violation] events (category
   [Invariant], structural, never filtered) so exported traces carry
   their own verdicts. [Runtime.assert_clean] raises [Violation_error]
   from inside supervised execution, which the PR 5 supervisor renders
   as a structured failure naming the predicate and event index. *)

type violation = {
  spec : string;
  kind : string;
  index : int;  (* 0-based index of the offending event in this checker's stream *)
  time : float;  (* sim time of the offending event *)
  detail : string;
}

exception
  Violation_error of { spec : string; kind : string; index : int; count : int }

let () =
  Printexc.register_printer (function
    | Violation_error { spec; kind; index; count } ->
      Some
        (Printf.sprintf
           "invariant violated: %s (%s) at event index %d (%d violation(s) total)"
           spec kind index count)
    | _ -> None)

type machine = {
  spec : Spec.t;
  kind : string;
  mutable armed : bool;
  mutable armed_index : int;
  mutable armed_time : float;
  mutable emitted : int;  (* Violation trace events emitted for this spec *)
}

type t = {
  machines : machine array;
  rtt : float;  (* base RTT in seconds, scales `within N rtt` windows *)
  mutable index : int;  (* events seen *)
  mutable total : int;  (* violations recorded *)
  mutable violations_rev : violation list;
  mutable flight : (string * int) option;
    (* flight-recorder dump written at the first violation: (path,
       events held) — the ring holds the events *leading up to* the
       violation, which the post-hoc report cannot reconstruct *)
}

(* Cap on recorded violations per checker and on Violation events
   re-emitted into the trace per spec: a broken invariant on a hot
   event category would otherwise flood the trace with millions of
   verdicts. The totals keep counting past the cap. *)
let max_recorded = 1024
let max_emitted_per_spec = 8

let create ?(rtt = 0.03) specs =
  {
    machines =
      Array.of_list
        (List.map
           (fun spec ->
             {
               spec;
               kind = Spec.kind_name spec.Spec.formula;
               armed = false;
               armed_index = 0;
               armed_time = 0.0;
               emitted = 0;
             })
           specs);
    rtt;
    index = 0;
    total = 0;
    violations_rev = [];
    flight = None;
  }

let specs t = Array.to_list (Array.map (fun m -> m.spec) t.machines)
let events_seen t = t.index
let total t = t.total
let violations t = List.rev t.violations_rev

let first t =
  match List.rev t.violations_rev with [] -> None | v :: _ -> Some v

(* ---- clause evaluation ---- *)

type verdict = True | False | NA

let num_verdict op (v : float) (x : float) =
  if Float.is_nan v then NA
  else
    let holds =
      match op with
      | Spec.Lt -> v < x
      | Spec.Le -> v <= x
      | Spec.Gt -> v > x
      | Spec.Ge -> v >= x
      | Spec.Eq -> v = x
      | Spec.Ne -> v <> x
    in
    if holds then True else False

(* Builtin: a non-skip Libra cycle chose an arm whose utility is within
   [eps] of the maximum *finite* candidate utility. Skip cycles and
   cycles whose chosen utility is non-finite (e.g. the RL arm shadowed
   by quarantine) are inapplicable. *)
let cycle_argmax_verdict ev =
  match ev with
  | Obs.Event.Cycle { chosen; u_prev; u_rl; u_cl; _ } ->
    if chosen = "skip" then NA
    else
      let chosen_u =
        match chosen with
        | "prev" -> u_prev
        | "rl" -> u_rl
        | "cl" -> u_cl
        | _ -> Float.nan
      in
      if not (Float.is_finite chosen_u) then NA
      else
        let best =
          List.fold_left
            (fun acc u -> if Float.is_finite u && u > acc then u else acc)
            Float.neg_infinity [ u_prev; u_rl; u_cl ]
        in
        if chosen_u >= best -. 1e-9 then True else False
  | _ -> NA

let clause_verdict ev fields clause =
  match clause with
  | Spec.Ev name -> if Obs.Event.name ev = name then True else NA
  | Spec.Num { field; op; value } -> (
    match Obs.Event.num_field ev fields field with
    | None -> NA
    | Some v -> num_verdict op v value)
  | Spec.Str { field; negated; value } -> (
    match Obs.Event.str_field fields field with
    | None -> NA
    | Some s ->
      let eq = String.equal s value in
      if (if negated then not eq else eq) then True else False)
  | Spec.Cycle_argmax -> cycle_argmax_verdict ev

(* Conjunction: inapplicable dominates (the event is outside the spec's
   domain), then any False wins, else True. *)
let rec cond_verdict ev fields = function
  | [] -> True
  | clause :: rest -> (
    match clause_verdict ev fields clause with
    | NA -> NA
    | False ->
      (* still NA if a later selector is inapplicable: `ev=enqueue &
         backlog<0` must not fire on events that aren't enqueues *)
      if List.exists (fun c -> clause_verdict ev fields c = NA) rest then NA else False
    | True -> cond_verdict ev fields rest)

(* ---- the per-event step ---- *)

let flight t = t.flight

let record t m ~index ~time ~detail =
  t.total <- t.total + 1;
  (* First violation on this checker: capture the flight ring — the
     events leading up to the offence — before it rolls past. *)
  if t.total = 1 then
    t.flight <- Obs.Flight.dump ~reason:("violation-" ^ m.spec.Spec.name) ();
  if t.total <= max_recorded then
    t.violations_rev <-
      { spec = m.spec.Spec.name; kind = m.kind; index; time; detail }
      :: t.violations_rev;
  if m.emitted < max_emitted_per_spec then begin
    m.emitted <- m.emitted + 1;
    Obs.Trace.emit
      (Obs.Event.Violation
         { t = time; name = m.spec.Spec.name; kind = m.kind; index; detail })
  end

let window_expired t m (within : Spec.window) ~index ~time =
  match within.unit_ with
  | Spec.Events -> float_of_int (index - m.armed_index) > within.n
  | Spec.Seconds -> time -. m.armed_time > within.n
  | Spec.Rtts -> time -. m.armed_time > within.n *. t.rtt

let step t m ev fields ~index ~time =
  match m.spec.Spec.formula with
  | Spec.Always cond ->
    if cond_verdict ev fields cond = False then
      record t m ~index ~time ~detail:("failed: " ^ Spec.cond_to_string cond)
  | Spec.Never cond ->
    if cond_verdict ev fields cond = True then
      record t m ~index ~time ~detail:("matched: " ^ Spec.cond_to_string cond)
  | Spec.Leads_to { trigger; goal; within } ->
    if m.armed then begin
      if window_expired t m within ~index ~time then begin
        record t m ~index ~time
          ~detail:
            (Printf.sprintf "no %s within %s of event %d"
               (Spec.cond_to_string goal)
               (Spec.window_to_string within)
               m.armed_index);
        m.armed <- false
      end
      else if cond_verdict ev fields goal = True then m.armed <- false
    end;
    if (not m.armed) && cond_verdict ev fields trigger = True then begin
      m.armed <- true;
      m.armed_index <- index;
      m.armed_time <- time
    end
  | Spec.After_until { trigger; release; expect } ->
    if m.armed then begin
      if cond_verdict ev fields release = True then m.armed <- false
      else if cond_verdict ev fields expect = False then
        record t m ~index ~time
          ~detail:
            (Printf.sprintf "expected %s since event %d"
               (Spec.cond_to_string expect) m.armed_index)
    end
    else if cond_verdict ev fields trigger = True then begin
      m.armed <- true;
      m.armed_index <- index;
      m.armed_time <- time
    end

let on_event t ev =
  let index = t.index in
  t.index <- index + 1;
  match Obs.Event.category ev with
  | Obs.Category.Invariant | Obs.Category.Harness ->
    (* our own verdicts and out-of-band supervision records: counted in
       the stream index (so indices line up with exports) but never
       evaluated — a violation must not re-trigger the machines *)
    ()
  | Obs.Category.Run ->
    (* a fresh run: obligations do not cross the boundary *)
    Array.iter (fun m -> m.armed <- false) t.machines
  | _ ->
    let time = Obs.Event.time ev in
    let fields = Obs.Event.fields ev in
    for i = 0 to Array.length t.machines - 1 do
      step t t.machines.(i) ev fields ~index ~time
    done

(* ---- reporting ---- *)

let raise_if_violated t =
  match first t with
  | None -> ()
  | Some v ->
    raise
      (Violation_error { spec = v.spec; kind = v.kind; index = v.index; count = t.total })

(* A one-screen report: the first violations in stream order, then a
   count of the rest; a single summary line when clean. *)
let max_reported = 20

let report t =
  let b = Buffer.create 256 in
  if t.total = 0 then
    Buffer.add_string b
      (Printf.sprintf "invariants: %d spec(s) clean over %d event(s)\n"
         (Array.length t.machines) t.index)
  else begin
    Buffer.add_string b
      (Printf.sprintf "invariants: %d violation(s) over %d event(s)\n" t.total t.index);
    List.iteri
      (fun i (v : violation) ->
        if i < max_reported then
          Buffer.add_string b
            (Printf.sprintf "  [%s] %s at event %d (t=%.6g): %s\n" v.kind v.spec
               v.index v.time v.detail))
      (violations t);
    if t.total > max_reported then
      Buffer.add_string b
        (Printf.sprintf "  ... and %d more\n" (t.total - max_reported));
    match t.flight with
    | None -> ()
    | Some (path, n) ->
      Buffer.add_string b (Printf.sprintf "  flight: %s (%d event(s))\n" path n)
  end;
  Buffer.contents b
