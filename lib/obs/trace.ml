(* Deterministic sim-time tracing and the always-on crash flight
   recorder.

   Every trace event goes through one ambient slot, the *sink*, with
   two halves: a tracer's lane (plus its observer: the invariant
   checker, a rollup) and a flight recorder's ring of the most recent
   events, fed pre-mask and pre-sampling because crash evidence keeps
   what the export drops. [run] installs the tracer half, [Flight.run]
   the ring half. Lanes are keyed by logical ids the caller chooses
   (the task index of a `Pool.map` fan-out), and exports merge them in
   ascending (lane, seq) order.

   A pool task without a lane of its own forks the sink into one *log*
   of what it sends each half, in emission order; the join replays it
   through the caller's sink — tracer push, observer and ring push
   interleaved per event — in submission order, so lanes, rings and the
   checker's first-violation dump see what they see inline, and exports
   are the same bytes at any pool size.

   With nothing installed anywhere, [on cat] is one atomic load +
   compare + branch, and probe sites guard event construction behind
   it, so the disabled path allocates nothing (the `obs/probe-off`
   micro-bench and `bench trace-overhead` enforce this). *)

(* ---- event buffers ---- *)

type buf = {
  lane : int;
  bounded : bool;  (* ring semantics: overwrite the oldest when full *)
  mutable arr : Event.t array;
  mutable len : int;
  mutable start : int;  (* ring head; always 0 when unbounded *)
  mutable dropped : int;
}

let buf ?capacity lane =
  let bounded, n = match capacity with Some c -> (true, c) | None -> (false, 256) in
  { lane; bounded; arr = Array.make n Event.dummy; len = 0; start = 0; dropped = 0 }

let push buf ev =
  let cap = Array.length buf.arr in
  if not buf.bounded then begin
    if buf.len = cap then begin
      let bigger = Array.make (2 * cap) Event.dummy in
      Array.blit buf.arr 0 bigger 0 cap;
      buf.arr <- bigger
    end;
    buf.arr.(buf.len) <- ev;
    buf.len <- buf.len + 1
  end
  else if buf.len < cap then begin
    buf.arr.((buf.start + buf.len) mod cap) <- ev;
    buf.len <- buf.len + 1
  end
  else begin
    (* Ring full: overwrite the oldest event. *)
    buf.arr.(buf.start) <- ev;
    buf.start <- (buf.start + 1) mod cap;
    buf.dropped <- buf.dropped + 1
  end

let iter f buf =
  let cap = Array.length buf.arr in
  for i = 0 to buf.len - 1 do
    f buf.arr.((buf.start + i) mod cap)
  done

let to_list buf =
  List.init buf.len (fun i -> buf.arr.((buf.start + i) mod Array.length buf.arr))

(* The lanes a recorder (tracer or flight) registered, merged in
   ascending lane order; lanes sharing an id keep registration order. *)
type lanes = { lock : Mutex.t; mutable bufs : buf list (* newest first *) }

let lanes () = { lock = Mutex.create (); bufs = [] }
let register ls b = Mutex.protect ls.lock (fun () -> ls.bufs <- b :: ls.bufs)

let sorted ls =
  let bufs = Mutex.protect ls.lock (fun () -> List.rev ls.bufs) in
  List.stable_sort (fun a b -> compare a.lane b.lane) bufs

(* ---- a pool task's log ---- *)

(* What a log entry is replayed into; a dump entry stands for a
   deferred [Flight.dump]. *)
let dump_entry = 0
let tracer_half = 1
let ring_half = 2

type log = {
  mutable evs : Event.t array;
  mutable half : Bytes.t;  (* per entry: the half it is replayed into *)
  mutable n : int;
  cap : int;  (* the caller's ring capacity *)
  base : int;  (* events in the caller's ring at the fork *)
  mutable run_from : int;  (* first entry of the trailing ring-only run *)
  mutable pushed : int;  (* ring entries logged, trimmed ones included *)
  mutable trimmed : int;
  mutable dumps : string list;  (* reasons of the dump entries, newest first *)
}

let new_log ~cap ~base =
  { evs = Array.make 64 Event.dummy; half = Bytes.make 64 '\000'; n = 0; cap; base;
    run_from = 0; pushed = 0; trimmed = 0; dumps = [] }

let log_add l ev half =
  if l.n = Array.length l.evs then begin
    let evs = Array.make (2 * l.n) Event.dummy in
    Array.blit l.evs 0 evs 0 l.n;
    l.evs <- evs;
    l.half <- Bytes.extend l.half 0 l.n
  end;
  l.evs.(l.n) <- ev;
  Bytes.set l.half l.n (Char.chr half);
  l.n <- l.n + 1;
  if half <> ring_half then l.run_from <- l.n
  else begin
    l.pushed <- l.pushed + 1;
    (* Only the last [cap] entries of a ring-only run can survive in
       the caller's ring, so longer runs are cut back to them (counted
       as overwritten): a flight-only task logs O(cap) events. *)
    let run = l.n - l.run_from in
    if run >= 2 * l.cap then begin
      Array.blit l.evs (l.n - l.cap) l.evs l.run_from l.cap;
      l.trimmed <- l.trimmed + run - l.cap;
      l.n <- l.run_from + l.cap
    end
  end

(* ---- the sink ---- *)

type sink = {
  watch : int;  (* categories [Trace.on] holds for: all while a ring is on *)
  mask : int;  (* the tracer's subscription; 0 without a tracer *)
  sample : Sample.t option;
  trace : buf option;  (* the tracer's lane *)
  observer : (Event.t -> unit) option;
  cap : int;  (* the ring's capacity; 0 without a ring *)
  ring : buf option;
  logs : int;  (* halves a pool task defers into [log] *)
  log : log;
}

let off =
  { watch = 0; mask = 0; sample = None; trace = None; observer = None; cap = 0; ring = None;
    logs = 0; log = new_log ~cap:0 ~base:0 }

(* [mask <> 0] first: flight-only runs skip classifying every event. *)
let admits s ev =
  s.mask <> 0
  && s.mask land Category.bit (Event.category ev) <> 0
  && match s.sample with None -> true | Some smp -> Sample.keep smp ~flow:(Event.flow_id ev)

let to_tracer s ev =
  (match s.trace with Some b -> push b ev | None -> ());
  (match s.observer with Some f -> f ev | None -> ());
  if s.logs land tracer_half <> 0 then log_add s.log ev tracer_half

let to_ring s ev =
  (match s.ring with Some b -> push b ev | None -> ());
  if s.logs land ring_half <> 0 then log_add s.log ev ring_half

(* ---- crash dumps ---- *)

let dir = ref (Filename.get_temp_dir_name ())

(* Dump paths must be deterministic across pool sizes, so the file name
   is derived from the supervision context alone (no pids, no clocks). *)
let dump_path reason =
  let sanitize = function
    | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.') as c -> c
    | _ -> '-'
  in
  Filename.concat !dir ("flight-" ^ String.map sanitize reason ^ ".jsonl")

let dump_to s reason =
  match s.ring with
  | Some buf -> (
    let path = dump_path reason in
    let b = Buffer.create 4096 in
    iter (fun ev -> Event.to_json_line ~lane:buf.lane b ev) buf;
    (* Through the chaos I/O plane. A dump is best-effort evidence
       gathered while already failing: an injected fault on the dump
       itself must not mask the original failure, so both real and
       injected write errors degrade to [None]. *)
    try
      Chaos.Io.write_file path (Buffer.contents b);
      Some (path, buf.len)
    with Sys_error _ | Chaos.Io.Fault _ -> None)
  | None when s.logs land ring_half <> 0 ->
    (* A pool task's ring is its caller's, reached at the join: the
       write is replayed there, where the ring holds what it holds
       inline. The count assumes earlier siblings pushed nothing, so it
       is exact once the caller's ring was full or the task filled it. *)
    let l = s.log in
    l.dumps <- reason :: l.dumps;
    log_add l Event.dummy dump_entry;
    Some (dump_path reason, min l.cap (l.base + l.pushed))
  | None -> None

(* ---- fork and join ---- *)

let fork s =
  let base =
    match s.ring with
    | Some b -> b.len
    | None -> min s.cap (s.log.base + s.log.pushed)
  in
  let logs =
    (if s.mask <> 0 then tracer_half else 0) lor if s.cap > 0 then ring_half else 0
  in
  { s with trace = None; observer = None; ring = None; logs; log = new_log ~cap:s.cap ~base }

let replay s l =
  let reasons = ref (List.rev l.dumps) in
  for i = 0 to l.n - 1 do
    let half = Char.code (Bytes.get l.half i) in
    if half = tracer_half then to_tracer s l.evs.(i)
    else if half = ring_half then to_ring s l.evs.(i)
    else begin
      ignore (dump_to s (List.hd !reasons));
      reasons := List.tl !reasons
    end
  done;
  (match s.ring with Some b -> b.dropped <- b.dropped + l.trimmed | None -> ());
  if s.logs land ring_half <> 0 then begin
    s.log.trimmed <- s.log.trimmed + l.trimmed;
    s.log.pushed <- s.log.pushed + l.trimmed
  end

(* Domains holding a sink — the one load probe sites test when
   everything is off. *)
let sessions = Atomic.make 0

let slot =
  Ambient.slot ~live:sessions ~observing:true
    (Ambient.Split { fork; join = (fun s child -> replay s child.log) })

let current () = Option.value (Ambient.get slot) ~default:off

(* ---- probes ---- *)

let[@inline] on cat =
  Atomic.get sessions > 0
  &&
  match Ambient.get slot with
  | Some s -> s.watch land Category.bit cat <> 0
  | None -> false

(* Probe guard for flow-scoped events under head-based sampling: like
   [on], but also false when the ambient tracer samples [flow] out —
   so probe sites skip event construction entirely for dropped flows.
   [emit] re-checks the same pure decision, so sites that only call
   [on] (e.g. the fault injector) still export the identical kept
   set. A live flight recorder keeps every flow (crash evidence is
   never sampled). *)
let[@inline] on_flow cat ~flow =
  Atomic.get sessions > 0
  &&
  match Ambient.get slot with
  | Some s ->
    s.cap > 0
    || s.mask land Category.bit cat <> 0
       && (match s.sample with None -> true | Some smp -> Sample.keep smp ~flow)
  | None -> false

let emit ev =
  match Ambient.get slot with
  | None -> ()
  | Some s ->
    if admits s ev then to_tracer s ev;
    (* The flight ring records everything — pre-mask, pre-sampling:
       crash evidence keeps what the export drops. *)
    to_ring s ev

module Flight = struct
  type t = { capacity : int; rings : lanes }

  let create ?(capacity = 2048) () =
    if capacity < 1 then invalid_arg "Obs.Flight.create: capacity < 1";
    { capacity; rings = lanes () }

  let run t ?(lane = 0) f =
    let ring = buf ~capacity:t.capacity lane in
    register t.rings ring;
    let s = current () in
    Ambient.with_ slot
      (Some
         { s with watch = -1; cap = t.capacity; ring = Some ring;
           logs = s.logs land tracer_half })
      f

  let active () = (current ()).cap > 0
  let events t = List.map (fun b -> (b.lane, to_list b)) (sorted t.rings)
  let dropped t = List.fold_left (fun a b -> a + b.dropped) 0 (sorted t.rings)
  let dump ~reason () = dump_to (current ()) reason

  let set_dump_dir d = dir := d
  let dump_dir () = !dir
end

(* ---- tracers ---- *)

type t = {
  mask : int;
  ring_capacity : int option;
  sample : Sample.t option;
  lanes : lanes;
  manifest : Json.t;
}

let create ?ring_capacity ?manifest ?sample ?(categories = Category.all) () =
  (match ring_capacity with
  | Some c when c < 1 -> invalid_arg "Obs.Trace.create: ring_capacity < 1"
  | _ -> ());
  let manifest = match manifest with Some m -> m | None -> Manifest.default () in
  {
    (* Run boundaries and harness supervision records are structural
       (they segment a lane whose sim clock restarts / record failures
       and checkpoints), so every tracer subscribes to them no matter
       what filter it was given. *)
    mask =
      Category.mask_of categories
      lor Category.bit Category.Run
      lor Category.bit Category.Harness
      lor Category.bit Category.Invariant;
    ring_capacity;
    sample;
    lanes = lanes ();
    manifest;
  }

let run t ?(lane = 0) ?observer f =
  let buf = buf ?capacity:t.ring_capacity lane in
  register t.lanes buf;
  let s = current () in
  Ambient.with_ slot
    (Some
       {
         s with
         watch = (if s.cap > 0 then -1 else t.mask);
         mask = t.mask;
         sample = t.sample;
         trace = Some buf;
         observer;
         logs = s.logs land ring_half;
       })
    f

let sorted_lanes t = sorted t.lanes
let events t = List.concat_map to_list (sorted_lanes t)
let length t = List.fold_left (fun a b -> a + b.len) 0 (sorted_lanes t)

(* Events discarded by full ring buffers (0 for unbounded tracers). *)
let dropped t = List.fold_left (fun a b -> a + b.dropped) 0 (sorted_lanes t)

(* ---- exporters ---- *)

(* JSONL exports open with the tracer's manifest as a self-describing
   header line; [bin/trace_check --require-manifest] enforces it. *)
let to_jsonl t =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Manifest.header_line t.manifest);
  Buffer.add_char b '\n';
  List.iter
    (fun buf -> iter (fun ev -> Event.to_json_line ~lane:buf.lane b ev) buf)
    (sorted_lanes t);
  Buffer.contents b

let to_csv t =
  let b = Buffer.create 4096 in
  Buffer.add_string b Event.csv_header;
  Buffer.add_char b '\n';
  List.iter
    (fun buf -> iter (fun ev -> Event.to_csv_row ~lane:buf.lane b ev) buf)
    (sorted_lanes t);
  Buffer.contents b

(* Pick the exporter from the file extension (.csv gets CSV, anything
   else JSONL). Exports go through the chaos I/O plane: atomic tmp+rename
   writes, faults structured as [Chaos.Io.Fault], never a bare
   Sys_error. *)
let write t path =
  Chaos.Io.write_file path
    (if Filename.check_suffix path ".csv" then to_csv t else to_jsonl t)
