(* The installed chaos plane: a process-global fault schedule over the
   harness's persistence operations (Chaos.Io) and the domain pool's
   tasks (Exec.Pool).

   Decisions are drawn from {!Splitmix} keyed streams, the ones
   [Netsim.Rng.split_key] derives. Every decision is a pure function of
   (chaos seed, fault class, operation/task index, attempt): no draw
   position is shared between operations, so concurrent I/O from pool
   workers cannot perturb which faults fire for a given index.

   The plane also owns the host-fault accounting every layer reports
   through: injected-fault counters per class, the count of faults
   *surfaced* to callers as structured errors (drives the CLIs' exit
   code 6), and the verify-on-read corruption detections — the last is
   deliberately independent of whether a plane is installed, because a
   corrupt checkpoint must be detected on a clean host too. *)

(* ---- keyed streams ---- *)

(* Tags keep the per-class streams independent even at equal indices. *)
let tag_torn = 1
let tag_eio = 2
let tag_flip = 3
let tag_flip_pos = 4
let tag_kill = 5
let tag_read_eio = 6

(* The [n]-th draw of the child stream keyed (seed, tag, a, b):
   uniform float in [0, 1). *)
let draw ~seed ~tag ~a ~b ~n =
  let key = (tag * 1_000_003) + (a * 8191) + (b * 127) in
  Splitmix.draw (Splitmix.child ~seed:(Int64.of_int seed) ~key) ~n

(* ---- installed state ---- *)

type state = {
  spec : Spec.t;
  seed : int;
  write_ops : int Atomic.t;  (* write-operation index (windows range over it) *)
  read_ops : int Atomic.t;
  bytes_written : int Atomic.t;  (* cumulative, for enospc's budget *)
  task_seqs : int Atomic.t;  (* pool task sequence numbers *)
}

let current : state option Atomic.t = Atomic.make None

let install ?(seed = 0) spec =
  Atomic.set current
    (if Spec.is_empty spec then None
     else
       Some
         {
           spec;
           seed;
           write_ops = Atomic.make 0;
           read_ops = Atomic.make 0;
           bytes_written = Atomic.make 0;
           task_seqs = Atomic.make 0;
         })

let clear () = Atomic.set current None
let active () = Atomic.get current <> None

let spec () =
  match Atomic.get current with None -> None | Some s -> Some s.spec

(* ---- accounting ---- *)

type stats = {
  torn : int;
  flips : int;
  enospc : int;
  eio : int;
  kills : int;
  resurrections : int;
  respawns : int;
}

let c_torn = Atomic.make 0
let c_flips = Atomic.make 0
let c_enospc = Atomic.make 0
let c_eio = Atomic.make 0
let c_kills = Atomic.make 0
let c_resurrections = Atomic.make 0
let c_respawns = Atomic.make 0

(* Structured host faults raised to a caller (exit-code 6 signal). *)
let c_surfaced = Atomic.make 0

(* Verify-on-read corruption detections (Exec.Io/Exec.Checkpoint) —
   counted whether or not a plane is installed. *)
let c_corrupt = Atomic.make 0

let stats () =
  {
    torn = Atomic.get c_torn;
    flips = Atomic.get c_flips;
    enospc = Atomic.get c_enospc;
    eio = Atomic.get c_eio;
    kills = Atomic.get c_kills;
    resurrections = Atomic.get c_resurrections;
    respawns = Atomic.get c_respawns;
  }

let note_surfaced () = Atomic.incr c_surfaced
let surfaced () = Atomic.get c_surfaced
let note_corrupt_detected () = Atomic.incr c_corrupt
let corrupt_detected () = Atomic.get c_corrupt
let note_resurrection () = Atomic.incr c_resurrections
let note_respawn () = Atomic.incr c_respawns

let reset_stats () =
  List.iter
    (fun c -> Atomic.set c 0)
    [
      c_torn; c_flips; c_enospc; c_eio; c_kills; c_resurrections; c_respawns;
      c_surfaced; c_corrupt;
    ]

(* ---- write/read decisions ---- *)

type write_fault =
  | W_torn of { keep_bytes : int }
      (* simulated crash mid-write: keep_bytes land in the temp file,
         the rename never happens, the temp file is left behind *)
  | W_enospc
  | W_eio
  | W_flip of { positions : int list }
      (* silent corruption: the write "succeeds" with these byte
         positions flipped *)

let in_window (w : Spec.windowed) op =
  let op = float_of_int op in
  op >= w.Spec.from_ && op < w.Spec.until

(* First matching item in spec order wins; flips compose with nothing
   (a flipped write still succeeds, so an aborting fault listed first
   shadows it for that operation). *)
let on_write ~len =
  match Atomic.get current with
  | None -> None
  | Some st ->
    let op = Atomic.fetch_and_add st.write_ops 1 in
    let rec decide idx = function
      | [] -> None
      | (w : Spec.windowed) :: rest ->
        let hit p tag = draw ~seed:st.seed ~tag ~a:op ~b:idx ~n:0 < p in
        let fault =
          if not (in_window w op) then None
          else
            match w.Spec.item with
            | Spec.Torn { p; keep } when hit p tag_torn ->
              Atomic.incr c_torn;
              Some
                (W_torn
                   {
                     keep_bytes =
                       max 0 (min (len - 1) (int_of_float (keep *. float_of_int len)));
                   })
            | Spec.Enospc { after } when Atomic.get st.bytes_written >= after ->
              Atomic.incr c_enospc;
              Some W_enospc
            | Spec.Eio { p } when hit p tag_eio ->
              Atomic.incr c_eio;
              Some W_eio
            | Spec.Flip { p; bytes } when len > 0 && hit p tag_flip ->
              Atomic.incr c_flips;
              let positions =
                List.init bytes (fun j ->
                    int_of_float
                      (draw ~seed:st.seed ~tag:tag_flip_pos ~a:op ~b:j ~n:0
                      *. float_of_int len))
              in
              Some (W_flip { positions })
            | _ -> None
        in
        (match fault with Some _ as f -> f | None -> decide (idx + 1) rest)
    in
    decide 0 st.spec.Spec.items

(* Successful writes charge the enospc byte budget. *)
let note_written len =
  match Atomic.get current with
  | None -> ()
  | Some st -> ignore (Atomic.fetch_and_add st.bytes_written len)

let on_read () =
  match Atomic.get current with
  | None -> None
  | Some st ->
    let op = Atomic.fetch_and_add st.read_ops 1 in
    let hit =
      List.exists
        (fun (w : Spec.windowed) ->
          in_window w op
          &&
          match w.Spec.item with
          | Spec.Eio { p } -> draw ~seed:st.seed ~tag:tag_read_eio ~a:op ~b:0 ~n:0 < p
          | _ -> false)
        st.spec.Spec.items
    in
    if hit then begin
      Atomic.incr c_eio;
      Some `Eio
    end
    else None

(* ---- domain-kill decisions (Exec.Pool) ---- *)

(* Raised by a pool task whose (simulated) domain dies before the task
   body runs. The pool catches it: the task is resurrected with
   [attempt + 1] on a surviving domain, and a worker that caught it
   spawns its replacement and exits. *)
exception Domain_killed of { seq : int; attempt : int }

let () =
  Printexc.register_printer (function
    | Domain_killed { seq; attempt } ->
      Some (Printf.sprintf "Chaos.Domain_killed(task %d, attempt %d)" seq attempt)
    | _ -> None)

(* True iff the plane schedules any domain kills at all — the pool's
   one-load fast path. *)
let kills_scheduled () =
  match Atomic.get current with
  | None -> false
  | Some st -> Spec.has_kill st.spec

(* Fresh task sequence number (assigned at fan-out time, in submission
   order). Meaningless when no kills are scheduled. *)
let task_seq () =
  match Atomic.get current with
  | None -> 0
  | Some st -> Atomic.fetch_and_add st.task_seqs 1

(* Attempts are 1-based; after [max_kill_attempts] the task is immune,
   so every task terminates even under kill-domain:p=1. *)
let max_kill_attempts = 8

let kill_task ~seq ~attempt =
  if attempt > max_kill_attempts then false
  else
    match Atomic.get current with
    | None -> false
    | Some st ->
      let killed =
        List.exists
          (fun (w : Spec.windowed) ->
            in_window w seq
            &&
            match w.Spec.item with
            | Spec.Kill_domain { p } ->
              draw ~seed:st.seed ~tag:tag_kill ~a:seq ~b:attempt ~n:0 < p
            | _ -> false)
          st.spec.Spec.items
      in
      if killed then Atomic.incr c_kills;
      killed
