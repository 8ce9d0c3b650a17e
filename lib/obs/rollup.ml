(* Fixed-window rollups: O(1) per-event accumulation into mutable
   fields, one row record allocated per *completed* window.

   Determinism: a rollup's rows are a pure fold over the event stream
   its lane admits, accumulated in stream order with a fixed operation
   sequence — so the online rollup (installed as a [Trace.run]
   observer) and an offline replay over the exported events produce
   bit-identical floats, and per-lane rollups merged in ascending lane
   order export byte-identically at any pool size. *)

type row = {
  run : int;
  window : int;
  t0 : float;
  t1 : float;
  events : int;
  enq : int;
  deq : int;
  drops : int;
  delivered : int;
  q_min : int;
  q_mean : float;
  q_max : int;
  acks : int;
  lost : int;
  rate_mean : float;
  rate_max : float;
  mi_tput_mean : float;
  u_prev_mean : float;
  u_rl_mean : float;
  u_cl_mean : float;
  cycles : int;
}

type t = {
  window : float;
  mutable rows_rev : row list;
  mutable nrows : int;
  mutable run : int;
  mutable seen : bool;  (* any event observed yet (Run_start numbering) *)
  mutable cur : int;  (* open window index; -1 = none open *)
  (* accumulators for the open window *)
  mutable events : int;
  mutable enq : int;
  mutable deq : int;
  mutable drops : int;
  mutable delivered : int;
  mutable q_min : int;
  mutable q_max : int;
  mutable q_sum : float;
  mutable q_n : int;
  mutable acks : int;
  mutable lost : int;
  mutable rate_sum : float;
  mutable rate_n : int;
  mutable rate_max : float;
  mutable mi_sum : float;
  mutable mi_n : int;
  mutable up_sum : float;
  mutable up_n : int;
  mutable url_sum : float;
  mutable url_n : int;
  mutable ucl_sum : float;
  mutable ucl_n : int;
  mutable cycles : int;
}

let create ?(window = 0.1) () =
  if not (Float.is_finite window) || window <= 0.0 then
    invalid_arg "Obs.Rollup.create: window must be positive";
  {
    window;
    rows_rev = [];
    nrows = 0;
    run = 0;
    seen = false;
    cur = -1;
    events = 0;
    enq = 0;
    deq = 0;
    drops = 0;
    delivered = 0;
    q_min = max_int;
    q_max = min_int;
    q_sum = 0.0;
    q_n = 0;
    acks = 0;
    lost = 0;
    rate_sum = 0.0;
    rate_n = 0;
    rate_max = neg_infinity;
    mi_sum = 0.0;
    mi_n = 0;
    up_sum = 0.0;
    up_n = 0;
    url_sum = 0.0;
    url_n = 0;
    ucl_sum = 0.0;
    ucl_n = 0;
    cycles = 0;
  }

let window t = t.window

let reset_accumulators t =
  t.events <- 0;
  t.enq <- 0;
  t.deq <- 0;
  t.drops <- 0;
  t.delivered <- 0;
  t.q_min <- max_int;
  t.q_max <- min_int;
  t.q_sum <- 0.0;
  t.q_n <- 0;
  t.acks <- 0;
  t.lost <- 0;
  t.rate_sum <- 0.0;
  t.rate_n <- 0;
  t.rate_max <- neg_infinity;
  t.mi_sum <- 0.0;
  t.mi_n <- 0;
  t.up_sum <- 0.0;
  t.up_n <- 0;
  t.url_sum <- 0.0;
  t.url_n <- 0;
  t.ucl_sum <- 0.0;
  t.ucl_n <- 0;
  t.cycles <- 0

let mean sum n = if n = 0 then Float.nan else sum /. float_of_int n

(* The open window's aggregates as a row. *)
let current_row t =
  let w = t.cur in
  {
    run = t.run;
    window = w;
    t0 = float_of_int w *. t.window;
    t1 = float_of_int (w + 1) *. t.window;
    events = t.events;
    enq = t.enq;
    deq = t.deq;
    drops = t.drops;
    delivered = t.delivered;
    q_min = (if t.q_n = 0 then 0 else t.q_min);
    q_mean = mean t.q_sum t.q_n;
    q_max = (if t.q_n = 0 then 0 else t.q_max);
    acks = t.acks;
    lost = t.lost;
    rate_mean = mean t.rate_sum t.rate_n;
    rate_max = (if t.rate_n = 0 then Float.nan else t.rate_max);
    mi_tput_mean = mean t.mi_sum t.mi_n;
    u_prev_mean = mean t.up_sum t.up_n;
    u_rl_mean = mean t.url_sum t.url_n;
    u_cl_mean = mean t.ucl_sum t.ucl_n;
    cycles = t.cycles;
  }

let flush t =
  if t.cur >= 0 then begin
    if t.events > 0 then begin
      t.rows_rev <- current_row t :: t.rows_rev;
      t.nrows <- t.nrows + 1
    end;
    t.cur <- -1;
    reset_accumulators t
  end

let q_sample t backlog =
  if backlog < t.q_min then t.q_min <- backlog;
  if backlog > t.q_max then t.q_max <- backlog;
  t.q_sum <- t.q_sum +. float_of_int backlog;
  t.q_n <- t.q_n + 1

let observe t ev =
  (match ev with
  | Event.Run_start _ ->
    (* A fresh sim clock: close the open window and restart window
       indexing under the next run number. The marker itself lands in
       the new run's first window. *)
    flush t;
    if t.seen then t.run <- t.run + 1
  | _ -> ());
  t.seen <- true;
  let time = Event.time ev in
  (* Window index on the sim clock. Harness records stamped outside the
     sim clock (t = 0 mid-run) fold into the open window rather than
     reopening an old one. *)
  let w =
    let raw = int_of_float (Float.floor (time /. t.window)) in
    if raw < 0 then 0 else raw
  in
  if t.cur < 0 then t.cur <- w
  else if w > t.cur then begin
    flush t;
    t.cur <- w
  end;
  t.events <- t.events + 1;
  match ev with
  | Event.Enqueue e ->
    t.enq <- t.enq + 1;
    q_sample t e.backlog
  | Event.Dequeue e ->
    t.deq <- t.deq + 1;
    t.delivered <- t.delivered + e.size;
    q_sample t e.backlog
  | Event.Drop _ -> t.drops <- t.drops + 1
  | Event.Ack e ->
    t.acks <- t.acks + 1;
    t.lost <- t.lost + e.newly_lost
  | Event.Rate e ->
    if Float.is_finite e.pacing then begin
      t.rate_sum <- t.rate_sum +. e.pacing;
      t.rate_n <- t.rate_n + 1;
      if e.pacing > t.rate_max then t.rate_max <- e.pacing
    end
  | Event.Mi_snapshot e ->
    if Float.is_finite e.throughput then begin
      t.mi_sum <- t.mi_sum +. e.throughput;
      t.mi_n <- t.mi_n + 1
    end
  | Event.Cycle e ->
    t.cycles <- t.cycles + 1;
    if Float.is_finite e.u_prev then begin
      t.up_sum <- t.up_sum +. e.u_prev;
      t.up_n <- t.up_n + 1
    end;
    if Float.is_finite e.u_rl then begin
      t.url_sum <- t.url_sum +. e.u_rl;
      t.url_n <- t.url_n + 1
    end;
    if Float.is_finite e.u_cl then begin
      t.ucl_sum <- t.ucl_sum +. e.u_cl;
      t.ucl_n <- t.ucl_n + 1
    end
  | Event.Link_rate _ | Event.Stage _ | Event.Rl_step _ | Event.Fault _
  | Event.Run_start _ | Event.Harness _ | Event.Violation _ ->
    ()

let rows t = List.rev t.rows_rev
let windows t = t.nrows

(* ---- exporters ---- *)

(* A window row's columns in export order. *)
let row_fields ~lane (r : row) =
  Event.
    [
      ("lane", Int lane); ("run", Int r.run); ("window", Int r.window);
      ("t0", Float r.t0); ("t1", Float r.t1); ("events", Int r.events);
      ("enq", Int r.enq); ("deq", Int r.deq);
      ("drops", Int r.drops); ("delivered", Int r.delivered); ("q_min", Int r.q_min);
      ("q_mean", Float r.q_mean); ("q_max", Int r.q_max); ("acks", Int r.acks);
      ("lost", Int r.lost); ("rate_mean", Float r.rate_mean);
      ("rate_max", Float r.rate_max); ("mi_tput_mean", Float r.mi_tput_mean);
      ("u_prev_mean", Float r.u_prev_mean); ("u_rl_mean", Float r.u_rl_mean);
      ("u_cl_mean", Float r.u_cl_mean); ("cycles", Int r.cycles);
    ]

let csv_header =
  String.concat "," (List.map fst (row_fields ~lane:0 (current_row (create ()))))

(* Both formats print through the event writers' printers. *)
let add_rows t ~lane print =
  flush t;
  List.iter (fun r -> print (row_fields ~lane r)) (rows t)

let add_csv t ~lane b = add_rows t ~lane (Event.add_csv_row b)

let add_jsonl t ~lane b = add_rows t ~lane (Event.add_json_line b)

let write ?manifest ~lanes path =
  let lanes = List.stable_sort (fun (a, _) (b, _) -> compare a b) lanes in
  let b = Buffer.create 4096 in
  let csv = Filename.check_suffix path ".csv" in
  if csv then begin
    Buffer.add_string b csv_header;
    Buffer.add_char b '\n';
    List.iter (fun (lane, r) -> add_csv r ~lane b) lanes
  end
  else begin
    (match manifest with
    | Some m ->
      Buffer.add_string b (Manifest.header_line m);
      Buffer.add_char b '\n'
    | None -> ());
    List.iter (fun (lane, r) -> add_jsonl r ~lane b) lanes
  end;
  (* Through the chaos I/O plane: atomic write, faults structured. *)
  Chaos.Io.write_file path (Buffer.contents b)

(* ---- ambient rollup ---- *)

(* Read-only for pool tasks: the rollup folds the lane's event stream
   through the tracer's observer, which pool tasks reach at the join. *)
let slot = Ambient.slot Ambient.Inherit
let with_ambient t f = Ambient.with_ slot (Some t) f
let ambient () = Ambient.get slot
