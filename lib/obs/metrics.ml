(* Metrics registry: named counters, gauges and fixed-bucket histograms.

   Probes are registered once, at module-initialisation time, and are
   plain integer handles into a global probe table. Updates go to the
   *ambient registry* installed by [run] (an [Ambient] slot), so the
   same probe can feed different registries in different pool tasks and
   the caller merges them in a deterministic order. A pool task without
   a registry of its own writes into a fresh one that the pool merges
   into its caller's at the join, in submission order.

   When no registry is attached anywhere, every update is a single
   atomic load + compare + branch (the same no-op budget as trace
   probes; the `obs/metrics-off` micro-bench enforces it). *)

type kind = Counter | Gauge | Histogram of float array  (* ascending bounds *)

type probe = int

(* ---- global probe table ---- *)

let table_lock = Mutex.create ()
let names : string array ref = ref (Array.make 16 "")
let kinds : kind array ref = ref (Array.make 16 Counter)
let n_probes = ref 0

let probe_count () = !n_probes

let register name kind =
  Mutex.lock table_lock;
  let found = ref None in
  for i = 0 to !n_probes - 1 do
    if !names.(i) = name then found := Some i
  done;
  let id =
    match !found with
    | Some i ->
      if !kinds.(i) <> kind then begin
        Mutex.unlock table_lock;
        invalid_arg
          (Printf.sprintf "Obs.Metrics: probe %S re-registered with a different kind" name)
      end;
      i
    | None ->
      if !n_probes = Array.length !names then begin
        let bigger_n = Array.make (2 * !n_probes) "" in
        let bigger_k = Array.make (2 * !n_probes) Counter in
        Array.blit !names 0 bigger_n 0 !n_probes;
        Array.blit !kinds 0 bigger_k 0 !n_probes;
        names := bigger_n;
        kinds := bigger_k
      end;
      let i = !n_probes in
      !names.(i) <- name;
      !kinds.(i) <- kind;
      n_probes := i + 1;
      i
  in
  Mutex.unlock table_lock;
  id

let counter name = register name Counter
let gauge name = register name Gauge

let histogram name ~bounds =
  let sorted = Array.copy bounds in
  Array.sort compare sorted;
  register name (Histogram sorted)

(* ---- registries ---- *)

type cell =
  | Ccell of { mutable n : int }
  | Gcell of { mutable v : float; mutable set : bool }
  | Hcell of {
      bounds : float array;
      counts : int array;  (* counts.(i) = observations <= bounds.(i);
                              one extra overflow bucket at the end *)
      mutable sum : float;
      mutable n : int;
      mutable seen : float list;
          (* in a pool task's registry, every observation (newest
             first), so the join adds them one by one and the caller's
             float sum rounds as it does inline *)
    }

type registry = { mutable cells : cell option array; forked : bool }

let create_registry () = { cells = [||]; forked = false }

let fresh_cell id =
  match !kinds.(id) with
  | Counter -> Ccell { n = 0 }
  | Gauge -> Gcell { v = 0.0; set = false }
  | Histogram bounds ->
    let counts = Array.make (Array.length bounds + 1) 0 in
    Hcell { bounds; counts; sum = 0.0; n = 0; seen = [] }

let cell_of reg id =
  if id >= Array.length reg.cells then begin
    let bigger = Array.make (max 16 (2 * (id + 1))) None in
    Array.blit reg.cells 0 bigger 0 (Array.length reg.cells);
    reg.cells <- bigger
  end;
  match reg.cells.(id) with
  | Some c -> c
  | None ->
    let c = fresh_cell id in
    reg.cells.(id) <- Some c;
    c

(* Merge [src] into [dst]: counters and histogram buckets add, a gauge
   that was written in [src] overwrites. Merge in deterministic (lane)
   order when combining pool-task registries, since the gauge rule is
   order-sensitive. *)
let merge ~into src =
  Array.iteri
    (fun id cell ->
      match cell with
      | None -> ()
      | Some c -> (
        match (c, cell_of into id) with
        | Ccell s, Ccell d -> d.n <- d.n + s.n
        | Gcell s, Gcell d ->
          if s.set then begin
            d.v <- s.v;
            d.set <- true
          end
        | Hcell s, Hcell d ->
          Array.iteri (fun i n -> d.counts.(i) <- d.counts.(i) + n) s.counts;
          if src.forked then
            List.iter
              (fun v ->
                d.sum <- d.sum +. v;
                if into.forked then d.seen <- v :: d.seen)
              (List.rev s.seen)
          else d.sum <- d.sum +. s.sum;
          d.n <- d.n + s.n
        | _ -> assert false))
    src.cells

(* ---- the ambient registry ---- *)

let n_active = Atomic.make 0

let slot =
  Ambient.slot ~live:n_active ~observing:true
    (Ambient.Split
       { fork = (fun _ -> { cells = [||]; forked = true }); join = (fun into -> merge ~into) })

let run reg f = Ambient.with_ slot (Some reg) f

let add_slow p by =
  match Ambient.get slot with
  | None -> ()
  | Some reg -> (
    match cell_of reg p with
    | Ccell c -> c.n <- c.n + by
    | Gcell _ | Hcell _ -> ())

let[@inline] add p by = if Atomic.get n_active > 0 then add_slow p by
let[@inline] incr p = add p 1

let set_slow p v =
  match Ambient.get slot with
  | None -> ()
  | Some reg -> (
    match cell_of reg p with
    | Gcell g ->
      g.v <- v;
      g.set <- true
    | Ccell _ | Hcell _ -> ())

let[@inline] set p v = if Atomic.get n_active > 0 then set_slow p v

let observe_slow p v =
  match Ambient.get slot with
  | None -> ()
  | Some reg -> (
    match cell_of reg p with
    | Hcell h ->
      let n = Array.length h.bounds in
      let i = ref 0 in
      while !i < n && v > h.bounds.(!i) do
        Stdlib.incr i
      done;
      h.counts.(!i) <- h.counts.(!i) + 1;
      h.sum <- h.sum +. v;
      h.n <- h.n + 1;
      if reg.forked then h.seen <- v :: h.seen
    | Ccell _ | Gcell _ -> ())

let[@inline] observe p v = if Atomic.get n_active > 0 then observe_slow p v

(* ---- quantiles ----

   Prometheus-style interpolated histogram quantiles. The q-th quantile
   targets rank ceil(q*n) clamped to [1, n]; the first bucket whose
   cumulative count reaches the rank wins, and the value interpolates
   linearly inside that bucket (lower edge of the first bucket is
   min(0, bounds.(0)); the overflow bucket reports the last finite
   bound, since its upper edge is unbounded).

   Defined edge cases (tested in test_obs):
   - empty histogram (or non-histogram probe, or no finite bounds):
     [None] for every q — callers like perf_report must not crash;
   - single sample: every q returns the upper bound of the sample's
     bucket (the interpolation has one rank to land on), so the result
     is constant — and in particular monotone — in q;
   - monotonicity: rank is non-decreasing in q, interpolation is
     non-decreasing in rank, and each bucket's upper edge equals the
     next bucket's lower edge, so quantile(q) is non-decreasing in q
     (qcheck-enforced). *)

let quantile reg p q =
  if p >= Array.length reg.cells then None
  else
    match reg.cells.(p) with
    | Some (Hcell h) when h.n > 0 && Array.length h.bounds > 0 ->
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let n = h.n in
      let rank = Float.max 1.0 (Float.of_int (int_of_float (ceil (q *. float_of_int n)))) in
      let nbounds = Array.length h.bounds in
      let rec find i cum_prev =
        if i >= Array.length h.counts then Some h.bounds.(nbounds - 1)
        else
          let cum = cum_prev + h.counts.(i) in
          if float_of_int cum >= rank then
            if i >= nbounds then
              (* Overflow bucket: no finite upper edge; report the last
                 finite bound (Prometheus convention). *)
              Some h.bounds.(nbounds - 1)
            else
              let lower = if i = 0 then Float.min 0.0 h.bounds.(0) else h.bounds.(i - 1) in
              let upper = h.bounds.(i) in
              let inside = rank -. float_of_int cum_prev in
              Some (lower +. ((upper -. lower) *. inside /. float_of_int h.counts.(i)))
          else find (i + 1) cum
      in
      find 0 0
    | _ -> None

(* ---- export ---- *)

let fcell v = Printf.sprintf "%.9g" v

(* Rows (metric, kind, field, value) in probe-registration order —
   deterministic within a build. Unused probes are omitted. *)
let dump reg =
  let rows = ref [] in
  for id = probe_count () - 1 downto 0 do
    let name = !names.(id) in
    if id < Array.length reg.cells then
      match reg.cells.(id) with
      | None -> ()
      | Some (Ccell c) -> rows := (name, "counter", "count", string_of_int c.n) :: !rows
      | Some (Gcell g) ->
        if g.set then rows := (name, "gauge", "value", fcell g.v) :: !rows
      | Some (Hcell h) ->
        let bucket_rows =
          List.concat
            [
              [ (name, "histogram", "count", string_of_int h.n);
                (name, "histogram", "sum", fcell h.sum) ];
              List.init (Array.length h.counts) (fun i ->
                  let label =
                    if i < Array.length h.bounds then
                      Printf.sprintf "le_%s" (fcell h.bounds.(i))
                    else "le_inf"
                  in
                  (name, "histogram", label, string_of_int h.counts.(i)));
            ]
        in
        rows := bucket_rows @ !rows
  done;
  !rows

let to_csv reg =
  let b = Buffer.create 1024 in
  Buffer.add_string b "metric,kind,field,value\n";
  List.iter
    (fun (m, k, f, v) -> Buffer.add_string b (Printf.sprintf "%s,%s,%s,%s\n" m k f v))
    (dump reg);
  Buffer.contents b

(* Through the chaos I/O plane: atomic write, faults structured. *)
let write_csv reg path = Chaos.Io.write_file path (to_csv reg)
