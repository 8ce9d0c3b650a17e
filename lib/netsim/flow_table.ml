(* The flow engine: every flow of a run is an int handle into
   preallocated struct-of-arrays state.

   Float state lives in flat float arrays (loads/stores stay unboxed),
   int state in int arrays, and all scheduling goes through coded events
   ([Sim.at_coded]), so a flow costs a few array slots rather than
   records and closures, and the steady-state ACK path allocates nothing
   on the minor heap when tracing is off. The events-per-sec bench
   asserts that contract with [Gc.counters].

   A sender paces packets at its CCA's pacing rate, capped by its
   window. Loss is detected by dup-ACK counting: an outstanding packet
   is declared lost once [dup_thresh] ACKs for higher sequences have
   arrived. On an unimpaired FIFO bottleneck ACKs arrive in order, so
   [dup_thresh = 1] is exact gap detection; fault-injected paths
   reorder ACKs, and there a TCP-style 3 absorbs bounded reordering. A
   versioned RTO covers tail losses. Lost data is not retransmitted:
   flows model sources whose delivered goodput is what is measured, as
   in the paper's emulation.

   Outstanding packets per flow form a ring over parallel arrays.
   Because sequence numbers are consecutive, the entry for sequence [s]
   sits at logical index [s - head_seq]: an ACK resolves its packet in
   O(1), and the dup-ACK scan touches only the true gap below it. *)

type cca = Aimd | Generic of Cca.t

(* Coded event kinds (b operand in parentheses). *)
let k_try_send = 1 (* send_version *)
let k_rto = 2 (* rto_version *)
let k_ack = 3 (* seq *)
let k_start = 4 (* unused *)

(* cca_kind codes *)
let ck_aimd = 0
let ck_generic = 1

let min_pacing = 750.0 (* bytes/s: half a packet per second floor *)

type t = {
  sim : Sim.t;
  mutable link : Link.t option;
  stats_bin : float;
  lite : bool;  (* skip per-flow Flow_stats; keep scalar aggregates only *)
  mutable n : int;  (* live flow count; handles are [0, n) *)
  (* Per-flow float state (flat arrays keep loads/stores unboxed). *)
  mutable start_at : float array;
  mutable stop_at : float array;
  mutable rdelay : float array;  (* link egress -> receiver -> ACK *)
  mutable nsnb : float array;  (* next send not before *)
  mutable srtt : float array;
  mutable rttvar : float array;
  mutable minrtt : float array;
  mutable lastrtt : float array;
  mutable cwnd : float array;  (* native AIMD state *)
  mutable ssthresh : float array;
  mutable completed_at : float array;  (* finite flows; nan = running *)
  mutable rtt_sum : float array;  (* scalar aggregate *)
  (* Per-flow int state. *)
  mutable samples : int array;  (* RTT samples observed *)
  mutable pkt_size : int array;
  mutable dup_thresh : int array;
  mutable next_seq : int array;
  mutable inflight : int array;
  mutable delivered : int array;  (* bytes *)
  mutable send_ver : int array;
  mutable rto_ver : int array;
  mutable size_bytes : int array;  (* flow size; max_int = unbounded *)
  mutable flags : int array;  (* bit0: finished *)
  mutable kind : int array;  (* ck_* code *)
  mutable acked : int array;  (* scalar aggregates: packets *)
  mutable lost : int array;
  (* Outstanding-packet ring per flow: parallel arrays, pow2 capacity;
     the entry for seq s lives at logical index s - head_seq, physical
     index (off + logical) land mask. *)
  mutable head_seq : int array;
  mutable out_len : int array;
  mutable out_off : int array;
  mutable out_sent : float array array;  (* sent_at *)
  mutable out_das : int array array;  (* delivered_at_send *)
  mutable out_dup : int array array;  (* dup-ACK count *)
  mutable out_res : int array array;  (* resolved flag (0/1) *)
  (* Cold per-flow objects. *)
  mutable gen : Cca.t array;  (* Generic flows only *)
  mutable stats : Flow_stats.t array;  (* full mode only *)
}

(* Observability probes (no-ops unless a registry is attached). *)
let m_acks = Obs.Metrics.counter "netsim.flow.acks"
let m_lost = Obs.Metrics.counter "netsim.flow.lost_pkts"
let m_rtt =
  Obs.Metrics.histogram "netsim.flow.rtt_s"
    ~bounds:[| 0.01; 0.025; 0.05; 0.1; 0.2; 0.4; 0.8; 1.6 |]

let dummy_cca = Cca.constant_rate 0.0
(* Built eagerly: forcing a shared [lazy] from two domains at once
   raises [Lazy.Undefined], and pool tasks create flow tables
   concurrently. *)
let dummy_stats = Flow_stats.create ~bin:1.0 ~initial_bins:1 ()

let sim t = t.sim
let flow_count t = t.n
let return_delay t h = t.rdelay.(h)
let[@inline] finished t h = t.flags.(h) land 1 = 1

let cca_name t h =
  match t.kind.(h) with
  | 0 -> "aimd"
  | _ -> t.gen.(h).Cca.name

let stats t h =
  if t.lite then invalid_arg "Flow_table.stats: table runs in lite mode";
  t.stats.(h)

let delivered_bytes t h = t.delivered.(h)
let acked_pkts t h = t.acked.(h)
let lost_pkts t h = t.lost.(h)
let sent_pkts t h = t.next_seq.(h)
let inflight t h = t.inflight.(h)

let mean_rtt t h =
  if t.acked.(h) = 0 then nan else t.rtt_sum.(h) /. float_of_int t.acked.(h)

let min_rtt t h = t.minrtt.(h)
let start_time t h = t.start_at.(h)
let completion_time t h = t.completed_at.(h)

(* ---- RTT estimator: Cca.Rtt_tracker.observe on flat arrays ---- *)

let[@inline] rtt_observe t h rtt =
  if t.samples.(h) = 0 then begin
    t.srtt.(h) <- rtt;
    t.rttvar.(h) <- rtt /. 2.0
  end
  else begin
    let alpha = 0.125 and beta = 0.25 in
    t.rttvar.(h) <-
      ((1.0 -. beta) *. t.rttvar.(h)) +. (beta *. Float.abs (t.srtt.(h) -. rtt));
    t.srtt.(h) <- ((1.0 -. alpha) *. t.srtt.(h)) +. (alpha *. rtt)
  end;
  if rtt < t.minrtt.(h) then t.minrtt.(h) <- rtt;
  t.lastrtt.(h) <- rtt;
  t.samples.(h) <- t.samples.(h) + 1

let[@inline] rto_timeout t h =
  if t.samples.(h) = 0 then 1.0
  else Float.max 0.2 (t.srtt.(h) +. (4.0 *. t.rttvar.(h)))

(* ---- CCA dispatch: native AIMD, closures for Generic ---- *)

let[@inline] cwnd_of t h ~now =
  match t.kind.(h) with
  | 0 -> t.cwnd.(h)
  | _ -> t.gen.(h).Cca.cwnd ~now

let[@inline] pacing_of t h ~now =
  match t.kind.(h) with
  | 0 ->
    (* AIMD paces at twice cwnd per smoothed RTT so sending stays
       ACK-clocked (window-limited). *)
    let srtt = if t.samples.(h) = 0 then 0.1 else t.srtt.(h) in
    2.0 *. t.cwnd.(h) *. float_of_int t.pkt_size.(h) /. srtt
  | _ -> t.gen.(h).Cca.pacing_rate ~now

let[@inline] cca_on_ack t h ~now ~seq ~rtt ~newly_lost ~rate_sample =
  match t.kind.(h) with
  | 0 ->
    let cw = t.cwnd.(h) in
    if cw < t.ssthresh.(h) then t.cwnd.(h) <- cw +. 1.0
    else t.cwnd.(h) <- cw +. (1.0 /. cw)
  | _ ->
    t.gen.(h).Cca.on_ack
      {
        now;
        seq;
        rtt;
        acked_bytes = t.pkt_size.(h);
        inflight = t.inflight.(h);
        delivered_bytes = t.delivered.(h);
        rate_sample;
        newly_lost;
      }

let[@inline] cca_on_loss t h ~now ~lost ~kind =
  match t.kind.(h) with
  | 0 ->
    t.ssthresh.(h) <- Float.max 2.0 (t.cwnd.(h) /. 2.0);
    t.cwnd.(h) <- (match kind with Cca.Gap_detected -> t.ssthresh.(h) | Cca.Timeout -> 1.0)
  | _ -> t.gen.(h).Cca.on_loss { now; lost; kind; inflight = t.inflight.(h) }

(* ---- Outstanding ring ---- *)

let ring_grow t h =
  let os = t.out_sent.(h) and od = t.out_das.(h) in
  let ou = t.out_dup.(h) and orr = t.out_res.(h) in
  let cap = Array.length os in
  let mask = cap - 1 in
  let ns = Array.make (2 * cap) 0.0 in
  let nd = Array.make (2 * cap) 0 in
  let nu = Array.make (2 * cap) 0 in
  let nr = Array.make (2 * cap) 0 in
  let off = t.out_off.(h) and len = t.out_len.(h) in
  for i = 0 to len - 1 do
    let p = (off + i) land mask in
    ns.(i) <- os.(p);
    nd.(i) <- od.(p);
    nu.(i) <- ou.(p);
    nr.(i) <- orr.(p)
  done;
  t.out_sent.(h) <- ns;
  t.out_das.(h) <- nd;
  t.out_dup.(h) <- nu;
  t.out_res.(h) <- nr;
  t.out_off.(h) <- 0

let[@inline] ring_push t h ~now ~das =
  if t.out_len.(h) = Array.length t.out_sent.(h) then ring_grow t h;
  let mask = Array.length t.out_sent.(h) - 1 in
  let p = (t.out_off.(h) + t.out_len.(h)) land mask in
  t.out_sent.(h).(p) <- now;
  t.out_das.(h).(p) <- das;
  t.out_dup.(h).(p) <- 0;
  t.out_res.(h).(p) <- 0;
  t.out_len.(h) <- t.out_len.(h) + 1

(* Drop resolved entries at the ring front. *)
let rec trim t h =
  if t.out_len.(h) > 0 && t.out_res.(h).(t.out_off.(h)) = 1 then begin
    let mask = Array.length t.out_res.(h) - 1 in
    t.out_off.(h) <- (t.out_off.(h) + 1) land mask;
    t.out_len.(h) <- t.out_len.(h) - 1;
    t.head_seq.(h) <- t.head_seq.(h) + 1;
    trim t h
  end

(* Bump dup-ACK counts for the unresolved entries below the ACKed
   sequence; returns packets newly declared lost. Tail-recursive over
   ints -- no allocation (a [ref] accumulator would box). In-order ACKs
   have [limit = 0]. *)
let rec dup_scan dup res ~mask ~off ~thresh ~limit i lost =
  if i >= limit then lost
  else begin
    let p = (off + i) land mask in
    let lost =
      if res.(p) = 0 then begin
        dup.(p) <- dup.(p) + 1;
        if dup.(p) >= thresh then begin
          res.(p) <- 1;
          lost + 1
        end
        else lost
      end
      else lost
    in
    dup_scan dup res ~mask ~off ~thresh ~limit (i + 1) lost
  end

let[@inline] record_loss t h ~now ~pkts =
  t.lost.(h) <- t.lost.(h) + pkts;
  if not t.lite then Flow_stats.record_loss t.stats.(h) ~now ~pkts

(* ---- Engine: the versioned send / RTO / ACK event chain ---- *)

let[@inline] schedule_send t h at =
  t.send_ver.(h) <- t.send_ver.(h) + 1;
  let at = Float.max at (Sim.now t.sim) in
  Sim.at_coded t.sim at ~kind:k_try_send ~a:h ~b:t.send_ver.(h)

let[@inline] arm_rto t h =
  t.rto_ver.(h) <- t.rto_ver.(h) + 1;
  Sim.at_coded t.sim
    (Sim.now t.sim +. rto_timeout t h)
    ~kind:k_rto ~a:h ~b:t.rto_ver.(h)

let send_packet t h now =
  match t.link with
  | None -> invalid_arg "Flow_table.send_packet: flow not attached to a link"
  | Some link ->
    let seq = t.next_seq.(h) in
    t.next_seq.(h) <- seq + 1;
    let size = t.pkt_size.(h) in
    let pkt =
      {
        Packet.flow = h;
        seq;
        size;
        sent_at = now;
        delivered_at_send = t.delivered.(h);
        corrupt = false;
      }
    in
    ring_push t h ~now ~das:t.delivered.(h);
    t.inflight.(h) <- t.inflight.(h) + 1;
    if not t.lite then Flow_stats.record_send t.stats.(h) ~now ~bytes:size;
    (match t.kind.(h) with
    | 1 ->
      t.gen.(h).Cca.on_send { now; seq; size; inflight = t.inflight.(h) }
    | _ -> ());
    Link.send link pkt;
    arm_rto t h

let try_send t h v =
  if v = t.send_ver.(h) && not (finished t h) then begin
    let now = Sim.now t.sim in
    if now >= t.stop_at.(h) then ()
    else if now < t.start_at.(h) then schedule_send t h t.start_at.(h)
    else if now < t.nsnb.(h) then schedule_send t h t.nsnb.(h)
    else begin
      let cwnd = Float.max 1.0 (cwnd_of t h ~now) in
      if float_of_int t.inflight.(h) < cwnd then begin
        send_packet t h now;
        let rate = Float.max min_pacing (pacing_of t h ~now) in
        t.nsnb.(h) <- now +. (float_of_int t.pkt_size.(h) /. rate);
        schedule_send t h t.nsnb.(h)
      end
      (* else: window-blocked; an ACK (or RTO) will reschedule us. *)
    end
  end

let fire_rto t h v =
  if v = t.rto_ver.(h) && t.inflight.(h) > 0 && not (finished t h) then begin
    let now = Sim.now t.sim in
    (* Only unresolved ring entries are still outstanding. *)
    let res = t.out_res.(h) in
    let mask = Array.length res - 1 in
    let off = t.out_off.(h) and len = t.out_len.(h) in
    let rec count i n =
      if i >= len then n
      else count (i + 1) (if res.((off + i) land mask) = 0 then n + 1 else n)
    in
    let lost = count 0 0 in
    t.out_len.(h) <- 0;
    t.head_seq.(h) <- t.next_seq.(h);
    t.inflight.(h) <- 0;
    record_loss t h ~now ~pkts:lost;
    cca_on_loss t h ~now ~lost ~kind:Cca.Timeout;
    schedule_send t h now
  end

(* ACK arrival at the sender, in three passes: [dup_scan] over the gap
   below [seq] (empty for in-order ACKs), the O(1) ring lookup of the
   covered packet, then [trim]. *)
let deliver_ack t h seq =
  if not (finished t h) then begin
    let now = Sim.now t.sim in
    let sent = t.out_sent.(h) and res = t.out_res.(h) in
    let mask = Array.length sent - 1 in
    let off = t.out_off.(h) and len = t.out_len.(h) in
    let rel = seq - t.head_seq.(h) in
    let limit = if rel < len then rel else len in
    let limit = if limit < 0 then 0 else limit in
    let lost =
      dup_scan t.out_dup.(h) res ~mask ~off ~thresh:t.dup_thresh.(h) ~limit 0 0
    in
    if rel >= 0 && rel < len && res.((off + rel) land mask) = 0 then begin
      let p = (off + rel) land mask in
      res.(p) <- 1;
      let sent_at = sent.(p) in
      let das = t.out_das.(h).(p) in
      trim t h;
      t.inflight.(h) <- t.inflight.(h) - lost - 1;
      let rtt = now -. sent_at in
      let size = t.pkt_size.(h) in
      t.delivered.(h) <- t.delivered.(h) + size;
      rtt_observe t h rtt;
      t.acked.(h) <- t.acked.(h) + 1;
      t.rtt_sum.(h) <- t.rtt_sum.(h) +. rtt;
      if not t.lite then
        Flow_stats.record_delivery t.stats.(h) ~now ~bytes:size ~rtt;
      if lost > 0 then begin
        record_loss t h ~now ~pkts:lost;
        cca_on_loss t h ~now ~lost ~kind:Cca.Gap_detected
      end;
      let elapsed = Float.max 1e-9 (now -. sent_at) in
      let rate_sample = float_of_int (t.delivered.(h) - das) /. elapsed in
      cca_on_ack t h ~now ~seq ~rtt ~newly_lost:lost ~rate_sample;
      Obs.Metrics.incr m_acks;
      Obs.Metrics.add m_lost lost;
      Obs.Metrics.observe m_rtt rtt;
      if Obs.Trace.on_flow Obs.Category.Ack ~flow:h then
        Obs.Trace.emit
          (Obs.Event.Ack { t = now; flow = h; seq; rtt; newly_lost = lost });
      if Obs.Trace.on_flow Obs.Category.Rate ~flow:h then
        Obs.Trace.emit
          (Obs.Event.Rate
             {
               t = now;
               flow = h;
               pacing = pacing_of t h ~now;
               cwnd = cwnd_of t h ~now;
             });
      if t.delivered.(h) >= t.size_bytes.(h) then begin
        t.flags.(h) <- t.flags.(h) lor 1;
        t.completed_at.(h) <- now
      end
      else begin
        arm_rto t h;
        (* The window may have opened or the rate risen: re-evaluate. *)
        schedule_send t h now
      end
    end
    else begin
      (* Duplicate or stale ACK: the covered packet was already resolved
         (a dup delivery, or written off by an RTO). Dup-ACK counts may
         still have crossed the threshold above -- keep the books. *)
      trim t h;
      t.inflight.(h) <- max 0 (t.inflight.(h) - lost);
      if lost > 0 then begin
        record_loss t h ~now ~pkts:lost;
        cca_on_loss t h ~now ~lost ~kind:Cca.Gap_detected
      end
    end
  end

let dispatch t k a b =
  if k = k_try_send then try_send t a b
  else if k = k_ack then deliver_ack t a b
  else if k = k_rto then fire_rto t a b
  else if k = k_start then schedule_send t a t.start_at.(a)
  else invalid_arg "Flow_table: unknown coded event kind"

(* Link egress -> receiver -> ACK back at the sender after the flow's
   return delay. A corrupted payload fails the receiver's checksum: no
   ACK; the sender recovers via dup-ACKs or its RTO. *)
let on_pkt_delivered t (pkt : Packet.t) =
  if not pkt.Packet.corrupt then
    Sim.at_coded t.sim
      (Sim.now t.sim +. t.rdelay.(pkt.Packet.flow))
      ~kind:k_ack ~a:pkt.Packet.flow ~b:pkt.Packet.seq

let create ?(capacity = 64) ?(stats_bin = 0.01) ?(lite = false) ~sim () =
  assert (capacity > 0);
  let fz () = Array.make capacity 0.0 in
  let iz () = Array.make capacity 0 in
  let t =
    {
      sim;
      link = None;
      stats_bin;
      lite;
      n = 0;
      start_at = fz ();
      stop_at = fz ();
      rdelay = fz ();
      nsnb = fz ();
      srtt = fz ();
      rttvar = fz ();
      minrtt = fz ();
      lastrtt = fz ();
      cwnd = fz ();
      ssthresh = fz ();
      completed_at = fz ();
      rtt_sum = fz ();
      samples = iz ();
      pkt_size = iz ();
      dup_thresh = iz ();
      next_seq = iz ();
      inflight = iz ();
      delivered = iz ();
      send_ver = iz ();
      rto_ver = iz ();
      size_bytes = iz ();
      flags = iz ();
      kind = iz ();
      acked = iz ();
      lost = iz ();
      head_seq = iz ();
      out_len = iz ();
      out_off = iz ();
      out_sent = Array.make capacity [||];
      out_das = Array.make capacity [||];
      out_dup = Array.make capacity [||];
      out_res = Array.make capacity [||];
      gen = Array.make capacity dummy_cca;
      stats = Array.make capacity dummy_stats;
    }
  in
  Sim.set_handler sim (fun k a b -> dispatch t k a b);
  t

let attach t link = t.link <- Some link

let grow_table t =
  let cap = Array.length t.start_at in
  let gf a =
    let b = Array.make (2 * cap) 0.0 in
    Array.blit a 0 b 0 cap;
    b
  in
  let gi a =
    let b = Array.make (2 * cap) 0 in
    Array.blit a 0 b 0 cap;
    b
  in
  let go a dummy =
    let b = Array.make (2 * cap) dummy in
    Array.blit a 0 b 0 cap;
    b
  in
  t.start_at <- gf t.start_at;
  t.stop_at <- gf t.stop_at;
  t.rdelay <- gf t.rdelay;
  t.nsnb <- gf t.nsnb;
  t.srtt <- gf t.srtt;
  t.rttvar <- gf t.rttvar;
  t.minrtt <- gf t.minrtt;
  t.lastrtt <- gf t.lastrtt;
  t.cwnd <- gf t.cwnd;
  t.ssthresh <- gf t.ssthresh;
  t.completed_at <- gf t.completed_at;
  t.rtt_sum <- gf t.rtt_sum;
  t.samples <- gi t.samples;
  t.pkt_size <- gi t.pkt_size;
  t.dup_thresh <- gi t.dup_thresh;
  t.next_seq <- gi t.next_seq;
  t.inflight <- gi t.inflight;
  t.delivered <- gi t.delivered;
  t.send_ver <- gi t.send_ver;
  t.rto_ver <- gi t.rto_ver;
  t.size_bytes <- gi t.size_bytes;
  t.flags <- gi t.flags;
  t.kind <- gi t.kind;
  t.acked <- gi t.acked;
  t.lost <- gi t.lost;
  t.head_seq <- gi t.head_seq;
  t.out_len <- gi t.out_len;
  t.out_off <- gi t.out_off;
  t.out_sent <- go t.out_sent [||];
  t.out_das <- go t.out_das [||];
  t.out_dup <- go t.out_dup [||];
  t.out_res <- go t.out_res [||];
  t.gen <- go t.gen dummy_cca;
  t.stats <- go t.stats dummy_stats

let add_flow t ~cca ~return_delay ~start_at ~stop_at ?(pkt_size = Units.mtu)
    ?(dup_thresh = 1) ?size_bytes () =
  if t.n = Array.length t.start_at then grow_table t;
  let h = t.n in
  t.n <- h + 1;
  t.start_at.(h) <- start_at;
  t.stop_at.(h) <- stop_at;
  t.rdelay.(h) <- return_delay;
  t.nsnb.(h) <- 0.0;
  t.srtt.(h) <- 0.0;
  t.rttvar.(h) <- 0.0;
  t.minrtt.(h) <- infinity;
  t.lastrtt.(h) <- 0.0;
  t.cwnd.(h) <- 4.0;
  t.ssthresh.(h) <- 1e9;
  t.completed_at.(h) <- nan;
  t.rtt_sum.(h) <- 0.0;
  t.samples.(h) <- 0;
  t.pkt_size.(h) <- pkt_size;
  t.dup_thresh.(h) <- max 1 dup_thresh;
  t.next_seq.(h) <- 0;
  t.inflight.(h) <- 0;
  t.delivered.(h) <- 0;
  t.send_ver.(h) <- 0;
  t.rto_ver.(h) <- 0;
  t.size_bytes.(h) <- (match size_bytes with Some b -> b | None -> max_int);
  t.flags.(h) <- 0;
  t.acked.(h) <- 0;
  t.lost.(h) <- 0;
  t.head_seq.(h) <- 0;
  t.out_len.(h) <- 0;
  t.out_off.(h) <- 0;
  t.out_sent.(h) <- Array.make 16 0.0;
  t.out_das.(h) <- Array.make 16 0;
  t.out_dup.(h) <- Array.make 16 0;
  t.out_res.(h) <- Array.make 16 0;
  (match cca with
  | Aimd ->
    t.kind.(h) <- ck_aimd;
    t.gen.(h) <- dummy_cca
  | Generic c ->
    t.kind.(h) <- ck_generic;
    t.gen.(h) <- c);
  if not t.lite then
    t.stats.(h) <- Flow_stats.create ~bin:t.stats_bin ();
  h

(* One event at [start_at] that enters the versioned send chain. The
   intermediate event fixes the heap order of the first send, which
   seeded runs (and their golden pins in test_population) depend on. *)
let start t h = Sim.at_coded t.sim t.start_at.(h) ~kind:k_start ~a:h ~b:0

let finish t h = t.flags.(h) <- t.flags.(h) lor 1

(* Bench hook: emit one packet immediately, bypassing pacing and
   window (used to preload inflight state for the allocation bench). *)
let bench_send t h = send_packet t h (Sim.now t.sim)
