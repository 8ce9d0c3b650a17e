(* Unit, property and integration tests for the netsim substrate. *)

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Netsim.Rng.create 7 and b = Netsim.Rng.create 7 in
  for _ = 1 to 100 do
    check_float "same stream" (Netsim.Rng.float a) (Netsim.Rng.float b)
  done

let test_rng_distinct_seeds () =
  let a = Netsim.Rng.create 1 and b = Netsim.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Netsim.Rng.float a = Netsim.Rng.float b then incr same
  done;
  check_bool "streams differ" true (!same < 5)

(* split_key derives from the parent's original seed, not its evolving
   state: the keyed stream must not move when the parent draws more. *)
let test_rng_split_key_stable () =
  let draws rng n = List.init n (fun _ -> Netsim.Rng.float rng) in
  let fresh = Netsim.Rng.create 7 in
  let expected = draws (Netsim.Rng.split_key fresh ~key:3) 20 in
  let parent = Netsim.Rng.create 7 in
  let parent_before = draws parent 10 in
  (* 10 extra draws on the parent must not shift the keyed child. *)
  let got = draws (Netsim.Rng.split_key parent ~key:3) 20 in
  List.iter2 (check_float "keyed stream stable under parent draws") expected got;
  (* ... and deriving the child must not shift the parent's own stream. *)
  let parent2 = Netsim.Rng.create 7 in
  List.iter2
    (check_float "parent stream unperturbed")
    parent_before (draws parent2 10)

let test_rng_split_key_distinct () =
  let rng = Netsim.Rng.create 7 in
  let a = Netsim.Rng.split_key rng ~key:0 in
  let b = Netsim.Rng.split_key rng ~key:1 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Netsim.Rng.float a = Netsim.Rng.float b then incr same
  done;
  check_bool "keyed streams differ" true (!same < 5)

let prop_rng_range =
  QCheck.Test.make ~name:"rng floats in [0,1)" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Netsim.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Netsim.Rng.float rng in
        if v < 0.0 || v >= 1.0 then ok := false
      done;
      !ok)

let prop_rng_uniform_bounds =
  QCheck.Test.make ~name:"rng uniform respects bounds" ~count:200
    QCheck.(pair small_int (pair (float_bound_exclusive 100.0) pos_float))
    (fun (seed, (lo, width)) ->
      QCheck.assume (Float.is_finite width && width > 0.0 && width < 1e6);
      let rng = Netsim.Rng.create seed in
      let v = Netsim.Rng.uniform rng ~lo ~hi:(lo +. width) in
      v >= lo && v < lo +. width)

(* Trace sampling and the chaos plane draw from keyed streams of their
   own: each decision must equal a draw of Rng.split_key's child. *)
let prop_sample_keep_is_keyed_draw =
  QCheck.Test.make ~name:"sample keep is a keyed rng draw" ~count:500
    QCheck.(triple int (int_range 1 1000) (int_range 0 1_000_000))
    (fun (seed, d, flow) ->
      let child = Netsim.Rng.split_key (Netsim.Rng.create seed) ~key:flow in
      Obs.Sample.keep (Obs.Sample.create ~seed d) ~flow
      = (Netsim.Rng.float child *. float_of_int d < 1.0))

let prop_plane_draw_is_keyed_draw =
  QCheck.Test.make ~name:"plane draw is a keyed rng draw" ~count:500
    QCheck.(
      pair int
        (quad (int_range 0 16) (int_range 0 100_000) (int_range 0 64) (int_range 0 8)))
    (fun (seed, (tag, a, b, n)) ->
      let child =
        Netsim.Rng.split_key (Netsim.Rng.create seed)
          ~key:((tag * 1_000_003) + (a * 8191) + (b * 127))
      in
      let want = ref 0.0 in
      for _ = 0 to n do
        want := Netsim.Rng.float child
      done;
      Chaos.Plane.draw ~seed ~tag ~a ~b ~n = !want)

(* ------------------------------------------------------------------ *)
(* Event heap *)

(* Pop every pending event, returning (time, seq, kind, a, b) tuples in
   pop order. *)
let drain_heap h =
  let rec go acc =
    if Netsim.Event_heap.is_empty h then List.rev acc
    else begin
      Netsim.Event_heap.pop_into h;
      let e =
        ( Netsim.Event_heap.scratch_time h,
          Netsim.Event_heap.scratch_seq h,
          Netsim.Event_heap.scratch_kind h,
          Netsim.Event_heap.scratch_a h,
          Netsim.Event_heap.scratch_b h )
      in
      go (e :: acc)
    end
  in
  go []

let test_heap_orders_events () =
  let h = Netsim.Event_heap.create () in
  Netsim.Event_heap.push h ~time:3.0 ~kind:0 ~a:3 ~b:30;
  Netsim.Event_heap.push h ~time:1.0 ~kind:1 ~a:1 ~b:10;
  Netsim.Event_heap.push h ~time:2.0 ~kind:2 ~a:2 ~b:20;
  Alcotest.(check (list (pair int (pair int int))))
    "time order, operands intact"
    [ (1, (1, 10)); (2, (2, 20)); (0, (3, 30)) ]
    (List.map (fun (_, _, k, a, b) -> (k, (a, b))) (drain_heap h))

let test_heap_fifo_ties () =
  let h = Netsim.Event_heap.create () in
  for i = 0 to 9 do
    Netsim.Event_heap.push h ~time:1.0 ~kind:0 ~a:i ~b:0
  done;
  Alcotest.(check (list int)) "insertion order on ties"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.map (fun (_, _, _, a, _) -> a) (drain_heap h))

(* A ticket reserved before other pushes orders its event ahead of
   theirs at an equal time, and behind them at a later one. *)
let test_heap_reserved_ticket () =
  let h = Netsim.Event_heap.create () in
  let early = Netsim.Event_heap.ticket h in
  Netsim.Event_heap.push h ~time:1.0 ~kind:0 ~a:1 ~b:0;
  Netsim.Event_heap.push h ~time:1.0 ~kind:0 ~a:2 ~b:0;
  let late = Netsim.Event_heap.ticket h in
  Netsim.Event_heap.push_ticket h ~time:2.0 ~ticket:late ~kind:0 ~a:4 ~b:0;
  Netsim.Event_heap.push h ~time:2.0 ~kind:0 ~a:5 ~b:0;
  Netsim.Event_heap.push_ticket h ~time:1.0 ~ticket:early ~kind:0 ~a:0 ~b:0;
  Netsim.Event_heap.push h ~time:1.5 ~kind:0 ~a:3 ~b:0;
  check_float "top time" 1.0 (Netsim.Event_heap.top_time h);
  Alcotest.(check (list int)) "(time, ticket) order" [ 0; 1; 2; 3; 4; 5 ]
    (List.map (fun (_, _, _, a, _) -> a) (drain_heap h))

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:100
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun times ->
      let h = Netsim.Event_heap.create () in
      List.iter (fun time -> Netsim.Event_heap.push h ~time ~kind:0 ~a:0 ~b:0) times;
      let rec sorted last = function
        | [] -> true
        | (time, _, _, _, _) :: rest -> time >= last && sorted time rest
      in
      sorted neg_infinity (drain_heap h))

let test_heap_grows () =
  let h = Netsim.Event_heap.create () in
  for i = 0 to 9999 do
    Netsim.Event_heap.push h ~time:(float_of_int (i mod 97)) ~kind:0 ~a:i ~b:0
  done;
  check_int "all retained" 10000 (Netsim.Event_heap.size h);
  let popped = List.map (fun (_, _, _, a, _) -> a) (drain_heap h) in
  check_int "every operand pops once" 10000
    (List.length (List.sort_uniq compare popped))

(* Randomly-timed pushes (few distinct times, so ties abound, and well
   past the initial 256-entry capacity): pop order must be time
   ascending with ties in insertion order, and each event's operands
   travel with it. *)
let test_heap_random_pop_order () =
  let rng = Netsim.Rng.create 7 in
  let n = 2000 in
  let h = Netsim.Event_heap.create () in
  let pushed =
    Array.init n (fun i ->
        let time = float_of_int (Netsim.Rng.int rng 17) /. 4.0 in
        Netsim.Event_heap.push h ~time ~kind:(i mod 3) ~a:i ~b:(-i);
        (time, i))
  in
  check_int "all retained" n (Netsim.Event_heap.size h);
  let expected = Array.copy pushed in
  (* Stable sort by time = time asc, ties in insertion order. *)
  Array.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2) expected;
  let popped = Array.of_list (drain_heap h) in
  check_bool "empty after draining" true (Netsim.Event_heap.is_empty h);
  check_int "popped all" n (Array.length popped);
  Array.iteri
    (fun i (time, seq) ->
      let ptime, pseq, pkind, pa, pb = popped.(i) in
      if ptime <> time || pseq <> seq then
        Alcotest.fail
          (Printf.sprintf "pop %d: got (%g, #%d), want (%g, #%d)" i ptime pseq time
             seq);
      if pkind <> seq mod 3 || pa <> seq || pb <> -seq then
        Alcotest.fail (Printf.sprintf "pop %d: operands of #%d moved" i seq))
    expected

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_runs_in_order () =
  let sim = Netsim.Sim.create () in
  let log = ref [] in
  let k_log = ref (-1) in
  (* a = 0 logs "a" and schedules "c" 0.2 s later; 1 and 2 log "b" and
     "c". *)
  k_log :=
    Netsim.Sim.register sim (fun a _ ->
        log := ([| "a"; "b"; "c" |].(a), Netsim.Sim.now sim) :: !log;
        if a = 0 then Netsim.Sim.after sim 0.2 ~kind:!k_log ~a:2 ~b:0);
  Netsim.Sim.at sim 0.5 ~kind:!k_log ~a:1 ~b:0;
  Netsim.Sim.at sim 0.1 ~kind:!k_log ~a:0 ~b:0;
  Netsim.Sim.run sim ~until:1.0;
  (match List.rev !log with
  | [ ("a", t1); ("c", t2); ("b", t3) ] ->
    check_float "a at 0.1" 0.1 t1;
    check_float "c at 0.3" (0.3 +. 1e-17 -. 1e-17) t2;
    check_float "b at 0.5" 0.5 t3
  | _ -> Alcotest.fail "wrong event order");
  check_float "clock at horizon" 1.0 (Netsim.Sim.now sim)

let test_sim_horizon_stops_events () =
  let sim = Netsim.Sim.create () in
  let fired = ref false in
  let k = Netsim.Sim.register sim (fun _ _ -> fired := true) in
  Netsim.Sim.at sim 5.0 ~kind:k ~a:0 ~b:0;
  Netsim.Sim.run sim ~until:1.0;
  check_bool "event beyond horizon suppressed" false !fired

(* Events of two registered handlers interleave in timestamp order, and
   each reaches its own handler with both operands intact. *)
let test_sim_coded_events_dispatch () =
  let sim = Netsim.Sim.create () in
  let log = ref [] in
  let handler name a b =
    log := (Printf.sprintf "%s:%d:%d" name a b, Netsim.Sim.now sim) :: !log
  in
  let k_x = Netsim.Sim.register sim (handler "x") in
  let k_y = Netsim.Sim.register sim (handler "y") in
  check_bool "distinct kinds" true (k_x <> k_y);
  Netsim.Sim.at sim 0.5 ~kind:k_x ~a:7 ~b:9;
  Netsim.Sim.at sim 0.2 ~kind:k_y ~a:1 ~b:2;
  Netsim.Sim.at sim 0.8 ~kind:k_y ~a:0 ~b:42;
  Netsim.Sim.at sim 0.5 ~kind:k_y ~a:3 ~b:4;
  Netsim.Sim.run sim ~until:1.0;
  Alcotest.(check (list (pair string (float 1e-9))))
    "order and payloads"
    [ ("y:1:2", 0.2); ("x:7:9", 0.5); ("y:3:4", 0.5); ("y:0:42", 0.8) ]
    (List.rev !log)

(* [Sim.events] counts every executed event, whatever its handler, and
   [Sim.dispatched] splits the count by kind. An event past the horizon
   stays queued: the 5.0 s event runs in the second [run]. *)
let test_sim_event_counter () =
  let sim = Netsim.Sim.create () in
  let k1 = Netsim.Sim.register sim (fun _ _ -> ()) in
  let k2 = Netsim.Sim.register sim (fun _ _ -> ()) in
  Netsim.Sim.at sim 0.1 ~kind:k1 ~a:0 ~b:0;
  Netsim.Sim.at sim 0.2 ~kind:k2 ~a:0 ~b:0;
  Netsim.Sim.at sim 5.0 ~kind:k1 ~a:0 ~b:0;
  Netsim.Sim.run sim ~until:1.0;
  check_int "two events inside the horizon" 2 (Netsim.Sim.events sim);
  Netsim.Sim.at sim 2.0 ~kind:k2 ~a:0 ~b:0;
  Netsim.Sim.run sim ~until:10.0;
  check_int "counter accumulates across runs" 4 (Netsim.Sim.events sim);
  check_int "kinds registered" 2 (Netsim.Sim.kinds sim);
  check_int "first kind" 2 (Netsim.Sim.dispatched sim k1);
  check_int "second kind" 2 (Netsim.Sim.dispatched sim k2)

(* Splitting a run at a horizon changes nothing: [run ~until:t1] then
   [run ~until:t2] dispatches the same (time, kind, a, b) sequence as
   one [run ~until:t2]. Times sit on a 0.5 s grid so that events tie
   with each other and with the horizons. *)
let prop_sim_split_run =
  let half_steps = QCheck.int_range 0 20 in
  QCheck.Test.make ~name:"run to t1 then t2 = run to t2" ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 30) (triple half_steps (int_range 0 2) small_nat))
        half_steps half_steps)
    (fun (evs, s1, s2) ->
      let t1 = 0.5 *. float_of_int (min s1 s2) in
      let t2 = 0.5 *. float_of_int (max s1 s2) in
      let dispatch horizons =
        let sim = Netsim.Sim.create () in
        let log = ref [] in
        let kinds =
          Array.init 3 (fun k ->
              Netsim.Sim.register sim (fun a b ->
                  log := (Netsim.Sim.now sim, k, a, b) :: !log))
        in
        List.iteri
          (fun i (step, k, a) ->
            Netsim.Sim.at sim (0.5 *. float_of_int step) ~kind:kinds.(k) ~a ~b:i)
          evs;
        List.iter (fun until -> Netsim.Sim.run sim ~until) horizons;
        List.rev !log
      in
      dispatch [ t1; t2 ] = dispatch [ t2 ])

(* An event whose kind has no registered handler is a programming error,
   not a silent no-op. *)
let test_sim_coded_event_needs_handler () =
  let sim = Netsim.Sim.create () in
  let k = Netsim.Sim.register sim (fun _ _ -> ()) in
  Netsim.Sim.at sim 0.1 ~kind:(k + 1) ~a:1 ~b:1;
  Alcotest.check_raises "unregistered kind"
    (Invalid_argument "Sim: event of kind 1 but no handler registered")
    (fun () -> Netsim.Sim.run sim ~until:1.0)

(* ------------------------------------------------------------------ *)
(* Link queue. Both disciplines keep their packets in the link's one
   ring; these tests drive it through a small Sim and a 1 Mbit/s link
   whose [deliver] collects sequence numbers. *)

let mk_pkt ?(size = 1500) seq = { Netsim.Packet.flow = 0; seq; size; corrupt = false }

let queue_link ?aqm ~buffer_bytes () =
  let sim = Netsim.Sim.create () in
  let delivered = ref [] in
  let rate = 125_000.0 in
  let link =
    Netsim.Link.create ?aqm ~const_rate:rate ~sim ~rate_fn:(fun _ -> rate)
      ~grain:0.01 ~buffer_bytes ~loss_p:0.0 ~rng:(Netsim.Rng.create 1)
      ~deliver:(fun p -> delivered := p.Netsim.Packet.seq :: !delivered)
      ()
  in
  (sim, link, fun () -> List.rev !delivered)

let test_droptail_admits_until_capacity () =
  let sim, link, delivered = queue_link ~buffer_bytes:4500 () in
  for i = 0 to 3 do
    Netsim.Link.send link (mk_pkt i)
  done;
  check_int "p3 tail-dropped" 1 (Netsim.Link.queue_drops link);
  Netsim.Sim.run sim ~until:1.0;
  Alcotest.(check (list int)) "p0-p2 served" [ 0; 1; 2 ] (delivered ());
  check_int "bytes" 4500 (Netsim.Link.delivered_bytes link)

let test_droptail_fifo () =
  let sim, link, delivered = queue_link ~buffer_bytes:100000 () in
  for i = 0 to 5 do
    Netsim.Link.send link (mk_pkt i)
  done;
  Netsim.Sim.run sim ~until:1.0;
  Alcotest.(check (list int)) "fifo order" [ 0; 1; 2; 3; 4; 5 ] (delivered ())

(* A burst into an idle link: packet i is admitted exactly when the
   bytes admitted before it plus its size fit the buffer, and every
   admitted packet is served, in order. *)
let prop_droptail_conservation =
  QCheck.Test.make ~name:"droptail: admitted = dequeued + queued" ~count:100
    QCheck.(list (int_range 100 3000))
    (fun sizes ->
      let sim, link, delivered = queue_link ~buffer_bytes:10000 () in
      List.iteri (fun i size -> Netsim.Link.send link (mk_pkt ~size i)) sizes;
      let bytes = ref 0 and admitted = ref [] in
      List.iteri
        (fun i size ->
          if !bytes + size <= 10000 then begin
            bytes := !bytes + size;
            admitted := i :: !admitted
          end)
        sizes;
      Netsim.Sim.run sim ~until:10.0;
      delivered () = List.rev !admitted
      && Netsim.Link.queue_drops link = List.length sizes - List.length !admitted)

(* ------------------------------------------------------------------ *)
(* CoDel *)

(* Sojourn under the 5 ms target never drops, however long the queue. *)
let test_codel_passes_short_sojourn () =
  let law = Netsim.Codel.create () in
  for i = 0 to 1000 do
    check_bool "kept" false
      (Netsim.Codel.drop law ~now:(0.001 *. float_of_int i) ~sojourn:0.004
         ~backlog:1_000_000)
  done

(* One packet every 5 ms into a link that serves one every 12 ms: the
   standing queue's sojourn stays far above target for well over one
   interval, so CoDel must start dropping heads (the 1 MB buffer never
   tail-drops), and the survivors still leave in FIFO order. *)
let test_codel_drops_persistent_queue () =
  let sim, link, delivered = queue_link ~aqm:`Codel ~buffer_bytes:1_000_000 () in
  let arrive = Netsim.Sim.register sim (fun seq _ -> Netsim.Link.send link (mk_pkt seq)) in
  for i = 0 to 399 do
    Netsim.Sim.at sim (0.005 *. float_of_int i) ~kind:arrive ~a:i ~b:0
  done;
  Netsim.Sim.run sim ~until:2.0;
  let drops = Netsim.Link.queue_drops link in
  check_bool (Printf.sprintf "codel dropped (%d)" drops) true (drops > 0);
  let served = delivered () in
  check_bool "survivors in order" true (List.sort compare served = served)

let test_codel_in_network_beats_droptail_delay () =
  let run aqm =
    let link =
      { Netsim.Network.rate_fn = (fun _ -> Netsim.Units.mbps_to_bps 24.0); const_rate = None;
        grain = 0.02; buffer_bytes = Netsim.Units.kb 600; loss_p = 0.0; aqm }
    in
    let flows =
      [ { Netsim.Network.cca = Classic_cc.Cubic.make (); start_at = 0.0;
          stop_at = 12.0; rtt = 0.03 } ]
    in
    let s = Netsim.Network.run ~link ~flows ~duration:12.0 () in
    match s.Netsim.Network.flows with
    | [ f ] -> Netsim.Flow_stats.mean_rtt f.Netsim.Network.stats
    | _ -> Alcotest.fail "one flow"
  in
  let fifo_rtt = run `Fifo and codel_rtt = run `Codel in
  check_bool
    (Printf.sprintf "codel %.0fms << droptail %.0fms" (1000. *. codel_rtt)
       (1000. *. fifo_rtt))
    true
    (codel_rtt < 0.6 *. fifo_rtt)

(* ------------------------------------------------------------------ *)
(* Units *)

let test_units_roundtrip () =
  check_float "mbps roundtrip" 48.0
    (Netsim.Units.bps_to_mbps (Netsim.Units.mbps_to_bps 48.0));
  check_int "bdp" 75000
    (Netsim.Units.bdp_bytes ~rate_bps:(Netsim.Units.mbps_to_bps 12.0) ~rtt_s:0.05)

(* ------------------------------------------------------------------ *)
(* Monitor *)

let ack ~now ~rtt =
  {
    Netsim.Cca.now;
    seq = 0;
    rtt;
    acked_bytes = 1500;
    inflight = 10;
    delivered_bytes = 0;
    rate_sample = 0.0;
    newly_lost = 0;
  }

let test_monitor_throughput_and_gradient () =
  let m = Netsim.Monitor.create ~now:0.0 in
  (* RTT rises linearly at slope 0.5 (s per s). *)
  for i = 1 to 10 do
    let now = 0.01 *. float_of_int i in
    Netsim.Monitor.on_ack m (ack ~now ~rtt:(0.1 +. (0.5 *. now)))
  done;
  let snap = Netsim.Monitor.snapshot m ~now:0.1 in
  check_float "throughput" 150000.0 snap.Netsim.Monitor.throughput;
  Alcotest.(check (float 1e-6)) "gradient" 0.5 snap.Netsim.Monitor.rtt_gradient;
  check_int "acks" 10 snap.Netsim.Monitor.acked

let test_monitor_loss_rate () =
  let m = Netsim.Monitor.create ~now:0.0 in
  for i = 1 to 8 do
    Netsim.Monitor.on_ack m (ack ~now:(0.01 *. float_of_int i) ~rtt:0.1)
  done;
  Netsim.Monitor.on_timeout_loss m ~pkts:2;
  let snap = Netsim.Monitor.snapshot m ~now:0.1 in
  check_float "loss rate" 0.2 snap.Netsim.Monitor.loss_rate

(* A snapshot taken at the reset instant (zero-length interval) must
   return explicit zeros/nan, never divide by the interval. *)
let test_monitor_zero_duration () =
  let m = Netsim.Monitor.create ~now:5.0 in
  let empty = Netsim.Monitor.snapshot m ~now:5.0 in
  check_float "duration" 0.0 empty.Netsim.Monitor.duration;
  check_float "throughput" 0.0 empty.Netsim.Monitor.throughput;
  check_float "gradient" 0.0 empty.Netsim.Monitor.rtt_gradient;
  check_float "loss" 0.0 empty.Netsim.Monitor.loss_rate;
  check_bool "no-ack avg rtt is nan" true
    (Float.is_nan empty.Netsim.Monitor.avg_rtt);
  check_bool "grad se infinite" true
    (empty.Netsim.Monitor.rtt_grad_se = infinity);
  (* Same with data recorded but no time elapsed (clock went backwards
     or stood still): counts survive, rate denominators stay safe. *)
  Netsim.Monitor.on_ack m (ack ~now:5.0 ~rtt:0.08);
  Netsim.Monitor.on_timeout_loss m ~pkts:3;
  let snap = Netsim.Monitor.snapshot m ~now:4.9 in
  check_float "duration clamped" 0.0 snap.Netsim.Monitor.duration;
  check_float "throughput zero" 0.0 snap.Netsim.Monitor.throughput;
  check_float "avg rtt kept" 0.08 snap.Netsim.Monitor.avg_rtt;
  check_int "acks kept" 1 snap.Netsim.Monitor.acked;
  check_int "losses kept" 3 snap.Netsim.Monitor.lost_pkts

(* ------------------------------------------------------------------ *)
(* Windowed max (BBR's filter) *)

let prop_windowed_max_matches_bruteforce =
  QCheck.Test.make ~name:"windowed max = brute force over window" ~count:100
    QCheck.(list (pair (float_range 0.0 1.0) (float_range 0.0 100.0)))
    (fun steps ->
      let w = Netsim.Cca.Windowed_max.create ~window:1.0 in
      let now = ref 0.0 in
      let history = ref [] in
      List.for_all
        (fun (dt, v) ->
          now := !now +. dt;
          Netsim.Cca.Windowed_max.observe w ~now:!now v;
          history := (!now, v) :: !history;
          let expect =
            List.fold_left
              (fun acc (at, v') -> if !now -. at <= 1.0 then Float.max acc v' else acc)
              0.0 !history
          in
          Float.abs (Netsim.Cca.Windowed_max.get w ~now:!now -. expect) < 1e-9)
        steps)

let test_windowed_max_expires () =
  let w = Netsim.Cca.Windowed_max.create ~window:1.0 in
  Netsim.Cca.Windowed_max.observe w ~now:0.0 10.0;
  Netsim.Cca.Windowed_max.observe w ~now:0.5 5.0;
  check_float "max is 10" 10.0 (Netsim.Cca.Windowed_max.get w ~now:0.9);
  check_float "10 expired, 5 remains" 5.0 (Netsim.Cca.Windowed_max.get w ~now:1.2);
  check_float "all expired" 0.0 (Netsim.Cca.Windowed_max.get w ~now:3.0)

(* ------------------------------------------------------------------ *)
(* Integration: flows over a link *)

let run_cbr ~rate_mbps ~capacity_mbps ~duration =
  let link =
    {
      Netsim.Network.rate_fn = (fun _ -> Netsim.Units.mbps_to_bps capacity_mbps); const_rate = None;
      grain = 0.02;
      buffer_bytes = Netsim.Units.kb 150;
      loss_p = 0.0; aqm = `Fifo;
    }
  in
  let flows =
    [
      {
        Netsim.Network.cca =
          Netsim.Cca.constant_rate (Netsim.Units.mbps_to_bps rate_mbps);
        start_at = 0.0;
        stop_at = duration;
        rtt = 0.04;
      };
    ]
  in
  Netsim.Network.run ~link ~flows ~duration ()

let test_cbr_below_capacity_is_lossless () =
  let summary = run_cbr ~rate_mbps:8.0 ~capacity_mbps:24.0 ~duration:5.0 in
  (match summary.Netsim.Network.flows with
  | [ flow ] ->
    let got =
      Netsim.Units.bps_to_mbps
        (Netsim.Flow_stats.mean_throughput ~from_t:1.0 ~to_t:5.0
           flow.Netsim.Network.stats)
    in
    check_bool "throughput near 8 Mbps" true (Float.abs (got -. 8.0) < 0.5);
    check_int "no losses" 0 (Netsim.Flow_stats.total_lost_pkts flow.stats);
    let rtt = Netsim.Flow_stats.mean_rtt flow.stats in
    check_bool "rtt near propagation" true (rtt > 0.04 && rtt < 0.045)
  | _ -> Alcotest.fail "one flow expected");
  check_int "no queue drops" 0 summary.Netsim.Network.queue_drops

let test_cbr_above_capacity_loses_and_queues () =
  let summary = run_cbr ~rate_mbps:40.0 ~capacity_mbps:24.0 ~duration:5.0 in
  match summary.Netsim.Network.flows with
  | [ flow ] ->
    let util = Netsim.Network.utilization summary in
    check_bool "link saturated" true (util > 0.95);
    check_bool "significant loss" true
      (Netsim.Flow_stats.loss_rate flow.Netsim.Network.stats > 0.2);
    let rtt = Netsim.Flow_stats.mean_rtt flow.stats in
    (* 150 KB of backlog at 24 Mbps adds ~50 ms of queueing. *)
    check_bool "rtt inflated by full buffer" true (rtt > 0.07)
  | _ -> Alcotest.fail "one flow expected"

let test_stochastic_loss_rate_applied () =
  let link =
    {
      Netsim.Network.rate_fn = (fun _ -> Netsim.Units.mbps_to_bps 50.0); const_rate = None;
      grain = 0.02;
      buffer_bytes = Netsim.Units.mb 2;
      loss_p = 0.05; aqm = `Fifo;
    }
  in
  let flows =
    [
      {
        Netsim.Network.cca = Netsim.Cca.constant_rate (Netsim.Units.mbps_to_bps 10.0);
        start_at = 0.0;
        stop_at = 10.0;
        rtt = 0.04;
      };
    ]
  in
  let summary = Netsim.Network.run ~seed:5 ~link ~flows ~duration:10.0 () in
  match summary.Netsim.Network.flows with
  | [ flow ] ->
    let loss = Netsim.Flow_stats.loss_rate flow.Netsim.Network.stats in
    check_bool "observed loss near 5%" true (loss > 0.03 && loss < 0.07)
  | _ -> Alcotest.fail "one flow expected"

let prop_packet_conservation =
  QCheck.Test.make ~name:"sent = acked + lost (+tail in flight)" ~count:20
    QCheck.(pair (int_range 1 40) (int_range 0 1000))
    (fun (rate_mbps, seed) ->
      let link =
        {
          Netsim.Network.rate_fn = (fun _ -> Netsim.Units.mbps_to_bps 12.0); const_rate = None;
          grain = 0.02;
          buffer_bytes = Netsim.Units.kb 75;
          loss_p = 0.01; aqm = `Fifo;
        }
      in
      let flows =
        [
          {
            Netsim.Network.cca =
              Netsim.Cca.constant_rate
                (Netsim.Units.mbps_to_bps (float_of_int rate_mbps));
            start_at = 0.0;
            stop_at = 3.0;
            rtt = 0.03;
          };
        ]
      in
      let summary = Netsim.Network.run ~seed ~link ~flows ~duration:4.0 () in
      match summary.Netsim.Network.flows with
      | [ flow ] ->
        let stats = flow.Netsim.Network.stats in
        let sent = Netsim.Flow_stats.total_sent_bytes stats / 1500 in
        let acked = Netsim.Flow_stats.total_acked_pkts stats in
        let lost = Netsim.Flow_stats.total_lost_pkts stats in
        (* After a second of drain, at most a handful of tail packets can
           still be unresolved (never acked, never declared lost). *)
        sent >= acked + lost && sent - (acked + lost) < 20
      | _ -> false)

let test_two_flows_share_link () =
  let link =
    {
      Netsim.Network.rate_fn = (fun _ -> Netsim.Units.mbps_to_bps 20.0); const_rate = None;
      grain = 0.02;
      buffer_bytes = Netsim.Units.kb 150;
      loss_p = 0.0; aqm = `Fifo;
    }
  in
  let mk () =
    {
      Netsim.Network.cca = Netsim.Cca.constant_rate (Netsim.Units.mbps_to_bps 15.0);
      start_at = 0.0;
      stop_at = 6.0;
      rtt = 0.04;
    }
  in
  let summary = Netsim.Network.run ~link ~flows:[ mk (); mk () ] ~duration:6.0 () in
  match summary.Netsim.Network.flows with
  | [ a; b ] ->
    let thr flow =
      Netsim.Flow_stats.mean_throughput ~from_t:1.0 ~to_t:6.0
        flow.Netsim.Network.stats
    in
    let ta = thr a and tb = thr b in
    (* Identical CBR flows through one FIFO get equal shares. *)
    check_bool "symmetric shares" true
      (Float.abs (ta -. tb) /. Float.max ta tb < 0.05);
    check_bool "link saturated" true (Netsim.Network.utilization summary > 0.95)
  | _ -> Alcotest.fail "two flows expected"

(* ------------------------------------------------------------------ *)
(* RTO timing. One Generic flow on a flow table, over a 12 Mbit/s link
   whose rate drops to 0 at [dark_at]. The CCA keeps an 8-packet window
   at half the link rate and records every callback, so the records
   replay every RTO arm: each send and each new ACK re-arms it. *)

type rto_record =
  | Send of float  (* now *)
  | Ack of float * float  (* now, rtt *)
  | Loss of float * Netsim.Cca.loss_kind  (* now, kind *)

let rto_run ~dark_at ~return_delay ~until =
  let sim = Netsim.Sim.create () in
  let table = Netsim.Flow_table.create ~sim () in
  let rate = Netsim.Units.mbps_to_bps 12.0 in
  let link =
    Netsim.Link.create ~sim
      ~rate_fn:(fun now -> if now < dark_at then rate else 0.0)
      ~grain:0.01 ~buffer_bytes:(Netsim.Units.kb 150) ~loss_p:0.0
      ~rng:(Netsim.Rng.create 1)
      ~deliver:(Netsim.Flow_table.on_pkt_delivered table)
      ()
  in
  Netsim.Flow_table.attach table link;
  let log = ref [] in
  let record r = log := r :: !log in
  let cca =
    {
      Netsim.Cca.name = "recorder";
      on_send = (fun (i : Netsim.Cca.send_info) -> record (Send i.now));
      on_ack = (fun (i : Netsim.Cca.ack_info) -> record (Ack (i.now, i.rtt)));
      on_loss = (fun (i : Netsim.Cca.loss_info) -> record (Loss (i.now, i.kind)));
      pacing_rate = (fun ~now:_ -> rate /. 2.0);
      cwnd = (fun ~now:_ -> 8.0);
    }
  in
  let h =
    Netsim.Flow_table.add_flow table ~cca:(Netsim.Flow_table.Generic cca)
      ~return_delay ~start_at:0.0 ~stop_at:until ()
  in
  Netsim.Flow_table.start table h;
  Netsim.Sim.run sim ~until;
  List.rev !log

(* Each Timeout paired with the deadline it must fire at, both as hex
   floats: the last send or ACK before it plus the RTO of that moment,
   max(0.2, srtt + 4 rttvar) over the RTT samples so far, or 1 s before
   the first sample. *)
let timeouts_vs_deadlines log =
  let tr = Netsim.Cca.Rtt_tracker.create () in
  let deadline = ref nan in
  let arm now =
    let rto =
      if Netsim.Cca.Rtt_tracker.samples tr = 0 then 1.0
      else
        Float.max 0.2
          (Netsim.Cca.Rtt_tracker.srtt tr +. (4.0 *. Netsim.Cca.Rtt_tracker.rttvar tr))
    in
    deadline := now +. rto
  in
  List.filter_map
    (function
      | Send now ->
        arm now;
        None
      | Ack (now, rtt) ->
        Netsim.Cca.Rtt_tracker.observe tr rtt;
        arm now;
        None
      | Loss (now, Netsim.Cca.Timeout) ->
        Some (Printf.sprintf "%h" !deadline, Printf.sprintf "%h" now)
      | Loss (_, Netsim.Cca.Gap_detected) -> None)
    log

let check_timeouts label pairs =
  check_bool (label ^ ": timed out") true (pairs <> []);
  Alcotest.(check (list string))
    (label ^ ": each Timeout at the last arm's deadline")
    (List.map fst pairs) (List.map snd pairs)

(* A 250 ms path keeps srtt + 4 rttvar above the 0.2 s floor; the flow
   runs 1.5 s, through many arms that each move the deadline out, then
   times out repeatedly in the dark. *)
let test_rto_fires_at_last_deadline () =
  let pairs =
    timeouts_vs_deadlines (rto_run ~dark_at:1.5 ~return_delay:0.25 ~until:3.0)
  in
  check_timeouts "dark at 1.5 s" pairs;
  check_bool "first Timeout after dark" true
    (float_of_string (snd (List.hd pairs)) > 1.5)

(* Sends before the first ACK arm 1 s timeouts; the first ACK's arm
   (RTT 31 ms, so the 0.2 s floor) lands earlier and must move the
   pending deadline in. The link goes dark once the first packet is
   through, so that ACK is the only one. A link dark from the start
   never yields a sample: the last send plus 1 s. *)
let test_rto_first_sample_moves_deadline_in () =
  let pairs =
    timeouts_vs_deadlines (rto_run ~dark_at:0.0015 ~return_delay:0.03 ~until:2.0)
  in
  check_timeouts "dark after the first packet" pairs;
  check_bool "first Timeout at the 0.2 s deadline" true
    (float_of_string (snd (List.hd pairs)) < 0.5);
  check_timeouts "dark from the start"
    (timeouts_vs_deadlines (rto_run ~dark_at:0.0 ~return_delay:0.03 ~until:2.0))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "netsim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "distinct seeds" `Quick test_rng_distinct_seeds;
          Alcotest.test_case "split_key stable" `Quick test_rng_split_key_stable;
          Alcotest.test_case "split_key distinct" `Quick test_rng_split_key_distinct;
        ]
        @ qsuite
            [
              prop_rng_range;
              prop_rng_uniform_bounds;
              prop_sample_keep_is_keyed_draw;
              prop_plane_draw_is_keyed_draw;
            ] );
      ( "event_heap",
        [
          Alcotest.test_case "orders events" `Quick test_heap_orders_events;
          Alcotest.test_case "fifo on ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "reserved ticket" `Quick test_heap_reserved_ticket;
          Alcotest.test_case "grows" `Quick test_heap_grows;
          Alcotest.test_case "random pop order" `Quick test_heap_random_pop_order;
        ]
        @ qsuite [ prop_heap_sorted ] );
      ( "sim",
        [
          Alcotest.test_case "runs in order" `Quick test_sim_runs_in_order;
          Alcotest.test_case "horizon" `Quick test_sim_horizon_stops_events;
          Alcotest.test_case "coded events dispatch" `Quick
            test_sim_coded_events_dispatch;
          Alcotest.test_case "event counter" `Quick test_sim_event_counter;
          Alcotest.test_case "coded event needs handler" `Quick
            test_sim_coded_event_needs_handler;
        ]
        @ qsuite [ prop_sim_split_run ] );
      ( "droptail",
        [
          Alcotest.test_case "capacity" `Quick test_droptail_admits_until_capacity;
          Alcotest.test_case "fifo" `Quick test_droptail_fifo;
        ]
        @ qsuite [ prop_droptail_conservation ] );
      ("units", [ Alcotest.test_case "roundtrip" `Quick test_units_roundtrip ]);
      ( "codel",
        [
          Alcotest.test_case "short sojourn passes" `Quick test_codel_passes_short_sojourn;
          Alcotest.test_case "persistent queue drops" `Quick test_codel_drops_persistent_queue;
          Alcotest.test_case "beats droptail delay" `Slow
            test_codel_in_network_beats_droptail_delay;
        ] );
      ( "windowed_max",
        [ Alcotest.test_case "expires" `Quick test_windowed_max_expires ]
        @ qsuite [ prop_windowed_max_matches_bruteforce ] );
      ( "monitor",
        [
          Alcotest.test_case "throughput+gradient" `Quick
            test_monitor_throughput_and_gradient;
          Alcotest.test_case "loss rate" `Quick test_monitor_loss_rate;
          Alcotest.test_case "zero-length interval" `Quick
            test_monitor_zero_duration;
        ] );
      ( "integration",
        [
          Alcotest.test_case "cbr below capacity" `Quick
            test_cbr_below_capacity_is_lossless;
          Alcotest.test_case "cbr above capacity" `Quick
            test_cbr_above_capacity_loses_and_queues;
          Alcotest.test_case "stochastic loss" `Quick
            test_stochastic_loss_rate_applied;
          Alcotest.test_case "two flows share" `Quick test_two_flows_share_link;
        ]
        @ qsuite [ prop_packet_conservation ] );
      ( "rto",
        [
          Alcotest.test_case "fires at the last arm's deadline" `Quick
            test_rto_fires_at_last_deadline;
          Alcotest.test_case "first sample moves the deadline in" `Quick
            test_rto_first_sample_moves_deadline_in;
        ] );
    ]
