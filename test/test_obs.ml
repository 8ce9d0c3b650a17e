(* Tests for lib/obs: trace sessions (lanes, rings, filters, exports),
   the metrics registry (merge rules, no-op discipline) and the mini
   JSON parser the exporters are validated with. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let ev ~t ~seq =
  Obs.Event.Enqueue { t; flow = 0; seq; size = 1500; backlog = 1500 }

(* ------------------------------------------------------------------ *)
(* Trace sessions *)

let test_trace_records_in_order () =
  let tr = Obs.Trace.create () in
  Obs.Trace.run tr (fun () ->
      for i = 0 to 9 do
        Obs.Trace.emit (ev ~t:(float_of_int i) ~seq:i)
      done);
  check_int "all recorded" 10 (Obs.Trace.length tr);
  check_int "none dropped" 0 (Obs.Trace.dropped tr);
  let times = List.map Obs.Event.time (Obs.Trace.events tr) in
  check_bool "in emission order" true
    (times = List.init 10 float_of_int)

let test_trace_off_outside_run () =
  check_bool "no tracer installed" false (Obs.Trace.on Obs.Category.Pkt);
  (* Emitting without a tracer is a silent no-op. *)
  Obs.Trace.emit (ev ~t:0.0 ~seq:0);
  let tr = Obs.Trace.create () in
  Obs.Trace.run tr (fun () ->
      check_bool "on inside run" true (Obs.Trace.on Obs.Category.Pkt));
  check_bool "off again after run" false (Obs.Trace.on Obs.Category.Pkt)

let test_trace_category_filter () =
  let tr = Obs.Trace.create ~categories:[ Obs.Category.Stage ] () in
  Obs.Trace.run tr (fun () ->
      check_bool "subscribed category on" true (Obs.Trace.on Obs.Category.Stage);
      check_bool "unsubscribed category off" false (Obs.Trace.on Obs.Category.Pkt);
      Obs.Trace.emit (ev ~t:0.0 ~seq:0);
      Obs.Trace.emit (Obs.Event.Stage { t = 1.0; stage = "exploration"; base_rate = 1e6 }));
  check_int "only stage recorded" 1 (Obs.Trace.length tr)

(* Run boundaries are structural: they survive any category filter,
   because consumers need them to segment lanes whose sim clock
   restarts (a lane that runs several simulations back-to-back). *)
let test_run_boundary_survives_filter () =
  let tr = Obs.Trace.create ~categories:[ Obs.Category.Stage ] () in
  Obs.Trace.run tr (fun () ->
      check_bool "run category on despite filter" true
        (Obs.Trace.on Obs.Category.Run);
      Obs.Trace.emit (Obs.Event.Run_start { t = 0.0; label = "sim" });
      Obs.Trace.emit (Obs.Event.Stage { t = 1.0; stage = "exploration"; base_rate = 1e6 }));
  check_int "boundary + stage recorded" 2 (Obs.Trace.length tr);
  check_bool "boundary serializes" true
    (match Obs.Trace.events tr with
    | Obs.Event.Run_start { label = "sim"; _ } :: _ -> true
    | _ -> false)

let test_category_parse_filter () =
  check_bool "parses a list" true
    (Obs.Category.parse_filter "pkt, STAGE,rl"
    = Ok [ Obs.Category.Pkt; Obs.Category.Stage; Obs.Category.Rl ]);
  check_bool "rejects unknown" true
    (Result.is_error (Obs.Category.parse_filter "pkt,nope"));
  (* every category round-trips through its name *)
  check_bool "names roundtrip" true
    (List.for_all
       (fun c -> Obs.Category.of_string (Obs.Category.to_string c) = Some c)
       Obs.Category.all)

let test_trace_ring_overwrites_oldest () =
  let tr = Obs.Trace.create ~ring_capacity:4 () in
  Obs.Trace.run tr (fun () ->
      for i = 0 to 9 do
        Obs.Trace.emit (ev ~t:(float_of_int i) ~seq:i)
      done);
  check_int "capped at capacity" 4 (Obs.Trace.length tr);
  check_int "dropped count" 6 (Obs.Trace.dropped tr);
  let times = List.map Obs.Event.time (Obs.Trace.events tr) in
  check_bool "keeps the newest" true (times = [ 6.0; 7.0; 8.0; 9.0 ])

let test_trace_lane_merge_order () =
  let tr = Obs.Trace.create () in
  (* Register lanes out of order: merge must sort by lane id, not by
     registration (or scheduling) order. *)
  Obs.Trace.run tr ~lane:2 (fun () -> Obs.Trace.emit (ev ~t:9.0 ~seq:2));
  Obs.Trace.run tr ~lane:0 (fun () -> Obs.Trace.emit (ev ~t:5.0 ~seq:0));
  Obs.Trace.run tr ~lane:1 (fun () -> Obs.Trace.emit (ev ~t:7.0 ~seq:1));
  let seqs =
    List.map
      (function Obs.Event.Enqueue e -> e.seq | _ -> -1)
      (Obs.Trace.events tr)
  in
  check_bool "ascending lane order" true (seqs = [ 0; 1; 2 ])

let test_trace_nested_run_restores_outer () =
  let outer = Obs.Trace.create () in
  let inner = Obs.Trace.create () in
  Obs.Trace.run outer (fun () ->
      Obs.Trace.emit (ev ~t:0.0 ~seq:0);
      Obs.Trace.run inner (fun () -> Obs.Trace.emit (ev ~t:1.0 ~seq:1));
      Obs.Trace.emit (ev ~t:2.0 ~seq:2));
  check_int "outer got its two" 2 (Obs.Trace.length outer);
  check_int "inner got the nested one" 1 (Obs.Trace.length inner)

let test_trace_unobserved_masks () =
  let tr = Obs.Trace.create () in
  Obs.Trace.run tr (fun () ->
      Obs.Trace.emit (ev ~t:0.0 ~seq:0);
      Obs.Ambient.unobserved (fun () ->
          check_bool "off inside unobserved" false (Obs.Trace.on Obs.Category.Pkt);
          Obs.Trace.emit (ev ~t:1.0 ~seq:1));
      Obs.Trace.emit (ev ~t:2.0 ~seq:2));
  check_int "masked event not recorded" 2 (Obs.Trace.length tr)

(* Concurrent lanes: events land in the lane of the emitting task, and
   the export is identical however the tasks were scheduled. *)
let test_trace_parallel_lanes_deterministic () =
  let export pool_size =
    let pool = Exec.Pool.create ~size:pool_size () in
    Fun.protect
      ~finally:(fun () -> Exec.Pool.shutdown pool)
      (fun () ->
        let tr = Obs.Trace.create () in
        ignore
          (Exec.Pool.map pool
             (fun lane ->
               Obs.Trace.run tr ~lane (fun () ->
                   for i = 0 to 99 do
                     Obs.Trace.emit (ev ~t:(float_of_int i) ~seq:((1000 * lane) + i))
                   done))
             (Array.init 6 Fun.id));
        Obs.Trace.to_jsonl tr)
  in
  check_string "jsonl identical at pool sizes 1 and 4" (export 1) (export 4)

(* ------------------------------------------------------------------ *)
(* Exports *)

let test_jsonl_lines_parse_and_roundtrip () =
  let tr = Obs.Trace.create () in
  Obs.Trace.run tr (fun () ->
      Obs.Trace.emit (ev ~t:0.25 ~seq:3);
      Obs.Trace.emit
        (Obs.Event.Cycle
           { t = 1.5; chosen = "skip"; u_prev = nan; u_rl = nan; u_cl = nan; x_next = 2e6 });
      Obs.Trace.emit
        (Obs.Event.Rl_step
           { t = 2.0; episode = -1; step = 7; rate = 1.25e6; reward = nan; action = -0.5 }));
  let all_lines =
    String.split_on_char '\n' (Obs.Trace.to_jsonl tr)
    |> List.filter (fun l -> l <> "")
  in
  check_int "manifest header + three events" 4 (List.length all_lines);
  (* The first line is the provenance manifest, and it validates. *)
  (match Obs.Json.parse (List.hd all_lines) with
  | Error msg -> Alcotest.failf "manifest line does not parse: %s" msg
  | Ok m ->
    check_bool "manifest key present" true (Obs.Json.member "manifest" m <> None);
    (match Obs.Manifest.validate m with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "manifest invalid: %s" msg));
  let lines = List.tl all_lines in
  List.iter
    (fun line ->
      match Obs.Json.parse line with
      | Error msg -> Alcotest.failf "line %S does not parse: %s" line msg
      | Ok v ->
        check_bool "has t" true (Obs.Json.member "t" v <> None);
        check_bool "has ev" true
          (Option.bind (Obs.Json.member "ev" v) Obs.Json.str <> None))
    lines;
  (* Non-finite floats export as null. *)
  let skip_line = List.nth lines 1 in
  (match Obs.Json.parse skip_line with
  | Ok v ->
    check_bool "nan is null" true (Obs.Json.member "u_prev" v = Some Obs.Json.Null)
  | Error _ -> Alcotest.fail "skip line unparseable");
  (* CSV: header plus one row per event, fixed column count. *)
  let csv = Obs.Trace.to_csv tr in
  let rows = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  check_int "header + 3 rows" 4 (List.length rows);
  List.iter
    (fun row ->
      check_int "fixed column count" Obs.Event.csv_columns
        (List.length (String.split_on_char ',' row)))
    rows

(* One event of every variant must keep its exact export bytes in both
   formats: nan and infinite floats, negative ints, and free text holding
   ',' and '"'. The harness records come from the supervisor (a crash
   retried once), the way the program writes them. *)
let pinned_events () =
  let tr = Obs.Trace.create () in
  Obs.Trace.run tr (fun () ->
      List.iter Obs.Trace.emit
        Obs.Event.
          [
            Enqueue { t = 0.125; flow = 3; seq = -1; size = 1500; backlog = 0 };
            Dequeue { t = 1.0 /. 3.0; flow = 0; seq = 12; size = 1500; backlog = 3000 };
            Drop { t = 2.5; flow = -1; seq = 7; size = 40; reason = Codel };
            Link_rate { t = 3.0; rate = nan };
            Ack { t = 3.25; flow = 2; seq = 9; rtt = 0.0301; newly_lost = -2 };
            Rate { t = 3.5; flow = 1; pacing = Float.infinity; cwnd = 12.5 };
            Mi_snapshot
              {
                t = 4.0;
                duration = 0.05;
                throughput = 1.25e6;
                avg_rtt = nan;
                loss_rate = 0.0;
                rtt_gradient = -0.001;
                acked = 10;
                lost = -3;
              };
            Stage { t = 4.5; stage = "eval,low \"x\""; base_rate = 2e6 };
            Cycle { t = 5.0; chosen = "rl"; u_prev = nan; u_rl = 1.5; u_cl = -2.25; x_next = 3e6 };
            Rl_step { t = 5.5; episode = -1; step = 4; rate = 1e5; reward = nan; action = -0.5 };
            Fault { t = 6.0; flow = -1; seq = -1; kind = "link,down"; value = 1.0 };
            Run_start { t = 0.0; label = "a,b \"c\"" };
          ];
      ignore
        (Exec.Supervisor.protect ~retries:1 ~context:"pin,\"ctx\"" (fun ~attempt:_ ->
             failwith "x,y \"z\""));
      Obs.Trace.emit
        (Obs.Event.Violation
           { t = 7.0; name = "q,b"; kind = "always"; index = -1; detail = "failed: \"x\",y" }));
  Obs.Trace.events tr

let pinned_exports =
  [
    ( "{\"t\":0.125,\"lane\":0,\"ev\":\"enqueue\",\"flow\":3,\"seq\":-1,\"size\":1500,\"backlog\":0}\n",
      "0.125,0,enqueue,3,-1,1500,0,,,,,,,,,,,,,,,,,,,,,,,,,,,,,\n" );
    ( "{\"t\":0.333333333,\"lane\":0,\"ev\":\"dequeue\",\"flow\":0,\"seq\":12,\"size\":1500,\"backlog\":3000}\n",
      "0.333333333,0,dequeue,0,12,1500,3000,,,,,,,,,,,,,,,,,,,,,,,,,,,,,\n" );
    ( "{\"t\":2.5,\"lane\":0,\"ev\":\"drop\",\"flow\":-1,\"seq\":7,\"size\":40,\"reason\":\"codel\"}\n",
      "2.5,0,drop,-1,7,40,,codel,,,,,,,,,,,,,,,,,,,,,,,,,,,,\n" );
    ( "{\"t\":3,\"lane\":0,\"ev\":\"link_rate\",\"rate\":null}\n",
      "3,0,link_rate,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,\n" );
    ( "{\"t\":3.25,\"lane\":0,\"ev\":\"ack\",\"flow\":2,\"seq\":9,\"rtt\":0.0301,\"newly_lost\":-2}\n",
      "3.25,0,ack,2,9,,,,,,,0.0301,-2,,,,,,,,,,,,,,,,,,,,,,,\n" );
    ( "{\"t\":3.5,\"lane\":0,\"ev\":\"rate\",\"flow\":1,\"pacing\":null,\"cwnd\":12.5}\n",
      "3.5,0,rate,1,,,,,,,12.5,,,,,,,,,,,,,,,,,,,,,,,,,\n" );
    ( "{\"t\":4,\"lane\":0,\"ev\":\"mi_snapshot\",\"duration\":0.05,\"throughput\":1250000,\"avg_rtt\":null,\"loss_rate\":0,\"rtt_gradient\":-0.001,\"acked\":10,\"lost\":-3}\n",
      "4,0,mi_snapshot,,,,,,,,,,,0.05,1250000,,0,-0.001,10,-3,,,,,,,,,,,,,,,,\n" );
    ( "{\"t\":4.5,\"lane\":0,\"ev\":\"stage\",\"stage\":\"eval,low \\\"x\\\"\",\"base_rate\":2000000}\n",
      "4.5,0,stage,,,,,,2000000,,,,,,,,,,,,eval;low \"x\",,,,,,,,,,,,,,,\n" );
    ( "{\"t\":5,\"lane\":0,\"ev\":\"cycle\",\"chosen\":\"rl\",\"u_prev\":null,\"u_rl\":1.5,\"u_cl\":-2.25,\"x_next\":3000000}\n",
      "5,0,cycle,,,,,,,,,,,,,,,,,,,rl,,1.5,-2.25,3000000,,,,,,,,,,\n" );
    ( "{\"t\":5.5,\"lane\":0,\"ev\":\"rl_step\",\"episode\":-1,\"step\":4,\"rate\":100000,\"reward\":null,\"action\":-0.5}\n",
      "5.5,0,rl_step,,,,,,100000,,,,,,,,,,,,,,,,,,-1,4,,-0.5,,,,,,\n" );
    ( "{\"t\":6,\"lane\":0,\"ev\":\"fault\",\"flow\":-1,\"seq\":-1,\"kind\":\"link,down\",\"value\":1}\n",
      "6,0,fault,-1,-1,,,,,,,,,,,,,,,,,,,,,,,,,,,link;down,1,,,\n" );
    ( "{\"t\":0,\"lane\":0,\"ev\":\"run_start\",\"label\":\"a,b \\\"c\\\"\"}\n",
      "0,0,run_start,,,,,,,,,,,,,,,,,,,,,,,,,,,,a;b \"c\",,,,,\n" );
    ( "{\"t\":0,\"lane\":0,\"ev\":\"harness\",\"kind\":\"retry\",\"id\":\"pin,\\\"ctx\\\"\",\"detail\":\"Failure(\\\"x,y \\\\\\\"z\\\\\\\"\\\")\",\"attempt\":1,\"value\":0.0905064185}\n",
      "0,0,harness,,,,,,,,,,,,,,,,,,,,,,,,,,,,pin;\"ctx\",retry,0.0905064185,Failure(\"x;y \\\"z\\\"\"),1,\n" );
    ( "{\"t\":0,\"lane\":0,\"ev\":\"harness\",\"kind\":\"failure\",\"id\":\"pin,\\\"ctx\\\"\",\"detail\":\"Failure(\\\"x,y \\\\\\\"z\\\\\\\"\\\")\",\"attempt\":2,\"value\":0}\n",
      "0,0,harness,,,,,,,,,,,,,,,,,,,,,,,,,,,,pin;\"ctx\",failure,0,Failure(\"x;y \\\"z\\\"\"),2,\n" );
    ( "{\"t\":7,\"lane\":0,\"ev\":\"violation\",\"name\":\"q,b\",\"kind\":\"always\",\"index\":-1,\"detail\":\"failed: \\\"x\\\",y\"}\n",
      "7,0,violation,,,,,,,,,,,,,,,,,,,,,,,,,,,,q;b,always,,failed: \"x\";y,,-1\n" );
  ]

let test_export_bytes_pinned () =
  let events = pinned_events () in
  check_int "one export pair per event" (List.length pinned_exports) (List.length events);
  check_int "every event name covered" (List.length Obs.Event.all_names)
    (List.length (List.sort_uniq compare (List.map Obs.Event.name events)));
  List.iter2
    (fun ev (json, csv) ->
      let render f =
        let b = Buffer.create 128 in
        f ~lane:0 b ev;
        Buffer.contents b
      in
      check_string "jsonl bytes" json (render Obs.Event.to_json_line);
      check_string "csv bytes" csv (render Obs.Event.to_csv_row))
    events pinned_exports;
  let r = Obs.Rollup.create ~window:1.0 () in
  List.iter (Obs.Rollup.observe r)
    Obs.Event.
      [
        Enqueue { t = 0.1; flow = 0; seq = 0; size = 1500; backlog = 1500 };
        Dequeue { t = 0.2; flow = 0; seq = 0; size = 1500; backlog = 0 };
        Ack { t = 0.3; flow = 0; seq = 0; rtt = 0.03; newly_lost = 1 };
        Cycle { t = 0.4; chosen = "cl"; u_prev = nan; u_rl = 2.0; u_cl = 3.0; x_next = 1e6 };
        Mi_snapshot
          {
            t = 0.5;
            duration = 0.1;
            throughput = 1.0 /. 3.0;
            avg_rtt = 0.03;
            loss_rate = 0.0;
            rtt_gradient = 0.0;
            acked = 1;
            lost = 0;
          };
      ];
  let render f =
    let b = Buffer.create 256 in
    f r ~lane:2 b;
    Buffer.contents b
  in
  check_string "rollup jsonl bytes"
    "{\"lane\":2,\"run\":0,\"window\":0,\"t0\":0,\"t1\":1,\"events\":5,\"enq\":1,\"deq\":1,\"drops\":0,\"delivered\":1500,\"q_min\":0,\"q_mean\":750,\"q_max\":1500,\"acks\":1,\"lost\":1,\"rate_mean\":null,\"rate_max\":null,\"mi_tput_mean\":0.333333333,\"u_prev_mean\":null,\"u_rl_mean\":2,\"u_cl_mean\":3,\"cycles\":1}\n"
    (render Obs.Rollup.add_jsonl);
  check_string "rollup csv bytes"
    "2,0,0,0,1,5,1,1,0,1500,0,750,1500,1,1,,,0.333333333,,2,3,1\n"
    (render Obs.Rollup.add_csv)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_counters_and_gauges () =
  let c = Obs.Metrics.counter "test.counter" in
  let g = Obs.Metrics.gauge "test.gauge" in
  let reg = Obs.Metrics.create_registry () in
  (* No registry installed: updates are dropped. *)
  Obs.Metrics.incr c;
  Obs.Metrics.run reg (fun () ->
      Obs.Metrics.incr c;
      Obs.Metrics.add c 4;
      Obs.Metrics.set g 2.5);
  Obs.Metrics.incr c;
  let rows = Obs.Metrics.dump reg in
  check_bool "counter is 5" true
    (List.mem ("test.counter", "counter", "count", "5") rows);
  check_bool "gauge is 2.5" true
    (List.mem ("test.gauge", "gauge", "value", "2.5") rows)

let test_metrics_histogram_buckets () =
  let h = Obs.Metrics.histogram "test.hist" ~bounds:[| 1.0; 10.0 |] in
  let reg = Obs.Metrics.create_registry () in
  Obs.Metrics.run reg (fun () ->
      List.iter (Obs.Metrics.observe h) [ 0.5; 0.9; 5.0; 50.0 ]);
  let rows = Obs.Metrics.dump reg in
  check_bool "le_1 = 2" true (List.mem ("test.hist", "histogram", "le_1", "2") rows);
  check_bool "le_10 = 1" true (List.mem ("test.hist", "histogram", "le_10", "1") rows);
  check_bool "overflow = 1" true (List.mem ("test.hist", "histogram", "le_inf", "1") rows);
  check_bool "count = 4" true (List.mem ("test.hist", "histogram", "count", "4") rows)

let test_metrics_merge_rules () =
  let c = Obs.Metrics.counter "test.merge.counter" in
  let g = Obs.Metrics.gauge "test.merge.gauge" in
  let a = Obs.Metrics.create_registry () in
  let b = Obs.Metrics.create_registry () in
  Obs.Metrics.run a (fun () ->
      Obs.Metrics.add c 3;
      Obs.Metrics.set g 1.0);
  Obs.Metrics.run b (fun () -> Obs.Metrics.add c 4);
  let merged = Obs.Metrics.create_registry () in
  Obs.Metrics.merge ~into:merged a;
  Obs.Metrics.merge ~into:merged b;
  let rows = Obs.Metrics.dump merged in
  check_bool "counters add" true
    (List.mem ("test.merge.counter", "counter", "count", "7") rows);
  (* b never wrote the gauge, so a's write survives the later merge. *)
  check_bool "unwritten gauge does not overwrite" true
    (List.mem ("test.merge.gauge", "gauge", "value", "1") rows)

let test_metrics_reregistration () =
  let a = Obs.Metrics.counter "test.rereg" in
  let b = Obs.Metrics.counter "test.rereg" in
  check_bool "same probe" true (a = b);
  check_bool "kind mismatch rejected" true
    (try
       ignore (Obs.Metrics.gauge "test.rereg");
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Mini JSON *)

let test_json_roundtrip () =
  let src = {|{"a": 1.5, "b": [true, null, "x\ny"], "c": {"d": -2e3}}|} in
  match Obs.Json.parse src with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok v ->
    check_bool "a" true (Option.bind (Obs.Json.member "a" v) Obs.Json.num = Some 1.5);
    (* Printing then reparsing yields the same tree. *)
    (match Obs.Json.parse (Obs.Json.to_string v) with
    | Ok v2 -> check_bool "roundtrip" true (v = v2)
    | Error msg -> Alcotest.failf "reparse failed: %s" msg)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "rejects %S" s) true
        (match Obs.Json.parse s with Error _ -> true | Ok _ -> false))
    [ ""; "{"; "{\"a\":}"; "[1,]"; "nul"; "{\"a\":1} trailing" ]

let test_json_set_member () =
  let v = Obs.Json.Obj [ ("a", Obs.Json.Num 1.0) ] in
  let v = Obs.Json.set_member "b" (Obs.Json.Num 2.0) v in
  let v = Obs.Json.set_member "a" (Obs.Json.Num 9.0) v in
  check_bool "replaced" true (Option.bind (Obs.Json.member "a" v) Obs.Json.num = Some 9.0);
  check_bool "appended" true (Option.bind (Obs.Json.member "b" v) Obs.Json.num = Some 2.0)

(* ------------------------------------------------------------------ *)
(* Spans *)

let test_span_disabled_noop () =
  check_bool "disabled outside run" false (Obs.Span.enabled ());
  let p = Obs.Span.probe "t.span.noop" in
  (* Without a recorder, timed is transparent: value through, nothing
     recorded anywhere. *)
  check_int "value passes through" 41 (Obs.Span.timed p (fun () -> 41));
  check_bool "still disabled" false (Obs.Span.enabled ())

let test_span_nesting_structure () =
  let a = Obs.Span.probe "t.span.a" in
  let b = Obs.Span.probe "t.span.b" in
  let t = Obs.Span.create () in
  Obs.Span.run t ~lane:0 (fun () ->
      check_bool "enabled inside run" true (Obs.Span.enabled ());
      Obs.Span.timed a (fun () ->
          Obs.Span.timed b Fun.id;
          Obs.Span.timed b Fun.id));
  check_string "calling-context digest"
    "lane 0\n  t.span.a x1\n    t.span.b x2\n" (Obs.Span.structure t)

let test_span_exception_safety () =
  let a = Obs.Span.probe "t.span.raise" in
  let t = Obs.Span.create () in
  (try
     Obs.Span.run t ~lane:0 (fun () ->
         Obs.Span.timed a (fun () -> failwith "boom"))
   with Failure _ -> ());
  (* The span closed on the way out, and the recorder uninstalled. *)
  check_string "span recorded despite raise" "lane 0\n  t.span.raise x1\n"
    (Obs.Span.structure t);
  check_bool "disabled again after raising run" false (Obs.Span.enabled ())

let test_span_unobserved_masks () =
  let a = Obs.Span.probe "t.span.outer" in
  let b = Obs.Span.probe "t.span.masked" in
  let t = Obs.Span.create () in
  Obs.Span.run t ~lane:0 (fun () ->
      Obs.Span.timed a (fun () ->
          Obs.Ambient.unobserved (fun () ->
              check_bool "disabled inside unobserved" false (Obs.Span.enabled ());
              Obs.Span.timed b Fun.id)));
  check_string "masked span dropped, outer kept"
    "lane 0\n  t.span.outer x1\n" (Obs.Span.structure t)

let test_span_lane_merge_and_sort () =
  let a = Obs.Span.probe "t.span.lane" in
  let t = Obs.Span.create () in
  (* Lanes registered out of order, lane 0 twice: export sorts by lane
     id and merges same-lane contexts by call path. *)
  Obs.Span.run t ~lane:2 (fun () -> Obs.Span.timed a Fun.id);
  Obs.Span.run t ~lane:0 (fun () -> Obs.Span.timed a Fun.id);
  Obs.Span.run t ~lane:0 (fun () -> Obs.Span.timed a Fun.id);
  check_string "sorted + merged"
    "lane 0\n  t.span.lane x2\nlane 2\n  t.span.lane x1\n"
    (Obs.Span.structure t);
  check_bool "two exported lanes" true
    (List.map fst (Obs.Span.lanes_json t) = [ 0; 2 ])

let test_span_json_sanity () =
  let a = Obs.Span.probe "t.span.json.a" in
  let b = Obs.Span.probe "t.span.json.b" in
  let t = Obs.Span.create () in
  Obs.Span.run t ~lane:0 (fun () ->
      Obs.Span.timed a (fun () ->
          Obs.Span.timed b (fun () ->
              ignore (Sys.opaque_identity (List.init 1000 Fun.id)))));
  let num k n = Option.value ~default:nan (Option.bind (Obs.Json.member k n) Obs.Json.num) in
  match Obs.Span.lanes_json t with
  | [ (0, Obs.Json.List [ root ]) ] ->
    check_bool "named" true
      (Option.bind (Obs.Json.member "name" root) Obs.Json.str = Some "t.span.json.a");
    let total = num "total_s" root and self = num "self_s" root in
    check_bool "total >= self >= 0" true (total >= self && self >= 0.0);
    (match Obs.Json.member "children" root with
    | Some (Obs.Json.List [ kid ]) ->
      check_bool "child named" true
        (Option.bind (Obs.Json.member "name" kid) Obs.Json.str = Some "t.span.json.b");
      check_bool "child inside parent" true (num "total_s" kid <= total);
      check_bool "allocation attributed" true
        (num "minor_words" kid +. num "major_words" kid > 0.0)
    | _ -> Alcotest.fail "expected exactly one child")
  | _ -> Alcotest.fail "expected a single lane with a single root"

(* A span counts every minor word allocated inside it, also when no
   minor collection runs before it closes: after [Gc.minor], a 1000-cell
   list (3 words a cell, far below one minor heap) must read at least
   3000 words. *)
let test_span_counts_minor_words () =
  let a = Obs.Span.probe "t.span.words" in
  let t = Obs.Span.create () in
  let cells = 1000 in
  Gc.minor ();
  Obs.Span.run t ~lane:0 (fun () ->
      Obs.Span.timed a (fun () -> ignore (Sys.opaque_identity (List.init cells Fun.id))));
  match Obs.Span.lanes_json t with
  | [ (0, Obs.Json.List [ root ]) ] ->
    let words =
      Option.value ~default:nan
        (Option.bind (Obs.Json.member "minor_words" root) Obs.Json.num)
    in
    check_bool
      (Printf.sprintf "span minor words %.0f >= %d" words (3 * cells))
      true
      (words >= float_of_int (3 * cells))
  | _ -> Alcotest.fail "expected a single lane with a single root"

(* End-to-end attribution: running a real scenario under a recorder,
   the named top-level spans must cover nearly all of the measured wall
   time (the >= 90% acceptance threshold, with margin for test noise). *)
let test_span_attribution () =
  let t = Obs.Span.create () in
  let wall0 = Unix.gettimeofday () in
  let spec = Harness.Scenario.make_spec (Traces.Rate.constant 24.0) in
  ignore
    (Obs.Span.run t ~lane:0 (fun () ->
         Harness.Scenario.run_uniform ~seed:11 ~factory:Harness.Ccas.cubic
           ~duration:10.0 spec));
  let wall = Unix.gettimeofday () -. wall0 in
  check_bool "netsim.run span present" true
    (let s = Obs.Span.structure t in
     let contains sub =
       let n = String.length sub and m = String.length s in
       let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     contains "netsim.run" && contains "sim.loop");
  match Obs.Span.lanes_json t with
  | [ (0, spans) ] ->
    let frac = Obs.Perf.attributed_fraction ~spans ~wall in
    check_bool
      (Printf.sprintf "top-level spans cover >= 90%% of wall (got %.1f%%)"
         (100.0 *. frac))
      true
      (frac >= 0.9 && frac <= 1.5)
  | _ -> Alcotest.fail "expected one lane"

(* ------------------------------------------------------------------ *)
(* Manifests *)

let test_manifest_validates () =
  let m = Obs.Manifest.make ~seeds:[ 1; 2 ] ~scale:"quick" ~domains:4 () in
  (match Obs.Manifest.validate m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fresh manifest rejected: %s" e);
  check_bool "header is one line" true
    (not (String.contains (Obs.Manifest.header_line m) '\n'))

let test_manifest_rejects_bad_sha () =
  let m = Obs.Manifest.make () in
  let bad = Obs.Json.set_member "git_sha" (Obs.Json.Str "NOT-HEX!") m in
  check_bool "garbage sha rejected" true
    (match Obs.Manifest.validate bad with Error _ -> true | Ok () -> false);
  (* "unknown" is the sanctioned no-git fallback. *)
  let unknown = Obs.Json.set_member "git_sha" (Obs.Json.Str "unknown") m in
  check_bool "unknown sha accepted" true
    (match Obs.Manifest.validate unknown with Ok () -> true | Error _ -> false)

let test_manifest_rejects_missing_key () =
  match Obs.Manifest.make () with
  | Obs.Json.Obj kvs ->
    let without = Obs.Json.Obj (List.remove_assoc "scale" kvs) in
    check_bool "missing scale rejected" true
      (match Obs.Manifest.validate without with Error _ -> true | Ok () -> false)
  | _ -> Alcotest.fail "manifest is not an object"

(* ------------------------------------------------------------------ *)
(* Histogram quantiles *)

let q_probe = Obs.Metrics.histogram "test.quantile" ~bounds:[| 1.0; 5.0; 10.0 |]

let test_quantile_empty () =
  let reg = Obs.Metrics.create_registry () in
  List.iter
    (fun q ->
      check_bool
        (Printf.sprintf "empty histogram -> None at q=%g" q)
        true
        (Obs.Metrics.quantile reg q_probe q = None))
    [ 0.0; 0.5; 1.0 ];
  (* Non-histogram probes have no quantiles either. *)
  let c = Obs.Metrics.counter "test.quantile.counter" in
  Obs.Metrics.run reg (fun () -> Obs.Metrics.incr c);
  check_bool "counter -> None" true (Obs.Metrics.quantile reg c 0.5 = None)

let test_quantile_single_sample () =
  let reg = Obs.Metrics.create_registry () in
  Obs.Metrics.run reg (fun () -> Obs.Metrics.observe q_probe 3.0);
  (* One sample in the (1, 5] bucket: every q reports that bucket's
     upper bound — constant, hence trivially monotone. *)
  List.iter
    (fun q ->
      check_bool
        (Printf.sprintf "single sample -> bucket upper bound at q=%g" q)
        true
        (Obs.Metrics.quantile reg q_probe q = Some 5.0))
    [ 0.0; 0.5; 1.0 ]

let quantile_monotone_prop =
  QCheck.Test.make ~count:200 ~name:"quantile monotone in q"
    QCheck.(small_list (float_range 0.0 100.0))
    (fun samples ->
      let reg = Obs.Metrics.create_registry () in
      Obs.Metrics.run reg (fun () ->
          List.iter (Obs.Metrics.observe q_probe) samples);
      let qs = List.init 11 (fun i -> float_of_int i /. 10.0) in
      let vals = List.map (Obs.Metrics.quantile reg q_probe) qs in
      match samples with
      | [] -> List.for_all (( = ) None) vals
      | _ ->
        let rec monotone = function
          | Some a :: (Some b :: _ as rest) -> a <= b && monotone rest
          | [ Some _ ] -> true
          | _ -> false
        in
        monotone vals)

(* ------------------------------------------------------------------ *)
(* Perf history: baseline choice and the regression gate, on a
   synthetic two-run fixture (fig1 regresses 50%, fig2 is flat). *)

let perf_fixture =
  String.concat "\n"
    [
      {|{"manifest":{"manifest":1},"scale":"quick","domains":1,"subset":"all","experiments":{"fig1":1.0,"fig2":2.0},"total_wall_s":3.0,"spans":null}|};
      {|{"manifest":{"manifest":1},"scale":"full","domains":1,"subset":"all","experiments":{"fig1":9.0,"fig2":9.0},"total_wall_s":18.0,"spans":null}|};
      {|{"manifest":{"manifest":1},"scale":"quick","domains":1,"subset":"all","experiments":{"fig1":1.5,"fig2":2.0},"total_wall_s":3.5,"spans":null}|};
    ]

let test_perf_gate_fixture () =
  match Obs.Perf.parse_history perf_fixture with
  | Error e -> Alcotest.failf "fixture does not parse: %s" e
  | Ok entries ->
    check_int "three entries" 3 (List.length entries);
    let candidate = List.nth entries 2 in
    (match Obs.Perf.find_baseline entries ~candidate with
    | None -> Alcotest.fail "no baseline found"
    | Some baseline ->
      (* The full-scale entry in between must be skipped: baselines
         only compare like scale with like. *)
      check_int "baseline skips the full-scale entry" 0 baseline.Obs.Perf.index;
      let deltas = Obs.Perf.compare_entries ~baseline ~candidate in
      check_int "both shared experiments compared" 2 (List.length deltas);
      let flagged threshold =
        List.map
          (fun d -> d.Obs.Perf.group)
          (Obs.Perf.regressions ~threshold_pct:threshold deltas)
      in
      check_bool "gate 20 flags the 50% regression" true (flagged 20.0 = [ "fig1" ]);
      check_bool "gate 60 passes" true (flagged 60.0 = []));
    (* Trend quantiles over the history exercise the 1-2 sample
       quantile edge cases without crashing. *)
    let trend = Obs.Perf.trend entries in
    check_int "trend covers both experiments" 2 (List.length trend)

(* An events-per-sec row written before "logical" existed (the rate
   under "experiments", summed into total_wall_s) against a new-schema
   row holding the rate under "logical" next to a wall metric: the
   rate still pairs by name, as a logical metric, and stays out of the
   wall total. *)
let perf_schema_fixture =
  String.concat "\n"
    [
      {|{"manifest":{"manifest":1},"scale":"quick","domains":1,"subset":["events-per-sec"],"experiments":{"arena-logical-kev-per-simsec":501.598},"total_wall_s":501.598,"spans":null}|};
      {|{"manifest":{"manifest":1},"scale":"quick","domains":1,"subset":["chaos-overhead","events-per-sec"],"experiments":{"chaos-off":0.05},"logical":{"chaos-off-count":200,"arena-logical-kev-per-simsec":501.598},"total_wall_s":0.05,"spans":null}|};
    ]

let test_perf_schema_mix () =
  match Obs.Perf.parse_history perf_schema_fixture with
  | Error e -> Alcotest.failf "fixture does not parse: %s" e
  | Ok entries ->
    let candidate = List.nth entries 1 in
    (match Obs.Perf.find_baseline entries ~candidate with
    | None -> Alcotest.fail "the old-schema row is not a baseline"
    | Some baseline -> (
      match Obs.Perf.compare_entries ~baseline ~candidate with
      | [ d ] as deltas ->
        check_string "the rate pairs by name" "arena-logical-kev-per-simsec"
          d.Obs.Perf.group;
        check_bool "the rate is logical" true d.Obs.Perf.logical;
        check_bool "the wall total excludes the rate" true
          (Obs.Perf.wall_totals deltas = (0.0, 0.0))
      | deltas -> Alcotest.failf "expected one delta, got %d" (List.length deltas)));
    check_bool "the rate is not a wall-time trend" true
      (List.for_all (fun (g, _, _, _) -> g = "chaos-off") (Obs.Perf.trend entries))

let test_perf_gate_empty_and_garbage () =
  (match Obs.Perf.parse_history "" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty history should have no entries"
  | Error e -> Alcotest.failf "empty history should parse: %s" e);
  check_bool "garbage line reported with its entry number" true
    (match Obs.Perf.parse_history "{\"ok\":1}\nnot json" with
    | Error e -> String.length e > 0
    | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Deterministic flow sampling *)

let test_sample_parse_and_render () =
  (match Obs.Sample.parse "1/8" with
  | Ok s ->
    check_int "denominator" 8 (Obs.Sample.denominator s);
    check_string "renders 1/N" "1/8" (Obs.Sample.to_string s)
  | Error e -> Alcotest.failf "\"1/8\" rejected: %s" e);
  (match Obs.Sample.parse "16" with
  | Ok s -> check_int "bare N accepted" 16 (Obs.Sample.denominator s)
  | Error e -> Alcotest.failf "\"16\" rejected: %s" e);
  List.iter
    (fun bad ->
      check_bool (Printf.sprintf "rejects %S" bad) true
        (match Obs.Sample.parse bad with Error _ -> true | Ok _ -> false))
    [ ""; "0"; "1/0"; "-3"; "2/4"; "x"; "1/" ]

let test_sample_deterministic_and_unbiased () =
  let s = Obs.Sample.create ~seed:7 8 in
  let s' = Obs.Sample.create ~seed:7 8 in
  let kept =
    List.filter (fun f -> Obs.Sample.keep s ~flow:f) (List.init 4096 Fun.id)
  in
  check_bool "pure function of (seed, flow)" true
    (List.for_all (fun f -> Obs.Sample.keep s' ~flow:f) kept);
  (* Keep count within ~4 sigma of 4096/8 = 512 (sigma ~ 21). *)
  let n = List.length kept in
  check_bool (Printf.sprintf "fraction near 1/8 (kept %d/4096)" n) true
    (n > 512 - 90 && n < 512 + 90);
  (* A different seed keeps a different flow set. *)
  let s2 = Obs.Sample.create ~seed:8 8 in
  check_bool "seed changes the kept set" true
    (List.exists (fun f -> not (Obs.Sample.keep s2 ~flow:f)) kept);
  (* Structural (negative-flow) events and 1/1 sampling always keep. *)
  check_bool "flow-less always kept" true (Obs.Sample.keep s ~flow:(-1));
  let all = Obs.Sample.create 1 in
  check_bool "1/1 keeps everything" true
    (List.for_all (fun f -> Obs.Sample.keep all ~flow:f) (List.init 100 Fun.id))

(* 64 slots of flow-scoped events over 32 flows, each followed by a
   flow-less structural event — the skeleton sampling must preserve. *)
let mixed_events =
  List.concat_map
    (fun i ->
      let t = 0.01 *. float_of_int i in
      let flow = i mod 32 in
      [
        Obs.Event.Enqueue { t; flow; seq = i; size = 1500; backlog = 1500 };
        Obs.Event.Ack { t; flow; seq = i; rtt = 0.05; newly_lost = 0 };
        Obs.Event.Link_rate { t; rate = 3e6 };
      ])
    (List.init 64 Fun.id)

(* The exported sampled trace must equal an offline [Sample.keep]
   filter of the full trace: the head-based decision at the probe site
   and a post-hoc filter over the unsampled export agree exactly. *)
let test_sampled_trace_equals_offline_filter () =
  let s = Obs.Sample.create ~seed:11 4 in
  let run sample =
    let tr = Obs.Trace.create ?sample () in
    Obs.Trace.run tr (fun () ->
        (* Probe guard agrees with the pure decision at every site. *)
        List.iter
          (fun ev ->
            let flow = Obs.Event.flow_id ev in
            check_bool "on_flow mirrors Sample.keep"
              (match sample with
              | Some s -> Obs.Sample.keep s ~flow
              | None -> true)
              (Obs.Trace.on_flow (Obs.Event.category ev) ~flow);
            Obs.Trace.emit ev)
          mixed_events);
    tr
  in
  let sampled = run (Some s) and full = run None in
  let expected =
    List.filter
      (fun ev -> Obs.Sample.keep s ~flow:(Obs.Event.flow_id ev))
      (Obs.Trace.events full)
  in
  check_bool "some flows dropped" true
    (Obs.Trace.length sampled < Obs.Trace.length full);
  check_int "flow-less events all kept" 64
    (List.length
       (List.filter (fun ev -> Obs.Event.flow_id ev < 0) (Obs.Trace.events sampled)));
  check_bool "sampled trace = offline filter of the full trace" true
    (Obs.Trace.events sampled = expected);
  check_string "csv bytes agree with the filtered event set"
    (Obs.Trace.to_csv sampled)
    (let tr = Obs.Trace.create () in
     Obs.Trace.run tr (fun () -> List.iter Obs.Trace.emit expected);
     Obs.Trace.to_csv tr)

(* ------------------------------------------------------------------ *)
(* Windowed rollups *)

let test_rollup_windows_and_fields () =
  let r = Obs.Rollup.create ~window:1.0 () in
  List.iter (Obs.Rollup.observe r)
    [
      Obs.Event.Enqueue { t = 0.2; flow = 0; seq = 0; size = 1500; backlog = 3000 };
      Obs.Event.Dequeue { t = 0.5; flow = 0; seq = 0; size = 1500; backlog = 1500 };
      Obs.Event.Drop { t = 1.2; flow = 0; seq = 1; size = 1500; reason = Obs.Event.Tail };
      Obs.Event.Ack { t = 2.5; flow = 0; seq = 0; rtt = 0.05; newly_lost = 2 };
    ];
  Obs.Rollup.flush r;
  check_int "three completed windows" 3 (Obs.Rollup.windows r);
  match Obs.Rollup.rows r with
  | [ w0; w1; w2 ] ->
    check_int "w0 index" 0 w0.Obs.Rollup.window;
    check_bool "w0 bounds" true (w0.Obs.Rollup.t0 = 0.0 && w0.Obs.Rollup.t1 = 1.0);
    check_int "w0 events" 2 w0.Obs.Rollup.events;
    check_int "w0 enqueues" 1 w0.Obs.Rollup.enq;
    check_int "w0 delivered bytes" 1500 w0.Obs.Rollup.delivered;
    check_int "w0 q_min" 1500 w0.Obs.Rollup.q_min;
    check_int "w0 q_max" 3000 w0.Obs.Rollup.q_max;
    check_bool "w0 q_mean" true (w0.Obs.Rollup.q_mean = 2250.0);
    check_bool "w0 rate_mean nan (no sample)" true
      (Float.is_nan w0.Obs.Rollup.rate_mean);
    check_int "w1 index" 1 w1.Obs.Rollup.window;
    check_int "w1 drops" 1 w1.Obs.Rollup.drops;
    check_int "w1 q samples absent -> 0" 0 w1.Obs.Rollup.q_max;
    check_int "w2 index" 2 w2.Obs.Rollup.window;
    check_int "w2 acks" 1 w2.Obs.Rollup.acks;
    check_int "w2 lost" 2 w2.Obs.Rollup.lost
  | rows -> Alcotest.failf "expected three rows, got %d" (List.length rows)

let test_rollup_run_start_segments () =
  let enq t =
    Obs.Event.Enqueue { t; flow = 0; seq = 0; size = 100; backlog = 100 }
  in
  let r = Obs.Rollup.create ~window:1.0 () in
  List.iter (Obs.Rollup.observe r)
    [
      Obs.Event.Run_start { t = 0.0; label = "a" };
      enq 0.5;
      enq 2.5;
      (* clock restarts: window indexing must too *)
      Obs.Event.Run_start { t = 0.0; label = "b" };
      enq 0.25;
    ];
  Obs.Rollup.flush r;
  match Obs.Rollup.rows r with
  | [ a0; a2; b0 ] ->
    check_bool "first run is 0" true
      (a0.Obs.Rollup.run = 0 && a0.Obs.Rollup.window = 0);
    check_bool "second window of run 0" true
      (a2.Obs.Rollup.run = 0 && a2.Obs.Rollup.window = 2);
    check_bool "run counter advances, windows restart" true
      (b0.Obs.Rollup.run = 1 && b0.Obs.Rollup.window = 0)
  | rows -> Alcotest.failf "expected three rows, got %d" (List.length rows)

(* Deterministic synthetic event mix for the online/offline property:
   every rollup-relevant variant, some with non-finite payloads. *)
let rollup_event i t =
  let flow = i mod 3 in
  match i mod 8 with
  | 0 -> Obs.Event.Enqueue { t; flow; seq = i; size = 1500; backlog = 1500 * (1 + (i mod 4)) }
  | 1 -> Obs.Event.Dequeue { t; flow; seq = i; size = 1200; backlog = 300 * (i mod 5) }
  | 2 -> Obs.Event.Drop { t; flow; seq = i; size = 1500; reason = Obs.Event.Tail }
  | 3 -> Obs.Event.Ack { t; flow; seq = i; rtt = 0.05; newly_lost = i mod 2 }
  | 4 ->
    Obs.Event.Rate
      { t; flow; pacing = 1e6 *. (1.0 +. float_of_int (i mod 7)); cwnd = 10.0 }
  | 5 ->
    Obs.Event.Mi_snapshot
      {
        t;
        duration = 0.1;
        throughput = 2e6 +. float_of_int i;
        avg_rtt = 0.05;
        loss_rate = 0.0;
        rtt_gradient = 0.0;
        acked = 10;
        lost = 0;
      }
  | 6 ->
    Obs.Event.Cycle
      { t; chosen = "rl"; u_prev = 1.5; u_rl = nan; u_cl = 0.25; x_next = 1e6 }
  | _ -> Obs.Event.Link_rate { t; rate = 3e6 }

(* The online rollup (a [Trace.run] observer fed as events are
   emitted) and an offline replay over the trace's exported events
   must produce byte-identical CSV — the aggregates are a pure fold
   over the admitted stream. *)
let rollup_online_offline_prop =
  QCheck.Test.make ~count:100 ~name:"rollup online = offline replay of the export"
    QCheck.(list (pair (int_bound 99) (float_range 0.0 0.35)))
    (fun steps ->
      let events =
        let t = ref 0.0 in
        List.map
          (fun (k, dt) ->
            if k >= 95 then begin
              t := 0.0;
              Obs.Event.Run_start { t = 0.0; label = "run" }
            end
            else begin
              t := !t +. dt;
              rollup_event k !t
            end)
          steps
      in
      let online = Obs.Rollup.create ~window:0.1 () in
      let tr = Obs.Trace.create () in
      Obs.Trace.run tr ~observer:(Obs.Rollup.observe online) (fun () ->
          List.iter Obs.Trace.emit events);
      let offline = Obs.Rollup.create ~window:0.1 () in
      List.iter (Obs.Rollup.observe offline) (Obs.Trace.events tr);
      let render r =
        let b = Buffer.create 1024 in
        Obs.Rollup.add_csv r ~lane:0 b;
        Buffer.contents b
      in
      render online = render offline)

(* ------------------------------------------------------------------ *)
(* CSV schema widening *)

(* Consumers derive the expected column count from the emitted header
   (the schema has already grown 33 -> 35 -> 36 columns); nothing may
   hardcode it. *)
let test_csv_width_derived_from_header () =
  check_int "width of the event header" Obs.Event.csv_columns
    (Obs.Event.csv_width_of_header Obs.Event.csv_header);
  check_int "a future widened header widens the derived width"
    (Obs.Event.csv_columns + 2)
    (Obs.Event.csv_width_of_header (Obs.Event.csv_header ^ ",future_a,future_b"));
  check_int "single column" 1 (Obs.Event.csv_width_of_header "t");
  (* Rollup rows are exactly as wide as the rollup header says. *)
  let r = Obs.Rollup.create ~window:1.0 () in
  Obs.Rollup.observe r
    (Obs.Event.Enqueue { t = 0.1; flow = 0; seq = 0; size = 1; backlog = 1 });
  let b = Buffer.create 64 in
  Obs.Rollup.add_csv r ~lane:0 b;
  let w = Obs.Event.csv_width_of_header Obs.Rollup.csv_header in
  let rows =
    String.split_on_char '\n' (Buffer.contents b)
    |> List.filter (fun l -> l <> "")
  in
  check_bool "at least one rollup row" true (rows <> []);
  List.iter
    (fun row ->
      check_int "rollup row width" w (List.length (String.split_on_char ',' row)))
    rows

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let test_flight_ring_bounds () =
  let fl = Obs.Flight.create ~capacity:4 () in
  check_bool "inactive outside run" false (Obs.Flight.active ());
  Obs.Flight.run fl ~lane:3 (fun () ->
      check_bool "active inside run" true (Obs.Flight.active ());
      (* No tracer session: emit still feeds the flight ring. *)
      for i = 0 to 9 do
        Obs.Trace.emit (ev ~t:(float_of_int i) ~seq:i)
      done;
      Obs.Ambient.unobserved (fun () ->
          check_bool "unobserved masks the ring" false (Obs.Flight.active ());
          Obs.Trace.emit (ev ~t:99.0 ~seq:99)));
  check_bool "inactive again after run" false (Obs.Flight.active ());
  check_int "overwrites counted" 6 (Obs.Flight.dropped fl);
  match Obs.Flight.events fl with
  | [ (3, evs) ] ->
    check_bool "keeps the newest, oldest first" true
      (List.map Obs.Event.time evs = [ 6.0; 7.0; 8.0; 9.0 ])
  | lanes -> Alcotest.failf "expected exactly lane 3, got %d lane(s)" (List.length lanes)

let with_flight_dump_dir name f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "libra-%s-%d" name (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let saved = Obs.Flight.dump_dir () in
  Obs.Flight.set_dump_dir dir;
  Fun.protect ~finally:(fun () -> Obs.Flight.set_dump_dir saved) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_flight_dump_deterministic () =
  check_bool "no recorder -> no dump" true (Obs.Flight.dump ~reason:"x" () = None);
  with_flight_dump_dir "flight-dump" (fun dir ->
      let fl = Obs.Flight.create ~capacity:8 () in
      let dumped =
        Obs.Flight.run fl ~lane:1 (fun () ->
            for i = 0 to 2 do
              Obs.Trace.emit (ev ~t:(float_of_int i) ~seq:i)
            done;
            Obs.Flight.dump ~reason:"task 7/fig: crash!" ())
      in
      match dumped with
      | None -> Alcotest.fail "dump returned None inside a flight run"
      | Some (path, n) ->
        check_int "three events dumped" 3 n;
        check_string "reason sanitized into the file name"
          (Filename.concat dir "flight-task-7-fig--crash-.jsonl")
          path;
        (* Each line parses as an event carrying the ring's lane. *)
        let lines =
          String.split_on_char '\n' (read_file path)
          |> List.filter (fun l -> l <> "")
        in
        check_int "one line per event" 3 (List.length lines);
        List.iter
          (fun line ->
            match Obs.Json.parse line with
            | Error m -> Alcotest.failf "dump line %S: %s" line m
            | Ok v ->
              check_bool "lane stamped" true
                (Option.bind (Obs.Json.member "lane" v) Obs.Json.num = Some 1.0))
          lines)

(* A supervised failure inside a pool task that has no ring of its own:
   the dump is written at the join, where the caller's ring holds what it
   holds inline, so the file is the same at any pool size. The caller's
   ring is full before the fan-out, which makes the reported count exact
   too (it cannot see earlier siblings' events otherwise). *)
let test_flight_dump_from_pool_task () =
  let run size =
    with_flight_dump_dir (Printf.sprintf "flight-pool-%d" size) (fun dir ->
        let pool = Exec.Pool.create ~size () in
        Fun.protect
          ~finally:(fun () -> Exec.Pool.shutdown pool)
          (fun () ->
            let fl = Obs.Flight.create ~capacity:16 () in
            let reported =
              Obs.Flight.run fl (fun () ->
                  for i = 0 to 19 do
                    Obs.Trace.emit (ev ~t:(float_of_int i) ~seq:i)
                  done;
                  Exec.Pool.map pool
                    (fun task ->
                      (* more than twice the ring: the task's log is cut
                         back to the ring's worth, counted as overwrites *)
                      for k = 0 to 39 do
                        Obs.Trace.emit (ev ~t:(float_of_int k) ~seq:((100 * task) + k))
                      done;
                      if task <> 2 then None
                      else
                        match
                          Exec.Supervisor.protect ~context:"nested" (fun ~attempt:_ ->
                              failwith "boom")
                        with
                        | Ok () -> None
                        | Error f -> Option.map snd f.Exec.Supervisor.flight)
                    (Array.init 5 Fun.id))
            in
            (reported.(2), read_file (Filename.concat dir "flight-nested.jsonl"),
             Obs.Flight.events fl, Obs.Flight.dropped fl)))
  in
  let n1, dump1, events1, dropped1 = run 1 in
  let n4, dump4, events4, dropped4 = run 4 in
  check_bool "count reported" true (n1 = Some 16 && n4 = n1);
  check_string "dump bytes identical at pool 1 vs 4" dump1 dump4;
  check_int "dump holds the full ring" 16
    (List.length (List.filter (( <> ) "") (String.split_on_char '\n' dump1)));
  check_bool "final ring identical" true (events1 = events4);
  check_int "overwrites identical" dropped1 dropped4

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "records in order" `Quick test_trace_records_in_order;
          Alcotest.test_case "off outside run" `Quick test_trace_off_outside_run;
          Alcotest.test_case "category filter" `Quick test_trace_category_filter;
          Alcotest.test_case "run boundary survives filter" `Quick
            test_run_boundary_survives_filter;
          Alcotest.test_case "parse filter" `Quick test_category_parse_filter;
          Alcotest.test_case "ring overwrites" `Quick test_trace_ring_overwrites_oldest;
          Alcotest.test_case "lane merge order" `Quick test_trace_lane_merge_order;
          Alcotest.test_case "nested run" `Quick test_trace_nested_run_restores_outer;
          Alcotest.test_case "unobserved" `Quick test_trace_unobserved_masks;
          Alcotest.test_case "parallel lanes" `Quick
            test_trace_parallel_lanes_deterministic;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl + csv" `Quick test_jsonl_lines_parse_and_roundtrip;
          Alcotest.test_case "bytes pinned" `Quick test_export_bytes_pinned;
        ] );
      ( "sample",
        [
          Alcotest.test_case "parse + render" `Quick test_sample_parse_and_render;
          Alcotest.test_case "deterministic + unbiased" `Quick
            test_sample_deterministic_and_unbiased;
          Alcotest.test_case "sampled = offline filter" `Quick
            test_sampled_trace_equals_offline_filter;
        ] );
      ( "rollup",
        [
          Alcotest.test_case "windows + fields" `Quick test_rollup_windows_and_fields;
          Alcotest.test_case "run_start segments" `Quick test_rollup_run_start_segments;
          QCheck_alcotest.to_alcotest rollup_online_offline_prop;
          Alcotest.test_case "csv width from header" `Quick
            test_csv_width_derived_from_header;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring bounds" `Quick test_flight_ring_bounds;
          Alcotest.test_case "dump deterministic" `Quick test_flight_dump_deterministic;
          Alcotest.test_case "dump from pool task" `Quick test_flight_dump_from_pool_task;
        ] );
      ( "span",
        [
          Alcotest.test_case "disabled no-op" `Quick test_span_disabled_noop;
          Alcotest.test_case "nesting structure" `Quick test_span_nesting_structure;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safety;
          Alcotest.test_case "unobserved" `Quick test_span_unobserved_masks;
          Alcotest.test_case "lane merge + sort" `Quick test_span_lane_merge_and_sort;
          Alcotest.test_case "json sanity" `Quick test_span_json_sanity;
          Alcotest.test_case "minor words" `Quick test_span_counts_minor_words;
          Alcotest.test_case "attribution >= 90%" `Quick test_span_attribution;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "fresh manifest validates" `Quick test_manifest_validates;
          Alcotest.test_case "bad sha rejected" `Quick test_manifest_rejects_bad_sha;
          Alcotest.test_case "missing key rejected" `Quick
            test_manifest_rejects_missing_key;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters + gauges" `Quick test_metrics_counters_and_gauges;
          Alcotest.test_case "histogram buckets" `Quick test_metrics_histogram_buckets;
          Alcotest.test_case "merge rules" `Quick test_metrics_merge_rules;
          Alcotest.test_case "re-registration" `Quick test_metrics_reregistration;
          Alcotest.test_case "quantile: empty" `Quick test_quantile_empty;
          Alcotest.test_case "quantile: single sample" `Quick
            test_quantile_single_sample;
          QCheck_alcotest.to_alcotest quantile_monotone_prop;
        ] );
      ( "perf",
        [
          Alcotest.test_case "gate fixture" `Quick test_perf_gate_fixture;
          Alcotest.test_case "wall vs logical schema" `Quick test_perf_schema_mix;
          Alcotest.test_case "empty + garbage history" `Quick
            test_perf_gate_empty_and_garbage;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "set_member" `Quick test_json_set_member;
        ] );
    ]
