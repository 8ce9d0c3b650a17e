(* Tests for the online invariant checker (lib/check): the spec
   grammar (parse / to_string round-trips, canonical rendering, error
   reporting), the temporal machine semantics on synthetic event lists
   (three-valued clauses, window expiry, Run_start resets), the
   divergence bisector, and the default pack. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Grammar *)

let parses s = Check.Spec.parse s

let test_parse_always () =
  let s = parses "q-neg: always ev=enqueue & backlog>=0" in
  check_str "name" "q-neg" s.Check.Spec.name;
  (match s.Check.Spec.formula with
  | Check.Spec.Always
      [
        Check.Spec.Ev "enqueue";
        Check.Spec.Num { field = "backlog"; op = Check.Spec.Ge; value = 0.0 };
      ] ->
    ()
  | _ -> Alcotest.fail "wrong AST for always");
  check_str "canonical" "q-neg: always ev=enqueue & backlog>=0"
    (Check.Spec.to_string s)

let test_parse_never_string_clause () =
  let s = parses "no-random: never ev=drop & reason=random" in
  (match s.Check.Spec.formula with
  | Check.Spec.Never
      [
        Check.Spec.Ev "drop";
        Check.Spec.Str { field = "reason"; negated = false; value = "random" };
      ] ->
    ()
  | _ -> Alcotest.fail "wrong AST for never");
  let s = parses "no-down: always ev=fault & kind!=link_down" in
  match s.Check.Spec.formula with
  | Check.Spec.Always
      [ Check.Spec.Ev "fault"; Check.Spec.Str { negated = true; value = "link_down"; _ } ]
    ->
    ()
  | _ -> Alcotest.fail "negated string clause not parsed"

let test_parse_leads_to_windows () =
  let windows =
    [
      ("5 events", Check.Spec.{ n = 5.0; unit_ = Events });
      ("1.5 s", Check.Spec.{ n = 1.5; unit_ = Seconds });
      ("100 rtt", Check.Spec.{ n = 100.0; unit_ = Rtts });
    ]
  in
  List.iter
    (fun (wtxt, want) ->
      let s =
        parses
          (Printf.sprintf "rec: after ev=fault & kind=link_up eventually ev=ack within %s"
             wtxt)
      in
      match s.Check.Spec.formula with
      | Check.Spec.Leads_to { within; _ } ->
        check_bool ("window " ^ wtxt) true (within = want)
      | _ -> Alcotest.fail "wrong AST for leads-to")
    windows

let test_parse_after_until () =
  let s = parses "frozen: after ev=fault & kind=link_down until ev=fault & kind=link_up expect rtt>0" in
  (match s.Check.Spec.formula with
  | Check.Spec.After_until { trigger; release; expect } ->
    check_int "trigger clauses" 2 (List.length trigger);
    check_int "release clauses" 2 (List.length release);
    check_int "expect clauses" 1 (List.length expect)
  | _ -> Alcotest.fail "wrong AST for after-until");
  check_str "canonical" (Check.Spec.to_string s)
    "frozen: after ev=fault & kind=link_down until ev=fault & kind=link_up \
     expect rtt>0"

let test_parse_cycle_argmax_builtin () =
  let s = parses "argmax: always cycle_argmax" in
  match s.Check.Spec.formula with
  | Check.Spec.Always [ Check.Spec.Cycle_argmax ] -> ()
  | _ -> Alcotest.fail "builtin clause not parsed"

let test_parse_errors () =
  let rejects line =
    match Check.Spec.parse line with
    | _ -> Alcotest.fail (Printf.sprintf "accepted %S" line)
    | exception Check.Spec.Parse_error _ -> ()
  in
  rejects "no-colon always rtt>0";
  rejects "bad name!: always rtt>0";
  rejects "x: frobnicate rtt>0";
  rejects "x: always ev=not_an_event";
  rejects "x: always ev<ack";
  rejects "x: always kind<random";
  rejects "x: after ev=fault eventually ev=ack";
  rejects "x: after ev=fault eventually ev=ack within 5 parsecs";
  rejects "x: after ev=fault eventually ev=ack within -3 events";
  rejects "x: always ";
  (* a field no event carries, or one compared as the wrong type: these
     would otherwise never apply and pass silently *)
  rejects "x: always backlg<0";
  rejects "x: always ev=ack & rtt_s>100";
  rejects "x: after ev=fault & knd=link_up eventually ev=ack within 2 rtt";
  rejects "x: always kind=3";
  rejects "x: never chosen<1";
  rejects "x: always backlog=abc";
  rejects "x: never rtt!=fast"

(* Every field of the event schema parses when compared as its own
   type, and so does "t". *)
let test_parse_schema_fields () =
  List.iter
    (fun (_, fields) ->
      List.iter
        (fun (key, v) ->
          let clause =
            match v with Obs.Event.Str _ -> key ^ "=x" | _ -> key ^ ">=0"
          in
          ignore (parses ("x: always " ^ clause)))
        (("t", Obs.Event.Float 0.0) :: fields))
    Obs.Event.schema

let test_parse_lines_skips_comments () =
  let specs =
    Check.Spec.parse_lines
      [ ""; "# a comment"; "a: always rtt>0"; "   "; "b: never ev=drop" ]
  in
  check_int "two specs" 2 (List.length specs);
  check_str "order kept" "a"
    (List.hd specs).Check.Spec.name

(* parse . to_string = id over randomly generated specs. *)
let spec_gen =
  let open QCheck.Gen in
  let clause =
    frequency
      [
        (2, map (fun n -> Check.Spec.Ev n) (oneofl [ "ack"; "enqueue"; "drop"; "fault"; "cycle"; "mi_snapshot" ]));
        ( 3,
          let* field = oneofl [ "rtt"; "backlog"; "loss_rate"; "reward"; "value" ] in
          let* op = oneofl Check.Spec.[ Lt; Le; Gt; Ge; Eq; Ne ] in
          let* value =
            oneof
              [
                map float_of_int (int_range (-1000) 1000);
                float_range (-1e6) 1e6;
                oneofl [ 0.1; 1e-9; 1.5e8; -0.333333333333333 ];
              ]
          in
          return (Check.Spec.Num { field; op; value }) );
        ( 2,
          let* field = oneofl [ "kind"; "reason"; "chosen"; "stage"; "label" ] in
          let* negated = bool in
          let* value = oneofl [ "link_up"; "link_down"; "random"; "buffer"; "prev" ] in
          return (Check.Spec.Str { field; negated; value }) );
        (1, return Check.Spec.Cycle_argmax);
      ]
  in
  let cond = list_size (int_range 1 4) clause in
  let window =
    let* n = oneofl [ 1.0; 2.5; 100.0; 0.125; 7.75; 1000.0 ] in
    let* unit_ = oneofl Check.Spec.[ Events; Seconds; Rtts ] in
    return Check.Spec.{ n; unit_ }
  in
  let formula =
    frequency
      [
        (3, map (fun c -> Check.Spec.Always c) cond);
        (2, map (fun c -> Check.Spec.Never c) cond);
        ( 2,
          let* trigger = cond in
          let* goal = cond in
          let* within = window in
          return (Check.Spec.Leads_to { trigger; goal; within }) );
        ( 2,
          let* trigger = cond in
          let* release = cond in
          let* expect = cond in
          return (Check.Spec.After_until { trigger; release; expect }) );
      ]
  in
  let* name = oneofl [ "a"; "queue-bound"; "x_1"; "Spec.9"; "flap-recovery" ] in
  let* formula = formula in
  return Check.Spec.{ name; formula }

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"parse (to_string s) = s"
    (QCheck.make ~print:Check.Spec.to_string spec_gen)
    (fun s -> Check.Spec.parse (Check.Spec.to_string s) = s)

(* ------------------------------------------------------------------ *)
(* Machine semantics on synthetic event lists *)

let ack ?(t = 0.0) ?(rtt = 0.03) ?(newly_lost = 0) () =
  Obs.Event.Ack { t; flow = 0; seq = 0; rtt; newly_lost }

let enqueue ?(t = 0.0) ~backlog () =
  Obs.Event.Enqueue { t; flow = 0; seq = 0; size = 1500; backlog }

let fault ?(t = 0.0) kind =
  Obs.Event.Fault { t; flow = -1; seq = -1; kind; value = 1.0 }

let run_start ?(t = 0.0) label = Obs.Event.Run_start { t; label }

let feed specs events =
  let c = Check.Checker.create ~rtt:0.03 (Check.Spec.parse_lines specs) in
  List.iter (Check.Checker.on_event c) events;
  c

let test_always_and_inapplicable () =
  let c =
    feed
      [ "q: always ev=enqueue & backlog>=0" ]
      [
        ack ();  (* wrong event: inapplicable, not a violation *)
        enqueue ~backlog:10 ();
        enqueue ~t:1.5 ~backlog:(-1) ();  (* the violation *)
        enqueue ~backlog:0 ();
      ]
  in
  check_int "events" 4 (Check.Checker.events_seen c);
  check_int "one violation" 1 (Check.Checker.total c);
  match Check.Checker.first c with
  | Some v ->
    check_str "spec" "q" v.Check.Checker.spec;
    check_str "kind" "always" v.Check.Checker.kind;
    check_int "index" 2 v.Check.Checker.index;
    check_bool "time" true (v.Check.Checker.time = 1.5)
  | None -> Alcotest.fail "no violation recorded"

let test_never_matches () =
  let c =
    feed
      [ "no-down: never ev=fault & kind=link_down" ]
      [ fault "link_up"; fault "link_down"; fault "gilbert" ]
  in
  check_int "one violation" 1 (Check.Checker.total c);
  check_int "index" 1
    (match Check.Checker.first c with Some v -> v.Check.Checker.index | None -> -1)

let test_leads_to_event_window () =
  (* goal inside the window: clean *)
  let clean =
    feed
      [ "rec: after ev=fault & kind=link_up eventually ev=ack within 3 events" ]
      [ fault "link_up"; enqueue ~backlog:0 (); ack () ]
  in
  check_int "clean" 0 (Check.Checker.total clean);
  (* no goal within 3 checked events: one violation at expiry *)
  let dirty =
    feed
      [ "rec: after ev=fault & kind=link_up eventually ev=ack within 3 events" ]
      [
        fault "link_up";
        enqueue ~backlog:0 ();
        enqueue ~backlog:0 ();
        enqueue ~backlog:0 ();
        enqueue ~backlog:0 ();  (* index 4: window of 3 events expired *)
        ack ();
      ]
  in
  check_int "one violation" 1 (Check.Checker.total dirty);
  check_int "fires at expiry" 4
    (match Check.Checker.first dirty with Some v -> v.Check.Checker.index | None -> -1)

let test_leads_to_rtt_window_and_rearm () =
  (* 0.03 rtt base, window 2 rtt = 0.06s of sim time *)
  let c =
    feed
      [ "rec: after ev=fault & kind=link_up eventually ev=ack within 2 rtt" ]
      [
        fault ~t:0.0 "link_up";
        ack ~t:0.05 ();  (* inside: clean, disarms *)
        fault ~t:0.10 "link_up";
        enqueue ~t:0.20 ~backlog:0 ();  (* 0.1s > 0.06s: violation, disarm *)
        ack ~t:0.21 ();
      ]
  in
  check_int "one violation" 1 (Check.Checker.total c);
  check_int "index" 3
    (match Check.Checker.first c with Some v -> v.Check.Checker.index | None -> -1)

let test_run_start_resets_obligations () =
  (* A pending eventually must not fire across a run boundary (weak
     finite-trace semantics), nor at end of stream. *)
  let c =
    feed
      [ "rec: after ev=fault & kind=link_up eventually ev=ack within 2 events" ]
      [
        fault "link_up";
        run_start "episode-2";
        enqueue ~backlog:0 ();
        enqueue ~backlog:0 ();
        enqueue ~backlog:0 ();
        fault "link_up";  (* pending at end of stream *)
      ]
  in
  check_int "no violation" 0 (Check.Checker.total c)

let test_after_until () =
  (* While the link is down, acked packets must not report losses;
     release on link_up (acks after the release are unconstrained). *)
  let spec =
    "frozen: after ev=fault & kind=link_down until ev=fault & kind=link_up \
     expect newly_lost<1"
  in
  let clean =
    feed [ spec ]
      [ fault "link_down"; ack (); fault "link_up"; ack ~newly_lost:5 () ]
  in
  check_int "clean" 0 (Check.Checker.total clean);
  let dirty =
    feed [ spec ]
      [
        fault "link_down";
        ack ~newly_lost:2 ();
        ack ~newly_lost:3 ();
        fault "link_up";
        ack ~newly_lost:1 ();
      ]
  in
  check_int "two violations" 2 (Check.Checker.total dirty);
  check_int "first index" 1
    (match Check.Checker.first dirty with Some v -> v.Check.Checker.index | None -> -1)

let test_violation_events_not_reevaluated () =
  (* The checker's own verdicts pass through the stream: counted in the
     index, never fed back to the machines. *)
  let c =
    feed
      [ "no-viol: never ev=violation" ]
      [
        Obs.Event.Violation
          { t = 0.0; name = "x"; kind = "always"; index = 0; detail = "d" };
        ack ();
      ]
  in
  check_int "counted" 2 (Check.Checker.events_seen c);
  check_int "not evaluated" 0 (Check.Checker.total c)

let test_raise_and_report () =
  let c = feed [ "pos: always ev=ack & rtt>0" ] [ ack ~rtt:(-1.0) () ] in
  check_bool "raises" true
    (try
       Check.Checker.raise_if_violated c;
       false
     with Check.Checker.Violation_error { spec = "pos"; index = 0; count = 1; _ } ->
       true);
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let r = Check.Checker.report c in
  check_bool "report names the spec" true (contains "[always] pos" r);
  check_bool "report counts" true (contains "1 violation(s)" r)

(* ------------------------------------------------------------------ *)
(* Bisector *)

let lines l = Array.of_list l

let test_bisect_identical () =
  match Check.Bisect.first_divergence (lines [ "a"; "b"; "c" ]) (lines [ "a"; "b"; "c" ]) with
  | Check.Bisect.Identical 3 -> ()
  | _ -> Alcotest.fail "equal streams not identical"

let test_bisect_first_difference () =
  List.iter
    (fun n ->
      let a = Array.init 100 (fun i -> Printf.sprintf "event %d" i) in
      let b = Array.copy a in
      b.(n) <- b.(n) ^ " diverged";
      match Check.Bisect.first_divergence a b with
      | Check.Bisect.Diverged { index; a = Some la; b = Some lb } ->
        check_int "index" n index;
        check_bool "lines differ" true (la <> lb)
      | _ -> Alcotest.fail "divergence not found")
    [ 0; 1; 42; 99 ]

let test_bisect_length_mismatch () =
  let a = lines [ "a"; "b"; "c" ] in
  let b = lines [ "a"; "b" ] in
  (match Check.Bisect.first_divergence a b with
  | Check.Bisect.Diverged { index = 2; a = Some "c"; b = None } -> ()
  | _ -> Alcotest.fail "prefix-equal length mismatch not reported");
  match Check.Bisect.first_divergence (lines []) (lines []) with
  | Check.Bisect.Identical 0 -> ()
  | _ -> Alcotest.fail "two empty streams should be identical"

let test_bisect_report_window () =
  let a = Array.init 10 (fun i -> Printf.sprintf "ev%d" i) in
  let b = Array.copy a in
  b.(5) <- "ev5'";
  let r =
    Check.Bisect.report ~radius:2 ~label_a:"A" ~label_b:"B" a b
      (Check.Bisect.first_divergence a b)
  in
  check_bool "headline" true
    (String.length r > 0
    && String.sub r 0 (String.length "DIVERGED at event 5") = "DIVERGED at event 5")

(* ------------------------------------------------------------------ *)
(* Default pack and CSV *)

let test_default_pack () =
  let pack = Check.Spec.default_pack ~buffer_bytes:150_000 () in
  Alcotest.(check (list string))
    "names" Check.Spec.default_pack_names
    (List.map (fun s -> s.Check.Spec.name) pack);
  (* Round-trips through its own grammar. *)
  List.iter
    (fun s ->
      check_bool (s.Check.Spec.name ^ " round-trips") true
        (Check.Spec.parse (Check.Spec.to_string s) = s))
    pack;
  (* Clean on a short wired cubic run. *)
  let spec = Harness.Scenario.make_spec (Traces.Rate.constant 24.0) in
  let c =
    Check.Checker.create ~rtt:spec.Harness.Scenario.rtt
      (Check.Spec.default_pack ~buffer_bytes:spec.Harness.Scenario.buffer_bytes ())
  in
  let tracer = Obs.Trace.create ~ring_capacity:1024 () in
  Obs.Trace.run tracer ~observer:(Check.Checker.on_event c) (fun () ->
      ignore
        (Harness.Scenario.run_uniform ~factory:Harness.Ccas.cubic ~duration:1.0
           spec));
  check_bool "saw events" true (Check.Checker.events_seen c > 0);
  check_int "clean" 0 (Check.Checker.total c)

let test_violation_csv_row () =
  let buf = Buffer.create 64 in
  Obs.Event.to_csv_row ~lane:0 buf
    (Obs.Event.Violation
       { t = 1.0; name = "q"; kind = "always"; index = 7; detail = "failed" });
  let row = Buffer.contents buf in
  let cells = String.split_on_char ',' (String.trim row) in
  check_int "cell count" Obs.Event.csv_columns (List.length cells);
  check_str "index cell" "7" (List.nth cells 35)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "check"
    [
      ( "spec grammar",
        [
          Alcotest.test_case "always" `Quick test_parse_always;
          Alcotest.test_case "string clauses" `Quick test_parse_never_string_clause;
          Alcotest.test_case "leads-to windows" `Quick test_parse_leads_to_windows;
          Alcotest.test_case "after-until" `Quick test_parse_after_until;
          Alcotest.test_case "cycle_argmax" `Quick test_parse_cycle_argmax_builtin;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "schema fields" `Quick test_parse_schema_fields;
          Alcotest.test_case "spec files" `Quick test_parse_lines_skips_comments;
        ] );
      ("spec round-trip", qsuite [ prop_roundtrip ]);
      ( "machine semantics",
        [
          Alcotest.test_case "always + inapplicable" `Quick test_always_and_inapplicable;
          Alcotest.test_case "never" `Quick test_never_matches;
          Alcotest.test_case "leads-to event window" `Quick test_leads_to_event_window;
          Alcotest.test_case "leads-to rtt window" `Quick test_leads_to_rtt_window_and_rearm;
          Alcotest.test_case "run_start resets" `Quick test_run_start_resets_obligations;
          Alcotest.test_case "after-until" `Quick test_after_until;
          Alcotest.test_case "verdicts not re-fed" `Quick test_violation_events_not_reevaluated;
          Alcotest.test_case "raise + report" `Quick test_raise_and_report;
        ] );
      ( "bisector",
        [
          Alcotest.test_case "identical" `Quick test_bisect_identical;
          Alcotest.test_case "first difference" `Quick test_bisect_first_difference;
          Alcotest.test_case "length mismatch" `Quick test_bisect_length_mismatch;
          Alcotest.test_case "report" `Quick test_bisect_report_window;
        ] );
      ( "default pack",
        [
          Alcotest.test_case "pack + clean run" `Quick test_default_pack;
          Alcotest.test_case "violation csv row" `Quick test_violation_csv_row;
        ] );
    ]
