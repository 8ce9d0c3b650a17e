(* Tests for lib/faults: channel state machines (Gilbert-Elliott
   stationary loss, reorder displacement bound), the --impair spec
   parser, the link-level shapers, the fault trace category, and the
   end-to-end dup-ACK interaction with loss-based CCAs. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let mk_pkt seq = { Netsim.Packet.flow = 0; seq; size = 1500; corrupt = false }

let channel ?from_ ?until ~seed kind =
  Faults.Channel.create ~rng:(Netsim.Rng.create seed) ?from_ ?until kind

(* ------------------------------------------------------------------ *)
(* Gilbert-Elliott: empirical loss matches the stationary rate *)

(* The chain spends pi_bad = p_gb / (p_gb + p_bg) of its packets in the
   bad state, so with p_good = 0 the long-run loss rate is
   pi_bad * p_bad. Burst correlation inflates the variance well beyond
   a Bernoulli's, hence the loose relative + absolute tolerance. *)
let prop_gilbert_stationary =
  QCheck.Test.make ~name:"gilbert empirical loss ~ stationary rate" ~count:15
    QCheck.(
      quad small_int (float_range 0.005 0.05) (float_range 0.1 0.5)
        (float_range 0.3 1.0))
    (fun (seed, p_gb, p_bg, p_bad) ->
      let n = 150_000 in
      let ch =
        channel ~seed
          (Faults.Channel.Gilbert { p_gb; p_bg; p_good = 0.0; p_bad })
      in
      let dropped = ref 0 in
      for i = 0 to n - 1 do
        if Faults.Channel.apply ch ~now:0.0 (mk_pkt i) = [] then incr dropped
      done;
      let expected = p_gb /. (p_gb +. p_bg) *. p_bad in
      let got = float_of_int !dropped /. float_of_int n in
      Float.abs (got -. expected) <= (0.3 *. expected) +. 0.01)

(* ------------------------------------------------------------------ *)
(* Reorder: bounded displacement, no loss *)

(* Feed seq 0..n-1 through a reorder channel and record the emission
   order: every packet must come out (after a final flush) and no
   packet may be displaced more than [depth] positions backwards. *)
let prop_reorder_bounded =
  QCheck.Test.make ~name:"reorder displaces at most depth, loses nothing"
    ~count:50
    QCheck.(triple small_int (float_range 0.01 0.3) (int_range 1 6))
    (fun (seed, p, depth) ->
      let n = 500 in
      let ch =
        channel ~seed (Faults.Channel.Reorder { p; depth; max_hold = 1000.0 })
      in
      let out = ref [] in
      let emit = List.iter (fun (pkt, _) -> out := pkt.Netsim.Packet.seq :: !out) in
      for i = 0 to n - 1 do
        emit (Faults.Channel.apply ch ~now:0.0 (mk_pkt i))
      done;
      emit (Faults.Channel.flush ch);
      let out = Array.of_list (List.rev !out) in
      Array.length out = n
      && List.sort compare (Array.to_list out) = List.init n Fun.id
      &&
      let ok = ref true in
      Array.iteri (fun pos seq -> if pos - seq > depth then ok := false) out;
      !ok)

let test_reorder_stale_hold_flushes () =
  (* A held packet whose countdown never completes is released once
     max_hold elapses, ahead of the packet that triggered the check. *)
  let ch =
    channel ~seed:1 (Faults.Channel.Reorder { p = 1.0; depth = 5; max_hold = 0.1 })
  in
  check_bool "first packet held" true
    (Faults.Channel.apply ch ~now:0.0 (mk_pkt 0) = []);
  let out = Faults.Channel.apply ch ~now:0.2 (mk_pkt 1) in
  let seqs = List.map (fun (p, _) -> p.Netsim.Packet.seq) out in
  (* Packet 0 is flushed stale; packet 1 may itself be held (p = 1). *)
  check_bool "stale packet released first" true (List.hd seqs = 0)

(* ------------------------------------------------------------------ *)
(* Duplicate / corrupt / jitter channel mechanics *)

let test_duplicate_emits_two_copies () =
  let ch = channel ~seed:2 (Faults.Channel.Duplicate { p = 1.0 }) in
  let out = Faults.Channel.apply ch ~now:0.0 (mk_pkt 7) in
  check_int "two copies" 2 (List.length out);
  List.iter (fun (p, _) -> check_int "same seq" 7 p.Netsim.Packet.seq) out

let test_corrupt_marks_packet () =
  let ch = channel ~seed:3 (Faults.Channel.Corrupt { p = 1.0 }) in
  match Faults.Channel.apply ch ~now:0.0 (mk_pkt 0) with
  | [ (p, _) ] -> check_bool "corrupt flag set" true p.Netsim.Packet.corrupt
  | _ -> Alcotest.fail "corrupt channel must emit exactly one copy"

let test_jitter_delays_within_bound () =
  let ch = channel ~seed:4 (Faults.Channel.Jitter { max_delay = 0.01 }) in
  for i = 0 to 99 do
    match Faults.Channel.apply ch ~now:0.0 (mk_pkt i) with
    | [ (_, d) ] -> check_bool "delay in [0, max)" true (d >= 0.0 && d < 0.01)
    | _ -> Alcotest.fail "jitter never drops or duplicates"
  done

let test_window_gates_channel () =
  let ch =
    channel ~seed:5 ~from_:1.0 ~until:2.0 (Faults.Channel.Bernoulli { p = 1.0 })
  in
  check_bool "before window: passes" true
    (List.length (Faults.Channel.apply ch ~now:0.5 (mk_pkt 0)) = 1);
  check_bool "inside window: dropped" true
    (Faults.Channel.apply ch ~now:1.5 (mk_pkt 1) = []);
  check_bool "after window: passes" true
    (List.length (Faults.Channel.apply ch ~now:2.5 (mk_pkt 2)) = 1)

(* ------------------------------------------------------------------ *)
(* Spec parser *)

let roundtrip s =
  let spec = Faults.Spec.of_string_exn s in
  check_string ("canonical form of " ^ s)
    (Faults.Spec.to_string spec)
    (Faults.Spec.to_string (Faults.Spec.of_string_exn (Faults.Spec.to_string spec)));
  check_bool
    ("structural round-trip of " ^ s)
    true
    (Faults.Spec.of_string_exn (Faults.Spec.to_string spec) = spec)

let test_spec_roundtrip () =
  List.iter roundtrip
    [
      "clean";
      "gilbert";
      "gilbert:p_gb=0.01,p_bg=0.3";
      "gilbert:from=8,until=10";
      "reorder:p=0.1,depth=2+jitter";
      "gilbert+reorder+dup+corrupt+jitter";
      "outage:at=8,for=2";
      "clamp:from=5,until=15,factor=0.25";
      "flap:period=6,duty=0.85";
      "bernoulli:p=0.02+flap:period=4,duty=0.5+outage:at=1,for=0.25";
    ];
  (* named profiles round-trip too *)
  List.iter
    (fun (_, spec) -> roundtrip (Faults.Spec.to_string spec))
    Faults.Spec.robustness_profiles

let test_spec_errors () =
  let rejects s =
    check_bool ("rejects " ^ s) true
      (match Faults.Spec.of_string s with Error _ -> true | Ok _ -> false)
  in
  List.iter rejects
    [
      "bogus";
      "gilbert:wat=1";
      "reorder:p=zzz";
      "outage:at";
      "gilbert+bogus";
      "jitter:max_delay=0.01" (* the key is max= *);
    ];
  (* Errors pinpoint the offending item ('+'-position and text) and,
     for an unknown key, list the keys the item accepts. *)
  let error_of s =
    match Faults.Spec.of_string s with
    | Error m -> m
    | Ok _ -> Alcotest.fail ("expected an error for " ^ s)
  in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let msg = error_of "gilbert+jitter:max_delay=0.01" in
  check_bool "names the item position" true (contains msg "spec item 2");
  check_bool "quotes the offending item" true
    (contains msg "\"jitter:max_delay=0.01\"");
  check_bool "hints the expected keys" true
    (contains msg "expected one of" && contains msg "max");
  let msg = error_of "bernoulli:p=0.1+outage:at=1,wat=2" in
  check_bool "position counts from 1" true (contains msg "spec item 2");
  check_bool "unknown key is quoted" true (contains msg "\"wat\"")

(* The canonical printer's exact bytes, captured from the printer as it
   was before the grammar kernel existed. They feed trace manifests,
   checkpoint keys and the committed scenarios/*.scn corpus, so a
   printer change must show up here, not only as a broken round-trip. *)
let impair_pins =
  [
    ("clean", "clean");
    ("", "clean");
    ("gilbert", "gilbert:p_gb=0.015,p_bg=0.25,p_bad=0.6");
    ("gilbert:p_gb=0.01,p_bg=0.3", "gilbert:p_gb=0.01,p_bg=0.3,p_bad=0.6");
    ("gilbert:p_good=0.01", "gilbert:p_gb=0.015,p_bg=0.25,p_good=0.01,p_bad=0.6");
    ("gilbert:from=8,until=10", "gilbert:p_gb=0.015,p_bg=0.25,p_bad=0.6,from=8,until=10");
    ("bernoulli", "bernoulli:p=0.01");
    ("bernoulli:p=0.02,from=1", "bernoulli:p=0.02,from=1");
    ("reorder", "reorder:p=0.08,depth=4,max_hold=0.2");
    ("reorder:p=0.1,depth=2.7,max_hold=0.5", "reorder:p=0.1,depth=2,max_hold=0.5");
    ("dup", "dup:p=0.01");
    ("corrupt:p=0.05,until=3", "corrupt:p=0.05,until=3");
    ("jitter", "jitter:max=0.012");
    ("jitter:max=0.02", "jitter:max=0.02");
    ("outage", "outage:at=8,for=2");
    ("outage:at=1,for=0.25", "outage:at=1,for=0.25");
    ("clamp", "clamp:factor=0.25");
    ("clamp:from=5,until=15,factor=0.25", "clamp:from=5,until=15,factor=0.25");
    ("flap", "flap:period=6,duty=0.85");
    ("flap:period=6,duty=0.85,from=2", "flap:from=2,period=6,duty=0.85");
    ("reorder:p=0.1,depth=2+jitter", "reorder:p=0.1,depth=2,max_hold=0.2+jitter:max=0.012");
    ( "bernoulli:p=0.02+flap:period=4,duty=0.5+outage:at=1,for=0.25",
      "bernoulli:p=0.02+flap:period=4,duty=0.5+outage:at=1,for=0.25" );
    ("flap+gilbert", "gilbert:p_gb=0.015,p_bg=0.25,p_bad=0.6+flap:period=6,duty=0.85");
    ( " gilbert + reorder ",
      "gilbert:p_gb=0.015,p_bg=0.25,p_bad=0.6+reorder:p=0.08,depth=4,max_hold=0.2" );
    ("bernoulli:p=1e-7", "bernoulli:p=1e-07");
    ("gilbert:p_gb=0.123456789", "gilbert:p_gb=0.123457,p_bg=0.25,p_bad=0.6");
    (* the committed scenarios/*.scn impair: lines *)
    ("dup:p=0.002225", "dup:p=0.002225");
    ("flap:period=7.499,duty=0.3939", "flap:period=7.499,duty=0.3939");
    ("clamp:factor=0.9", "clamp:factor=0.9");
  ]

let profile_pins =
  [
    ("clean", "clean");
    ("bursty-loss", "gilbert:p_gb=0.015,p_bg=0.25,p_bad=0.6");
    ("reorder", "reorder:p=0.08,depth=4,max_hold=0.2");
    ("flap", "flap:period=6,duty=0.85");
    ("jitter", "jitter:max=0.012");
  ]

let test_spec_printer_pinned () =
  List.iter
    (fun (input, want) ->
      check_string ("to_string of " ^ input) want
        (Faults.Spec.to_string (Faults.Spec.of_string_exn input)))
    impair_pins;
  check_bool "profile names" true
    (List.map fst Faults.Spec.robustness_profiles = List.map fst profile_pins);
  List.iter2
    (fun (name, spec) (_, want) ->
      check_string ("profile " ^ name) want (Faults.Spec.to_string spec))
    Faults.Spec.robustness_profiles profile_pins

(* One error shape for both grammars, from one case list: what each
   error must contain, for the same mistake made in --impair and in
   --chaos. *)
let test_grammar_error_shape () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let grammars =
    [
      ( "impair",
        (fun s -> Result.map ignore (Faults.Spec.of_string s)),
        "spec item",
        ("gilbert", "p_gb") );
      ( "chaos",
        (fun s -> Result.map ignore (Chaos.Spec.of_string s)),
        "chaos item",
        ("torn", "keep") );
    ]
  in
  List.iter
    (fun (g, parse, label, (name, key)) ->
      let cases =
        [
          ("unknown name", name ^ "+bogus", [ label ^ " 2"; "\"bogus\""; "known: " ^ name ]);
          ( "unknown key",
            name ^ ":wat=1",
            [ label ^ " 1"; "unknown key \"wat\""; "expected one of"; key ] );
          ("not a number", name ^ "+" ^ name ^ ":" ^ key ^ "=x", [ label ^ " 2"; "not a number" ]);
          ("missing value", name ^ ":" ^ key, [ label ^ " 1"; "expected key=value" ]);
          ("position counts from 1", "bogus", [ label ^ " 1 (\"bogus\")" ]);
        ]
      in
      List.iter
        (fun (what, input, needles) ->
          match parse input with
          | Ok () -> Alcotest.failf "%s: %S accepted" g input
          | Error m ->
            List.iter
              (fun needle ->
                check_bool (Printf.sprintf "%s %s: %S mentions %S" g what m needle) true
                  (contains m needle))
              needles)
        cases)
    grammars

(* Every name in each grammar's table parses bare and round-trips. *)
let test_grammar_names_round_trip () =
  check_bool "impair names" true
    (Faults.Spec.names
    = [ "gilbert"; "bernoulli"; "reorder"; "dup"; "corrupt"; "jitter"; "outage"; "clamp"; "flap" ]);
  check_bool "chaos names" true
    (Chaos.Spec.names = [ "torn"; "flip"; "enospc"; "eio"; "kill-domain" ]);
  List.iter
    (fun name ->
      let spec = Faults.Spec.of_string_exn name in
      check_bool (name ^ " round-trips") true
        (Faults.Spec.of_string_exn (Faults.Spec.to_string spec) = spec))
    Faults.Spec.names;
  List.iter
    (fun name ->
      let spec = Chaos.Spec.of_string_exn name in
      check_string (name ^ " prints bare") name (Chaos.Spec.to_string spec);
      check_bool (name ^ " round-trips") true
        (Chaos.Spec.of_string (Chaos.Spec.to_string spec) = Ok spec))
    Chaos.Spec.names

let test_spec_semantics () =
  check_bool "clean is empty" true
    (Faults.Spec.is_empty (Faults.Spec.of_string_exn "clean"));
  check_bool "empty string is clean" true
    (Faults.Spec.is_empty (Faults.Spec.of_string_exn ""));
  check_bool "gilbert alone cannot reorder" false
    (Faults.Spec.may_reorder (Faults.Spec.of_string_exn "gilbert"));
  List.iter
    (fun s ->
      check_bool (s ^ " may reorder") true
        (Faults.Spec.may_reorder (Faults.Spec.of_string_exn s)))
    [ "reorder"; "dup"; "jitter" ]

(* ------------------------------------------------------------------ *)
(* Link-rate shapers *)

let shape s ~now rate =
  let inj =
    Faults.Injector.create ~rng:(Netsim.Rng.create 1)
      (Faults.Spec.of_string_exn s)
  in
  (Faults.Injector.hooks inj).Netsim.Link.shape_rate ~now rate

let check_rate label want got =
  check_bool (Printf.sprintf "%s (want %g, got %g)" label want got) true
    (want = got)

let test_shaper_outage () =
  check_rate "before outage" 1e6 (shape "outage:at=8,for=2" ~now:7.9 1e6);
  check_rate "during outage" 0.0 (shape "outage:at=8,for=2" ~now:8.0 1e6);
  check_rate "late in outage" 0.0 (shape "outage:at=8,for=2" ~now:9.9 1e6);
  check_rate "after outage" 1e6 (shape "outage:at=8,for=2" ~now:10.0 1e6)

let test_shaper_clamp () =
  let s = "clamp:from=5,until=15,factor=0.25" in
  check_rate "before clamp" 1e6 (shape s ~now:4.9 1e6);
  check_rate "inside clamp" 2.5e5 (shape s ~now:10.0 1e6);
  check_rate "after clamp" 1e6 (shape s ~now:15.0 1e6)

let test_shaper_flap () =
  (* period 6, duty 0.5: up for the first 3 s of each period. *)
  let s = "flap:period=6,duty=0.5" in
  check_rate "up phase" 1e6 (shape s ~now:2.0 1e6);
  check_rate "down phase" 0.0 (shape s ~now:4.0 1e6);
  check_rate "next period up" 1e6 (shape s ~now:7.0 1e6);
  check_rate "next period down" 0.0 (shape s ~now:10.5 1e6)

let test_injector_stats () =
  let inj =
    Faults.Injector.create ~rng:(Netsim.Rng.create 1)
      (Faults.Spec.of_string_exn "bernoulli:p=1")
  in
  let hooks = Faults.Injector.hooks inj in
  for i = 0 to 9 do
    check_bool "all dropped" true
      (hooks.Netsim.Link.ingress ~now:0.0 (mk_pkt i) = [])
  done;
  check_bool "stats count offered and affected" true
    (Faults.Injector.stats inj
    = [ ("bernoulli.offered", 10); ("bernoulli.affected", 10) ])

(* ------------------------------------------------------------------ *)
(* Fault trace category: emitted under impairment, JSONL round-trips *)

let test_fault_trace_roundtrip () =
  let tracer =
    Obs.Trace.create ~categories:[ Obs.Category.Fault; Obs.Category.Run ] ()
  in
  let impair = Faults.Spec.of_string_exn "gilbert+reorder+outage:at=1,for=0.5" in
  let spec = Harness.Scenario.make_spec ~impair (Traces.Rate.constant 24.0) in
  ignore
    (Obs.Trace.run tracer ~lane:0 (fun () ->
         Harness.Scenario.run_uniform ~seed:3 ~factory:Harness.Ccas.cubic
           ~duration:3.0 spec));
  let out = Obs.Trace.to_jsonl tracer in
  let kinds = Hashtbl.create 8 in
  let faults = ref 0 in
  String.split_on_char '\n' out
  |> List.iter (fun line ->
         if String.trim line <> "" then begin
           let v =
             match Obs.Json.parse line with
             | Ok v -> v
             | Error m -> Alcotest.fail ("bad JSONL line: " ^ m)
           in
           if Obs.Json.member "manifest" v <> None then
             (* The provenance header line; validated in test_obs. *)
             ()
           else
           let ev =
             match Option.bind (Obs.Json.member "ev" v) Obs.Json.str with
             | Some ev -> ev
             | None -> Alcotest.fail "line without ev"
           in
           check_bool ("known event " ^ ev) true
             (List.mem ev Obs.Event.all_names);
           if ev = "fault" then begin
             incr faults;
             (match Option.bind (Obs.Json.member "kind" v) Obs.Json.str with
             | Some k -> Hashtbl.replace kinds k ()
             | None -> Alcotest.fail "fault event without kind");
             check_bool "fault has numeric value" true
               (Option.bind (Obs.Json.member "value" v) Obs.Json.num <> None)
           end
         end);
  check_bool "saw fault events" true (!faults > 0);
  List.iter
    (fun k -> check_bool ("saw kind " ^ k) true (Hashtbl.mem kinds k))
    [ "gilbert"; "reorder"; "link_down"; "link_up" ]

(* ------------------------------------------------------------------ *)
(* End-to-end: reordering vs dup-ACK accounting *)

(* Vegas keeps the standing queue tiny, so on a clean 24 Mbit/s link it
   loses nothing. Under pure reordering (depth 2) a TCP-style threshold
   of 3 absorbs every displacement -- zero losses still -- while exact
   gap detection (threshold 1) misreads each held packet as a loss. *)
let vegas_loss ~dup_thresh =
  let impair = Faults.Spec.of_string_exn "reorder:p=0.05,depth=2" in
  let spec =
    {
      (Harness.Scenario.make_spec ~impair (Traces.Rate.constant 24.0)) with
      Harness.Scenario.dup_thresh;
    }
  in
  let o =
    Harness.Scenario.run_uniform ~seed:5 ~factory:Harness.Ccas.vegas
      ~duration:4.0 spec
  in
  o.Harness.Scenario.loss_rate

let test_dupack_absorbs_bounded_reordering () =
  check_bool "threshold 3 sees no loss" true (vegas_loss ~dup_thresh:3 = 0.0);
  check_bool "threshold 1 misreads reordering as loss" true
    (vegas_loss ~dup_thresh:1 > 0.0)

(* The loss-based CCA scenario: reordering must demonstrably trigger
   dup-ACK handling in CUBIC -- spurious window cuts at threshold 1
   show up as extra detected losses and lower throughput. *)
let cubic_outcome ~dup_thresh =
  let impair = Faults.Spec.of_string_exn "reorder:p=0.08,depth=2" in
  let spec =
    {
      (Harness.Scenario.make_spec ~impair (Traces.Rate.constant 24.0)) with
      Harness.Scenario.dup_thresh;
    }
  in
  Harness.Scenario.run_uniform ~seed:5 ~factory:Harness.Ccas.cubic ~duration:4.0
    spec

let test_cubic_reordering_triggers_dupack_handling () =
  let o1 = cubic_outcome ~dup_thresh:1 in
  let o3 = cubic_outcome ~dup_thresh:3 in
  check_bool "threshold 1 detects more losses" true
    (o1.Harness.Scenario.loss_rate > o3.Harness.Scenario.loss_rate);
  check_bool "threshold 3 sustains more throughput" true
    (o3.Harness.Scenario.throughput > o1.Harness.Scenario.throughput)

(* Corruption consumes capacity but yields no ACKs: the sender observes
   it as loss even though the link delivered the bytes. *)
let test_corruption_counts_as_loss () =
  let impair = Faults.Spec.of_string_exn "corrupt:p=0.05" in
  let spec = Harness.Scenario.make_spec ~impair (Traces.Rate.constant 24.0) in
  let o =
    Harness.Scenario.run_uniform ~seed:7 ~factory:Harness.Ccas.vegas
      ~duration:4.0 spec
  in
  check_bool "corruption surfaces as sender-visible loss" true
    (o.Harness.Scenario.loss_rate > 0.01)

let () =
  Alcotest.run "faults"
    [
      ( "channels",
        [
          QCheck_alcotest.to_alcotest prop_gilbert_stationary;
          QCheck_alcotest.to_alcotest prop_reorder_bounded;
          Alcotest.test_case "stale hold flushes" `Quick
            test_reorder_stale_hold_flushes;
          Alcotest.test_case "duplicate" `Quick test_duplicate_emits_two_copies;
          Alcotest.test_case "corrupt" `Quick test_corrupt_marks_packet;
          Alcotest.test_case "jitter" `Quick test_jitter_delays_within_bound;
          Alcotest.test_case "window" `Quick test_window_gates_channel;
        ] );
      ( "spec",
        [
          Alcotest.test_case "round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "errors" `Quick test_spec_errors;
          Alcotest.test_case "semantics" `Quick test_spec_semantics;
          Alcotest.test_case "printer pinned" `Quick test_spec_printer_pinned;
          Alcotest.test_case "grammar error shape" `Quick test_grammar_error_shape;
          Alcotest.test_case "grammar names round-trip" `Quick
            test_grammar_names_round_trip;
        ] );
      ( "shapers",
        [
          Alcotest.test_case "outage" `Quick test_shaper_outage;
          Alcotest.test_case "clamp" `Quick test_shaper_clamp;
          Alcotest.test_case "flap" `Quick test_shaper_flap;
          Alcotest.test_case "injector stats" `Quick test_injector_stats;
        ] );
      ( "trace",
        [
          Alcotest.test_case "fault JSONL round-trip" `Slow
            test_fault_trace_roundtrip;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "dup-ACK absorbs reordering" `Slow
            test_dupack_absorbs_bounded_reordering;
          Alcotest.test_case "cubic under reordering" `Slow
            test_cubic_reordering_triggers_dupack_handling;
          Alcotest.test_case "corruption is loss" `Slow
            test_corruption_counts_as_loss;
        ] );
    ]
