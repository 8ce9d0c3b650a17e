(* Tests for supervised execution: Netsim.Budget deterministic
   deadlines, Exec.Supervisor crash isolation and bit-reproducible
   retries, and the Exec.Checkpoint content-addressed store. Every
   reproducibility comparison is exact ([=] on records including float
   lists): a supervised run's failure report is required to be a pure
   function of (context, seed, logical budget). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Netsim.Budget *)

let test_budget_counts_ticks () =
  (* Within budget: no raise, spend is visible. *)
  let spent =
    Netsim.Budget.with_budget ~events:10 (fun () ->
        for _ = 1 to 10 do
          Netsim.Budget.tick ()
        done;
        Option.get (Netsim.Budget.spent ()))
  in
  check_int "10 ticks spent" 10 spent;
  (* One past the budget raises with the exact overshoot. *)
  check_bool "11th tick raises" true
    (try
       Netsim.Budget.with_budget ~events:10 (fun () ->
           for _ = 1 to 11 do
             Netsim.Budget.tick ()
           done);
       false
     with Netsim.Budget.Exceeded { spent; budget } -> spent = 11 && budget = 10)

let test_budget_off_is_noop () =
  (* No budget installed: ticking is free and spent is None. *)
  for _ = 1 to 100 do
    Netsim.Budget.tick ()
  done;
  check_bool "no ambient cell" true (Netsim.Budget.spent () = None)

let test_budget_unobserved_masks () =
  (* Pool tasks start with the budget masked, inline or on a worker:
     they can tick arbitrarily without charging the caller's budget. *)
  List.iter
    (fun size ->
      let pool = Exec.Pool.create ~size () in
      let spent =
        Fun.protect
          ~finally:(fun () -> Exec.Pool.shutdown pool)
          (fun () ->
            Netsim.Budget.with_budget ~events:5 (fun () ->
                Netsim.Budget.tick ();
                ignore
                  (Exec.Pool.map pool
                     (fun _ ->
                       for _ = 1 to 1000 do
                         Netsim.Budget.tick ()
                       done)
                     [| 0; 1; 2 |]);
                Netsim.Budget.tick ();
                Option.get (Netsim.Budget.spent ())))
      in
      check_int (Printf.sprintf "only direct ticks charged (pool %d)" size) 2 spent)
    [ 1; 2 ]

let test_budget_bounds_simulation () =
  (* The simulator's event loop ticks per popped event, so a scenario
     run under a small budget fails at a deterministic event count. *)
  let run () =
    let spec = Harness.Scenario.make_spec (Traces.Rate.constant 24.0) in
    try
      Netsim.Budget.with_budget ~events:200 (fun () ->
          ignore
            (Harness.Scenario.run_uniform ~seed:3 ~factory:Harness.Ccas.cubic
               ~duration:4.0 spec));
      None
    with Netsim.Budget.Exceeded { spent; budget } -> Some (spent, budget)
  in
  match (run (), run ()) with
  | Some (s1, b1), Some (s2, b2) ->
    check_int "budget as requested" 200 b1;
    check_bool "expiry point bit-reproducible" true (s1 = s2 && b1 = b2)
  | _ -> Alcotest.fail "200-event budget did not bound a 4s scenario"

(* ------------------------------------------------------------------ *)
(* Supervisor.protect *)

let test_protect_ok_passes_value_through () =
  match Exec.Supervisor.protect ~context:"t" (fun ~attempt -> 40 + attempt) with
  | Ok v -> check_int "value" 41 v
  | Error _ -> Alcotest.fail "protected thunk failed"

let test_protect_crash_is_structured () =
  match
    Exec.Supervisor.protect ~context:"boom" (fun ~attempt:_ -> failwith "bang")
  with
  | Ok _ -> Alcotest.fail "expected a failure"
  | Error f ->
    check_string "context" "boom" f.Exec.Supervisor.context;
    check_int "one attempt" 1 f.Exec.Supervisor.attempts;
    check_bool "kind is crash" true (f.Exec.Supervisor.kind = Exec.Supervisor.Crash);
    check_bool "exn text" true
      (String.length f.Exec.Supervisor.exn > 0
      && f.Exec.Supervisor.backoffs = []);
    check_string "trace-event kind" "failure"
      (Exec.Supervisor.kind_name f.Exec.Supervisor.kind)

let test_protect_retries_until_success () =
  let calls = ref 0 in
  match
    Exec.Supervisor.protect ~retries:5 ~context:"flaky" (fun ~attempt ->
        incr calls;
        if attempt < 3 then failwith "not yet";
        attempt)
  with
  | Ok v ->
    check_int "succeeded on third attempt" 3 v;
    check_int "called exactly three times" 3 !calls
  | Error _ -> Alcotest.fail "should have recovered"

let test_protect_deadline_kind () =
  let run () =
    Exec.Supervisor.protect ~deadline_events:10 ~context:"dl" (fun ~attempt:_ ->
        for _ = 1 to 100 do
          Netsim.Budget.tick ()
        done)
  in
  match (run (), run ()) with
  | Error f1, Error f2 ->
    check_bool "deadline kind" true
      (match f1.Exec.Supervisor.kind with
      | Exec.Supervisor.Deadline { spent = 11; budget = 10 } -> true
      | _ -> false);
    check_string "trace-event kind" "deadline"
      (Exec.Supervisor.kind_name f1.Exec.Supervisor.kind);
    check_bool "identical failures" true (f1 = f2);
    check_string "identical digests" (Exec.Supervisor.digest f1)
      (Exec.Supervisor.digest f2)
  | _ -> Alcotest.fail "deadline did not fire"

(* Bit-reproducibility of retried failures: the whole failure record —
   backoff schedule included — is a function of (seed, retries) alone. *)
let test_protect_retry_schedule_reproducible =
  QCheck.Test.make ~count:50 ~name:"protect retry schedule reproducible"
    QCheck.(pair (int_bound 1000) (int_bound 4))
    (fun (seed, retries) ->
      let run () =
        match
          Exec.Supervisor.protect ~retries ~seed ~context:"always"
            (fun ~attempt:_ -> failwith "always fails")
        with
        | Ok _ -> QCheck.Test.fail_report "always-failing thunk returned Ok"
        | Error f -> f
      in
      let f1 = run () and f2 = run () in
      f1 = f2
      && Exec.Supervisor.digest f1 = Exec.Supervisor.digest f2
      && List.length f1.Exec.Supervisor.backoffs = retries
      && f1.Exec.Supervisor.attempts = retries + 1
      && List.for_all (fun b -> b > 0.0) f1.Exec.Supervisor.backoffs)

let test_protect_backoffs_depend_on_seed () =
  let fail_with seed =
    match
      Exec.Supervisor.protect ~retries:3 ~seed ~context:"s" (fun ~attempt:_ ->
          failwith "x")
    with
    | Error f -> f.Exec.Supervisor.backoffs
    | Ok _ -> Alcotest.fail "unexpected success"
  in
  check_bool "different seed, different jitter" true (fail_with 1 <> fail_with 2)

let test_digest_excludes_wall_parameters () =
  (* Two runs killed by the wall backstop at different ceilings must
     not be distinguished by the determinism digest. *)
  let base =
    {
      Exec.Supervisor.context = "w";
      exn = "Netsim.Budget.Wall_exceeded";
      backtrace = "none";
      attempts = 1;
      backoffs = [];
      kind = Exec.Supervisor.Wall { budget_s = 1.0 };
      flight = None;
    }
  in
  let other = { base with kind = Exec.Supervisor.Wall { budget_s = 60.0 } } in
  check_string "wall digest invariant" (Exec.Supervisor.digest base)
    (Exec.Supervisor.digest other);
  check_string "wall maps to deadline" "deadline"
    (Exec.Supervisor.kind_name base.Exec.Supervisor.kind)

let test_render_mentions_digest () =
  match Exec.Supervisor.protect ~context:"r" (fun ~attempt:_ -> failwith "x") with
  | Ok _ -> Alcotest.fail "unexpected success"
  | Error f ->
    let lines = Exec.Supervisor.render f in
    check_int "four report lines" 4 (List.length lines);
    check_bool "digest line present" true
      (List.exists
         (fun l ->
           String.length l >= 7 && String.sub l 0 7 = "digest:")
         lines)

let test_render_includes_flight_line () =
  let f =
    {
      Exec.Supervisor.context = "fl";
      exn = "Failure(\"x\")";
      backtrace = "none";
      attempts = 1;
      backoffs = [];
      kind = Exec.Supervisor.Crash;
      flight = Some ("/tmp/flight-fl.jsonl", 42);
    }
  in
  let lines = Exec.Supervisor.render f in
  check_int "five report lines with a flight dump" 5 (List.length lines);
  check_bool "flight line names the dump and its size" true
    (List.exists
       (fun l -> l = "flight:    /tmp/flight-fl.jsonl (42 event(s))")
       lines);
  (* The dump path is host-chosen, so it must stay out of the
     determinism digest. *)
  check_string "flight out of digest"
    (Exec.Supervisor.digest { f with flight = None })
    (Exec.Supervisor.digest f)

(* A supervised crash under the flight recorder dumps the failing
   lane's ring — and the dump is byte-identical however many domains
   the pool ran the tasks on. *)
let test_flight_dump_pool_identical () =
  let dump_bytes pool_size =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "libra-flight-pool-%d-%d" (Unix.getpid ()) pool_size)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let saved = Obs.Flight.dump_dir () in
    Obs.Flight.set_dump_dir dir;
    Fun.protect
      ~finally:(fun () -> Obs.Flight.set_dump_dir saved)
      (fun () ->
        let pool = Exec.Pool.create ~size:pool_size () in
        Fun.protect
          ~finally:(fun () -> Exec.Pool.shutdown pool)
          (fun () ->
            let fl = Obs.Flight.create ~capacity:64 () in
            ignore
              (Exec.Pool.map pool
                 (fun lane ->
                   Obs.Flight.run fl ~lane (fun () ->
                       for i = 0 to 9 do
                         Obs.Trace.emit
                           (Obs.Event.Enqueue
                              {
                                t = float_of_int i;
                                flow = lane;
                                seq = i;
                                size = 1500;
                                backlog = 1500;
                              })
                       done;
                       if lane = 2 then
                         match
                           Exec.Supervisor.protect ~context:"pool-flight"
                             (fun ~attempt:_ -> failwith "boom")
                         with
                         | Ok () -> Alcotest.fail "crash expected"
                         | Error f ->
                           check_bool "failure report carries the dump" true
                             (match f.Exec.Supervisor.flight with
                             | Some (_, 10) -> true
                             | _ -> false)))
                 (Array.init 6 Fun.id));
            let path = Filename.concat dir "flight-pool-flight.jsonl" in
            let ic = open_in_bin path in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            s))
  in
  let a = dump_bytes 1 and b = dump_bytes 4 in
  check_bool "dump non-empty" true (String.length a > 0);
  check_string "flight dump byte-identical at pool 1 vs 4" a b

(* ------------------------------------------------------------------ *)
(* Checkpoint store *)

let temp_store =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "libra-ckpt-%d-%d" (Unix.getpid ()) !n)
    in
    Exec.Checkpoint.create ~dir

let hit = function
  | Exec.Checkpoint.Hit s -> s
  | Exec.Checkpoint.Miss -> Alcotest.fail "expected Hit, got Miss"
  | Exec.Checkpoint.Corrupt { reason; _ } ->
    Alcotest.fail ("expected Hit, got Corrupt: " ^ reason)

let test_checkpoint_round_trip () =
  let store = temp_store () in
  let key = Exec.Checkpoint.key ~parts:[ "fig7"; "quick"; "clean" ] in
  check_bool "absent before save" true
    (Exec.Checkpoint.load store ~key = Exec.Checkpoint.Miss
    && not (Exec.Checkpoint.mem store ~key));
  Exec.Checkpoint.save store ~key "payload-1\nline two";
  check_bool "present after save" true (Exec.Checkpoint.mem store ~key);
  check_string "bytes round-trip" "payload-1\nline two"
    (hit (Exec.Checkpoint.load store ~key));
  (* Overwrite is atomic and last-write-wins. *)
  Exec.Checkpoint.save store ~key "payload-2";
  check_string "overwrite" "payload-2" (hit (Exec.Checkpoint.load store ~key))

let test_checkpoint_key_separates_contexts () =
  let k1 = Exec.Checkpoint.key ~parts:[ "fig7"; "quick" ] in
  let k2 = Exec.Checkpoint.key ~parts:[ "fig7"; "full" ] in
  let k3 = Exec.Checkpoint.key ~parts:[ "fig7"; "quick" ] in
  check_string "key is deterministic" k1 k3;
  check_bool "different context, different cell" true (k1 <> k2)

let test_report_json_round_trip () =
  let r =
    Harness.Report.capture (fun () ->
        Harness.Report.printf "line one\n";
        Harness.Report.printf "value %.3f\n" 1.25;
        Harness.Report.result "alpha" "1";
        Harness.Report.result "beta" "two")
  in
  let blob = Obs.Json.to_compact (Harness.Report.to_json r) in
  match Obs.Json.parse blob with
  | Error m -> Alcotest.fail ("reparse failed: " ^ m)
  | Ok j -> (
    match Harness.Report.of_json j with
    | None -> Alcotest.fail "of_json rejected its own output"
    | Some r' ->
      check_string "text round-trips" (Harness.Report.render r)
        (Harness.Report.render r');
      check_bool "kvs round-trip in order" true
        (Harness.Report.results r = Harness.Report.results r'))

let () =
  Alcotest.run "supervisor"
    [
      ( "budget",
        [
          Alcotest.test_case "counts ticks" `Quick test_budget_counts_ticks;
          Alcotest.test_case "off is noop" `Quick test_budget_off_is_noop;
          Alcotest.test_case "unobserved masks" `Quick test_budget_unobserved_masks;
          Alcotest.test_case "bounds a simulation" `Slow test_budget_bounds_simulation;
        ] );
      ( "protect",
        [
          Alcotest.test_case "ok value" `Quick test_protect_ok_passes_value_through;
          Alcotest.test_case "crash structured" `Quick test_protect_crash_is_structured;
          Alcotest.test_case "retries recover" `Quick test_protect_retries_until_success;
          Alcotest.test_case "deadline kind" `Quick test_protect_deadline_kind;
          QCheck_alcotest.to_alcotest test_protect_retry_schedule_reproducible;
          Alcotest.test_case "seeded jitter" `Quick test_protect_backoffs_depend_on_seed;
          Alcotest.test_case "wall out of digest" `Quick test_digest_excludes_wall_parameters;
          Alcotest.test_case "render" `Quick test_render_mentions_digest;
          Alcotest.test_case "render flight line" `Quick
            test_render_includes_flight_line;
          Alcotest.test_case "flight dump pool 1 vs 4" `Quick
            test_flight_dump_pool_identical;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round trip" `Quick test_checkpoint_round_trip;
          Alcotest.test_case "key contexts" `Quick test_checkpoint_key_separates_contexts;
          Alcotest.test_case "report json" `Quick test_report_json_round_trip;
        ] );
    ]
