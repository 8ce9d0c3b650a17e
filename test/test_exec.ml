(* Tests for the parallel execution layer and the determinism contract:
   fanning work across domains must change nothing but wall-clock time.
   Every comparison here is exact ([=] on floats, byte-equal strings) --
   parallel results are required to be identical to sequential ones, not
   statistically similar. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool basics *)

let with_pool size f =
  let pool = Exec.Pool.create ~size () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) (fun () -> f pool)

let test_map_preserves_order () =
  with_pool 4 (fun pool ->
      let input = Array.init 100 (fun i -> i) in
      let out = Exec.Pool.map pool (fun x -> x * x) input in
      Alcotest.(check (array int)) "squares in order"
        (Array.map (fun x -> x * x) input)
        out;
      check_int "empty input" 0 (Array.length (Exec.Pool.map pool (fun x -> x) [||])))

let test_map_list_preserves_order () =
  with_pool 3 (fun pool ->
      let out = Exec.Pool.map_list pool String.uppercase_ascii [ "a"; "b"; "c" ] in
      Alcotest.(check (list string)) "in order" [ "A"; "B"; "C" ] out)

let test_map_reduce_folds_in_input_order () =
  with_pool 4 (fun pool ->
      (* String concatenation is non-commutative: any reordering of the
         reduction would be visible. *)
      let input = Array.init 50 (fun i -> i) in
      let got =
        Exec.Pool.map_reduce pool ~f:string_of_int
          ~reduce:(fun acc s -> acc ^ "," ^ s)
          ~init:"" input
      in
      let want =
        Array.fold_left (fun acc i -> acc ^ "," ^ string_of_int i) "" input
      in
      Alcotest.(check string) "left fold in input order" want got)

exception Boom of int

let test_map_propagates_exceptions () =
  with_pool 4 (fun pool ->
      check_bool "raises" true
        (try
           ignore (Exec.Pool.map pool (fun i -> if i = 13 then raise (Boom i) else i)
                     (Array.init 40 (fun i -> i)));
           false
         with Boom 13 -> true);
      (* The pool survives a failed batch. *)
      check_int "still works" 10
        (Array.fold_left ( + ) 0 (Exec.Pool.map pool (fun x -> x) (Array.init 5 (fun i -> i)))))

let test_nested_maps_do_not_deadlock () =
  (* More in-flight batches than domains: the caller of an inner map
     helps drain the queue instead of deadlocking. *)
  with_pool 2 (fun pool ->
      let out =
        Exec.Pool.map pool
          (fun i ->
            Array.fold_left ( + ) 0
              (Exec.Pool.map pool (fun j -> (10 * i) + j) (Array.init 8 (fun j -> j))))
          (Array.init 6 (fun i -> i))
      in
      Alcotest.(check (array int)) "nested sums"
        (Array.init 6 (fun i -> (80 * i) + 28))
        out)

let test_sequential_pool_inline () =
  let out = Exec.Pool.map Exec.Pool.sequential (fun x -> x + 1) (Array.init 9 (fun i -> i)) in
  Alcotest.(check (array int)) "inline map" (Array.init 9 (fun i -> i + 1)) out;
  check_int "size 1" 1 (Exec.Pool.size Exec.Pool.sequential)

(* ------------------------------------------------------------------ *)
(* Reports *)

let test_report_capture_buffers_output () =
  let r =
    Harness.Report.capture (fun () ->
        Harness.Report.printf "hello %d\n" 42;
        Harness.Report.text "world";
        Harness.Report.result "answer" "42")
  in
  Alcotest.(check string) "buffered" "hello 42\nworld\n" (Harness.Report.render r);
  Alcotest.(check (list (pair string string)))
    "results" [ ("answer", "42") ] (Harness.Report.results r)

let test_report_capture_nests () =
  let inner = ref None in
  let outer =
    Harness.Report.capture (fun () ->
        Harness.Report.text "before";
        inner := Some (Harness.Report.capture (fun () -> Harness.Report.text "nested"));
        Harness.Report.text "after")
  in
  Alcotest.(check string) "outer unpolluted" "before\nafter\n"
    (Harness.Report.render outer);
  Alcotest.(check string) "inner captured" "nested\n"
    (Harness.Report.render (Option.get !inner))

(* ------------------------------------------------------------------ *)
(* Determinism: parallel simulation results are exactly sequential ones *)

let outcome_quad ~pool ~base_seed spec ~duration =
  Harness.Scenario.averaged ~pool ~base_seed ~runs:4 ~factory:Harness.Ccas.cubic
    ~duration spec

let check_exact_quad label (a : Harness.Scenario.mean) (b : Harness.Scenario.mean) =
  check_bool (label ^ ": utilization bit-identical") true (a.util = b.util);
  check_bool (label ^ ": delay bit-identical") true (a.delay = b.delay);
  check_bool (label ^ ": loss bit-identical") true (a.loss = b.loss);
  check_bool (label ^ ": throughput bit-identical") true (a.thr = b.thr)

let test_averaged_deterministic_wired () =
  let spec = Harness.Scenario.make_spec (Traces.Rate.constant 24.0) in
  with_pool 4 (fun pool ->
      let seq = outcome_quad ~pool:Exec.Pool.sequential ~base_seed:5 spec ~duration:4.0 in
      let par = outcome_quad ~pool ~base_seed:5 spec ~duration:4.0 in
      check_exact_quad "wired" seq par)

let test_averaged_deterministic_lte () =
  let trace = Traces.Lte.generate ~seed:11 ~duration:4.0 Traces.Lte.Walking in
  let spec = Harness.Scenario.make_spec ~loss_p:0.01 trace in
  with_pool 4 (fun pool ->
      let seq = outcome_quad ~pool:Exec.Pool.sequential ~base_seed:17 spec ~duration:4.0 in
      let par = outcome_quad ~pool ~base_seed:17 spec ~duration:4.0 in
      check_exact_quad "lte" seq par)

(* Fault-injected runs obey the same contract: the injector draws from
   keyed rng streams, so an impaired scenario is bit-identical at any
   pool size, on both wired and trace-driven (LTE) links. *)
let test_averaged_deterministic_impaired () =
  let impair =
    Faults.Spec.of_string_exn "gilbert+reorder+jitter+outage:at=1,for=0.5"
  in
  let wired = Harness.Scenario.make_spec ~impair (Traces.Rate.constant 24.0) in
  let lte =
    Harness.Scenario.make_spec ~impair
      (Traces.Lte.generate ~seed:11 ~duration:4.0 Traces.Lte.Walking)
  in
  with_pool 4 (fun pool ->
      List.iter
        (fun (label, spec) ->
          let seq =
            outcome_quad ~pool:Exec.Pool.sequential ~base_seed:23 spec
              ~duration:4.0
          in
          let par = outcome_quad ~pool ~base_seed:23 spec ~duration:4.0 in
          check_exact_quad label seq par)
        [ ("impaired wired", wired); ("impaired lte", lte) ])

let test_evaluate_deterministic () =
  (* RL evaluation rollouts fan episodes across the pool; the summary
     must not depend on pool size. *)
  let outcome =
    Rlcc.Train.run
      { Rlcc.Train.default_config with Rlcc.Train.episodes = 3; seed = 71 }
  in
  let seq = Rlcc.Train.evaluate ~pool:Exec.Pool.sequential ~episodes:6 outcome in
  let par = with_pool 4 (fun pool -> Rlcc.Train.evaluate ~pool ~episodes:6 outcome) in
  check_bool "eval bit-identical" true (seq = par);
  check_int "episodes run" 6 seq.Rlcc.Train.episodes_run

(* Registry groups render byte-identical reports whether the experiments
   execute sequentially or fanned across domains. Run at a tiny scale so
   the test stays quick; tab6 exercises the nested trial fan-out and
   fig2b the repeated-LTE fan-out. *)
let tiny_scale =
  {
    Harness.Scale.duration = 2.0;
    runs = 2;
    safety_trials = 2;
    train_episodes = 4;
    eval_episodes = 4;
  }

let test_registry_reports_byte_identical () =
  Harness.Scale.set tiny_scale;
  Fun.protect
    ~finally:(fun () -> Harness.Scale.set Harness.Scale.quick)
    (fun () ->
      (* population-mini rides along: its report (spawn counts, FCT
         percentiles, logical event count — no wall-clock numbers) must
         not move with the worker-pool size either. *)
      let groups = [ "tab6"; "fig2b"; "population-mini" ] in
      (* The experiments take their pool from [Exec.Pool.default]; size
         it explicitly for each pass. *)
      let render_with domains =
        Exec.Pool.set_default_size domains;
        List.map
          (fun id ->
            match Harness.Registry.find id with
            | Some e -> Harness.Report.render (e.Harness.Registry.run ())
            | None -> Alcotest.fail ("missing group " ^ id))
          groups
      in
      let seq = render_with 1 in
      let par = render_with 4 in
      Exec.Pool.set_default_size (Exec.Pool.default_size ());
      List.iter2
        (fun a b -> Alcotest.(check string) "report bytes" a b)
        seq par;
      check_bool "reports non-empty" true (List.for_all (fun s -> s <> "") seq))

(* exp_trace's artifacts (JSONL trace, CSV exports, merged metrics) are
   byte-identical at any pool size: scenarios are tracer lanes and the
   export merges lanes in lane order, not scheduling order. *)
let test_exp_trace_artifacts_byte_identical () =
  Harness.Scale.set tiny_scale;
  Fun.protect
    ~finally:(fun () -> Harness.Scale.set Harness.Scale.quick)
    (fun () ->
      let artifacts_with size =
        with_pool size (fun pool -> Harness.Exp_trace.artifacts ~pool ())
      in
      let seq = artifacts_with 1 in
      let par = artifacts_with 4 in
      List.iter2
        (fun (name_a, a) (name_b, b) ->
          Alcotest.(check string) "artifact name" name_a name_b;
          Alcotest.(check string) (name_a ^ " bytes") a b)
        seq par;
      check_bool "trace non-empty" true
        (List.exists
           (fun (name, contents) -> name = "exp_trace.jsonl" && contents <> "")
           seq))

(* A lane's body: one run, or a nested fan-out over three seeds (the
   tasks have no lane of their own, so their spans, metrics and events
   reach the lane through the pool's join). *)
let lane_body ~pool ~nested lane =
  let spec = Harness.Scenario.make_spec (Traces.Rate.constant 24.0) in
  if nested then
    ignore
      (Harness.Scenario.averaged ~pool ~base_seed:(7 + lane) ~runs:3
         ~factory:Harness.Ccas.cubic ~duration:2.0 spec)
  else
    ignore
      (Harness.Scenario.run_uniform ~seed:(7 + lane) ~factory:Harness.Ccas.cubic
         ~duration:2.0 spec)

(* Span *structure* (lane ids, span names, nesting, counts) is part of
   the determinism contract: a profile recorded over a pool fan-out is
   byte-identical at any pool size. Durations and GC words are host
   measurements and are deliberately absent from [Obs.Span.structure]. *)
let test_span_structure_pool_independent () =
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let structure_with ~nested size =
    with_pool size (fun pool ->
        let t = Obs.Span.create () in
        ignore
          (Exec.Pool.map pool
             (fun lane -> Obs.Span.run t ~lane (fun () -> lane_body ~pool ~nested lane))
             (Array.init 3 Fun.id));
        Obs.Span.structure t)
  in
  List.iter
    (fun nested ->
      let seq = structure_with ~nested 1 in
      let par = structure_with ~nested 4 in
      let what = if nested then " (nested fan-out)" else "" in
      Alcotest.(check string) ("span structure bytes" ^ what) seq par;
      check_bool ("profiles the simulator" ^ what) true
        (contains "netsim.run" seq && contains "sim.loop" seq);
      check_bool ("all three lanes exported" ^ what) true
        (List.for_all (fun l -> contains l seq) [ "lane 0"; "lane 1"; "lane 2" ]))
    [ false; true ];
  check_bool "nested runs nest under pool.map" true
    (contains "lane 1\n  pool.map x1\n    netsim.run x3\n" (structure_with ~nested:true 2))

(* Per-lane metrics registries export the same CSV at any pool size
   when each lane fans out again, float histogram sums included. *)
let test_metrics_pool_independent () =
  let csvs_with size =
    with_pool size (fun pool ->
        Exec.Pool.map pool
          (fun lane ->
            let reg = Obs.Metrics.create_registry () in
            Obs.Metrics.run reg (fun () -> lane_body ~pool ~nested:true lane);
            Obs.Metrics.to_csv reg)
          (Array.init 3 Fun.id))
  in
  let seq = csvs_with 1 in
  Array.iteri
    (fun lane csv ->
      Alcotest.(check string) (Printf.sprintf "lane %d metrics csv" lane) seq.(lane) csv)
    (csvs_with 4);
  check_bool "acks counted" true
    (String.length seq.(0) > 0
    && List.exists
         (fun l -> String.length l > 16 && String.sub l 0 16 = "netsim.flow.acks")
         (String.split_on_char '\n' seq.(0)));
  (* Histogram sums add in inline order: ((1 + 1e17) - 1e17) is 0,
     while adding the second task's own sum (1e17 - 1e17 = 0) to 1
     would give 1. *)
  let p = Obs.Metrics.histogram "test.exec.sum_order" ~bounds:[| 1.0 |] in
  let sum_csv_with size =
    with_pool size (fun pool ->
        let reg = Obs.Metrics.create_registry () in
        Obs.Metrics.run reg (fun () ->
            ignore
              (Exec.Pool.map pool
                 (fun vs -> List.iter (Obs.Metrics.observe p) vs)
                 [| [ 1.0 ]; [ 1e17; -1e17 ] |]));
        Obs.Metrics.to_csv reg)
  in
  let sums = sum_csv_with 1 in
  check_bool "inline sum is 0" true
    (List.mem "test.exec.sum_order,histogram,sum,0" (String.split_on_char '\n' sums));
  Alcotest.(check string) "sum at pool 2" sums (sum_csv_with 2);
  Alcotest.(check string) "sum at pool 4" sums (sum_csv_with 4)

(* A nested task that raises: the lane's trace is the inline one up to
   and including the raising task (later tasks are dropped, as the
   inline branch never runs them), and the exception propagates. *)
let test_raising_nested_task_pool_independent () =
  let trace_with size =
    with_pool size (fun pool ->
        let tr = Obs.Trace.create () in
        let raised =
          Obs.Trace.run tr ~lane:0 (fun () ->
              match
                Exec.Pool.map pool
                  (fun i ->
                    for k = 0 to 9 do
                      Obs.Trace.emit
                        (Obs.Event.Enqueue
                           { t = float_of_int k; flow = i; seq = k; size = 1500; backlog = k })
                    done;
                    if i = 2 then raise (Boom i))
                  (Array.init 6 Fun.id)
              with
              | _ -> None
              | exception Boom i -> Some i)
        in
        (raised, Obs.Trace.to_jsonl tr))
  in
  let raised1, seq = trace_with 1 in
  let raised4, par = trace_with 4 in
  check_bool "raised inline" true (raised1 = Some 2);
  check_bool "raised in parallel" true (raised4 = Some 2);
  Alcotest.(check string) "spliced trace equals inline" seq par;
  (* manifest line + ten events from each of tasks 0..2 + final newline *)
  check_int "tasks 0..2 recorded" 32 (List.length (String.split_on_char '\n' seq))

(* The online invariant checker joins the determinism contract:
   per-lane checkers over a pool fan-out (the wiring `experiments
   --invariant` uses) must record identical violation lists at any pool
   size — same specs, indices, times, and details, byte for byte. *)
let test_checker_pool_independent () =
  let render c =
    String.concat "\n"
      (List.map
         (fun (v : Check.Checker.violation) ->
           Printf.sprintf "%s|%s|%d|%.17g|%s" v.spec v.kind v.index v.time
             v.detail)
         (Check.Checker.violations c))
  in
  let violations_with ~nested size =
    with_pool size (fun pool ->
        let spec = Harness.Scenario.make_spec (Traces.Rate.constant 24.0) in
        (* One spec that fires on every ACK, one that stays clean:
           both the dirty and the clean path must be pool-independent. *)
        let pack =
          Check.Spec.parse_lines
            [ "bad-rtt: always ev=ack & rtt<0"; "q-nonneg: always backlog>=0" ]
        in
        let tracer = Obs.Trace.create () in
        Exec.Pool.map pool
          (fun lane ->
            let c = Check.Checker.create ~rtt:spec.Harness.Scenario.rtt pack in
            Obs.Trace.run tracer ~lane ~observer:(Check.Checker.on_event c)
              (fun () -> lane_body ~pool ~nested lane);
            (Check.Checker.events_seen c, Check.Checker.total c, render c))
          (Array.init 3 Fun.id))
  in
  List.iter
    (fun nested ->
      let seq = violations_with ~nested 1 in
      let par = violations_with ~nested 4 in
      let what = if nested then " (nested)" else "" in
      check_int ("lane count" ^ what) (Array.length seq) (Array.length par);
      Array.iteri
        (fun lane (ev_s, tot_s, render_s) ->
          let ev_p, tot_p, render_p = par.(lane) in
          check_int (Printf.sprintf "lane %d events%s" lane what) ev_s ev_p;
          check_int (Printf.sprintf "lane %d total%s" lane what) tot_s tot_p;
          check_bool (Printf.sprintf "lane %d violations fired%s" lane what) true (tot_s > 0);
          Alcotest.(check string)
            (Printf.sprintf "lane %d violation bytes%s" lane what)
            render_s render_p)
        seq)
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Supervised registry runs: crash isolation and checkpoint/resume *)

let mk_entry id body = Harness.Registry.e id ("test entry " ^ id) body id

let ok_a () =
  mk_entry "ok-a" (fun () ->
      Harness.Report.printf "alpha line\n";
      Harness.Report.result "alpha" "1")

let ok_b () = mk_entry "ok-b" (fun () -> Harness.Report.printf "beta line\n")
let crash () = mk_entry "crash" (fun () -> failwith "injected")

let renders outcomes =
  List.map
    (fun o -> (o.Harness.Registry.entry.Harness.Registry.id,
               Harness.Report.render o.Harness.Registry.report))
    outcomes

(* A crashing entry must not perturb its siblings: their reports are
   byte-identical to a run without the crasher, at any pool size, and
   the failure surfaces as a structured outcome in input order. *)
let test_crashing_sibling_isolated () =
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          let with_crash =
            Harness.Registry.run_entries ~pool
              ~entries:[ ok_a (); crash (); ok_b () ] ()
          in
          let without =
            Harness.Registry.run_entries ~pool ~entries:[ ok_a (); ok_b () ] ()
          in
          (match with_crash with
          | [ a; c; b ] ->
            check_bool "a ok" true (a.Harness.Registry.failure = None);
            check_bool "b ok" true (b.Harness.Registry.failure = None);
            (match c.Harness.Registry.failure with
            | Some f ->
              check_bool "crash kind" true
                (f.Exec.Supervisor.kind = Exec.Supervisor.Crash)
            | None -> Alcotest.fail "crasher reported success")
          | _ -> Alcotest.fail "outcome order/length wrong");
          let pick id l = List.assoc id (renders l) in
          Alcotest.(check string)
            (Printf.sprintf "ok-a bytes (pool %d)" size)
            (pick "ok-a" without) (pick "ok-a" with_crash);
          Alcotest.(check string)
            (Printf.sprintf "ok-b bytes (pool %d)" size)
            (pick "ok-b" without) (pick "ok-b" with_crash);
          let s = Harness.Registry.summarize with_crash in
          check_int "total" 3 s.Harness.Registry.total;
          check_int "ok" 2 s.Harness.Registry.ok;
          check_int "failed" 1 s.Harness.Registry.failed))
    [ 1; 4 ]

let temp_ckpt_store =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "libra-exec-ckpt-%d-%d" (Unix.getpid ()) !n)
    in
    Exec.Checkpoint.create ~dir

(* Kill-and-resume: a first run that loses an entry to a crash leaves
   its finished siblings checkpointed; the resume run serves those
   byte-identically and re-executes only the unfinished cell. *)
let test_checkpoint_resume_skips_completed () =
  let store = temp_ckpt_store () in
  let sv resume =
    {
      Harness.Registry.default_supervision with
      Harness.Registry.checkpoint = Some store;
      resume;
    }
  in
  let first =
    Harness.Registry.run_entries ~pool:Exec.Pool.sequential
      ~supervision:(sv false)
      ~entries:[ ok_a (); crash (); ok_b () ]
      ()
  in
  check_bool "nothing resumed on first run" true
    (List.for_all
       (fun (o : Harness.Registry.outcome) -> not o.Harness.Registry.resumed)
       first);
  (* Second run: the crasher is replaced by a now-working entry (the
     "restart after fixing the fault" scenario). Completed cells are
     served from the store; only the fixed cell executes. *)
  let executed = ref [] in
  let fixed =
    Harness.Registry.e "crash" "test entry crash (fixed)"
      (fun () ->
        executed := "crash" :: !executed;
        Harness.Report.printf "recovered\n")
      "crash"
  in
  let logged id body () =
    executed := id :: !executed;
    body ()
  in
  let ok_a' =
    Harness.Registry.e "ok-a" "test entry ok-a"
      (logged "ok-a" (fun () ->
           Harness.Report.printf "alpha line\n";
           Harness.Report.result "alpha" "1"))
      "ok-a"
  in
  let ok_b' =
    Harness.Registry.e "ok-b" "test entry ok-b"
      (logged "ok-b" (fun () -> Harness.Report.printf "beta line\n"))
      "ok-b"
  in
  let second =
    Harness.Registry.run_entries ~pool:Exec.Pool.sequential
      ~supervision:(sv true) ~entries:[ ok_a'; fixed; ok_b' ] ()
  in
  (match second with
  | [ a; c; b ] ->
    check_bool "ok-a resumed" true a.Harness.Registry.resumed;
    check_bool "ok-b resumed" true b.Harness.Registry.resumed;
    check_bool "crash cell re-executed" true (not c.Harness.Registry.resumed);
    check_bool "crash cell now ok" true (c.Harness.Registry.failure = None)
  | _ -> Alcotest.fail "outcome order/length wrong");
  Alcotest.(check (list string)) "only the unfinished cell ran" [ "crash" ]
    !executed;
  (* Resumed reports are byte-identical to the originals. *)
  let pick id l = List.assoc id (renders l) in
  Alcotest.(check string) "ok-a bytes across resume" (pick "ok-a" first)
    (pick "ok-a" second);
  Alcotest.(check string) "ok-b bytes across resume" (pick "ok-b" first)
    (pick "ok-b" second);
  let s = Harness.Registry.summarize second in
  check_int "resumed count" 2 s.Harness.Registry.resumed;
  check_int "failed count" 0 s.Harness.Registry.failed

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_map_preserves_order;
          Alcotest.test_case "map_list order" `Quick test_map_list_preserves_order;
          Alcotest.test_case "map_reduce order" `Quick test_map_reduce_folds_in_input_order;
          Alcotest.test_case "exceptions" `Quick test_map_propagates_exceptions;
          Alcotest.test_case "nested no deadlock" `Quick test_nested_maps_do_not_deadlock;
          Alcotest.test_case "sequential inline" `Quick test_sequential_pool_inline;
        ] );
      ( "report",
        [
          Alcotest.test_case "capture buffers" `Quick test_report_capture_buffers_output;
          Alcotest.test_case "capture nests" `Quick test_report_capture_nests;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "averaged wired" `Slow test_averaged_deterministic_wired;
          Alcotest.test_case "averaged lte" `Slow test_averaged_deterministic_lte;
          Alcotest.test_case "averaged impaired" `Slow
            test_averaged_deterministic_impaired;
          Alcotest.test_case "rl evaluate" `Slow test_evaluate_deterministic;
          Alcotest.test_case "registry reports" `Slow test_registry_reports_byte_identical;
          Alcotest.test_case "exp_trace artifacts" `Slow
            test_exp_trace_artifacts_byte_identical;
          Alcotest.test_case "invariant checker" `Slow
            test_checker_pool_independent;
          Alcotest.test_case "span structure" `Slow
            test_span_structure_pool_independent;
          Alcotest.test_case "metrics registries" `Slow test_metrics_pool_independent;
          Alcotest.test_case "raising nested task" `Quick
            test_raising_nested_task_pool_independent;
        ] );
      ( "supervised",
        [
          Alcotest.test_case "crash isolation" `Quick test_crashing_sibling_isolated;
          Alcotest.test_case "checkpoint resume" `Quick
            test_checkpoint_resume_skips_completed;
        ] );
    ]
