(* Tests for lib/search: generator round-trips through the --impair
   grammar, mutants stay inside the valid box, the engine is
   byte-identical at pool 1 vs 4 (per-candidate split_key streams +
   order-preserving pool map), the shrinker's output is still a
   counterexample and locally minimal, and the scenarios/ corpus
   round-trips through its .scn file format and rejects values a
   replay would truncate or cannot run. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Generator: parse (to_string s) = s, structurally *)

let prop_gen_roundtrip =
  QCheck.Test.make ~name:"generated specs round-trip the grammar" ~count:300
    QCheck.small_int (fun seed ->
      let rng = Netsim.Rng.create seed in
      let s = Search.Gen.spec rng in
      Faults.Spec.of_string_exn (Faults.Spec.to_string s) = s)

(* ------------------------------------------------------------------ *)
(* Mutator: every mutant's spec still round-trips and its knobs stay
   inside the validity box (the add-channel move is Gen.channel_item,
   so this also exercises the generator under mutation pressure). *)

let knobs_valid (k : Search.Space.knobs) =
  k.Search.Space.bw_mbps >= Search.Space.min_bw
  && k.Search.Space.bw_mbps <= Search.Space.max_bw
  && k.Search.Space.rtt >= Search.Space.min_rtt
  && k.Search.Space.rtt <= Search.Space.max_rtt
  && k.Search.Space.buffer_kb >= Search.Space.min_buffer_kb
  && k.Search.Space.buffer_kb <= Search.Space.max_buffer_kb
  && k.Search.Space.flows >= Search.Space.min_flows
  && k.Search.Space.flows <= Search.Space.max_flows

let prop_mutants_valid =
  QCheck.Test.make ~name:"mutation chains preserve validity" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Netsim.Rng.create (seed + 1) in
      let cand =
        ref
          {
            Search.Space.impair = Search.Gen.nonempty_spec rng;
            knobs = Search.Space.base_knobs;
          }
      in
      let ok = ref true in
      for _ = 1 to 20 do
        cand :=
          Search.Mutate.mutate rng ~weights:Search.Mutate.uniform_weights !cand;
        let spec = !cand.Search.Space.impair in
        if Faults.Spec.of_string_exn (Faults.Spec.to_string spec) <> spec then
          ok := false;
        if not (knobs_valid !cand.Search.Space.knobs) then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Engine: same seed => identical result at pool 1 vs 4. The synthetic
   runner is a pure hash of the candidate, so this isolates the
   engine's own determinism (stream derivation, selection ties,
   feedback plumbing) from the simulator's. *)

let synthetic_runner ~impair (knobs : Search.Space.knobs) =
  let h =
    Hashtbl.hash
      ( Faults.Spec.to_string impair,
        knobs.Search.Space.bw_mbps,
        knobs.Search.Space.rtt,
        knobs.Search.Space.buffer_kb,
        knobs.Search.Space.flows )
  in
  {
    Search.Eval.throughput_bps = 1e6 +. (1000.0 *. float_of_int (h mod 997));
    mean_delay = knobs.Search.Space.rtt +. (0.0001 *. float_of_int (h mod 31));
    loss_rate = float_of_int (h mod 13) /. 100.0;
  }

let render_result (r : Search.Engine.result) =
  String.concat "\n"
    (Printf.sprintf "best %s deg=%.6f evals=%d found=%s"
       (Search.Space.to_string r.Search.Engine.best.Search.Eval.cand)
       r.Search.Engine.best.Search.Eval.degradation r.Search.Engine.evals
       (match r.Search.Engine.found_gen with
       | Some g -> string_of_int g
       | None -> "-")
    :: List.map
         (fun (s : Search.Engine.gen_stat) ->
           Printf.sprintf "gen %d %.6f %s" s.Search.Engine.gen
             s.Search.Engine.best_degradation s.Search.Engine.best_spec)
         r.Search.Engine.stats)

let test_engine_pool_determinism () =
  let config =
    {
      Search.Engine.default_config with
      seed = 42;
      generations = 4;
      population = 8;
      threshold = 1e9 (* unreachable: exercise full generational loop *);
    }
  in
  let run pool =
    render_result
      (Search.Engine.search ~pool ~config ~runner:synthetic_runner ())
  in
  let p4 = Exec.Pool.create ~size:4 () in
  let seq = run Exec.Pool.sequential in
  let par = run p4 in
  Exec.Pool.shutdown p4;
  check_string "pool 1 vs 4 identical" seq par;
  (* and a different seed actually changes the search *)
  let other =
    render_result
      (Search.Engine.search ~pool:Exec.Pool.sequential
         ~config:{ config with Search.Engine.seed = 43 }
         ~runner:synthetic_runner ())
  in
  check_bool "seed matters" true (other <> seq)

(* ------------------------------------------------------------------ *)
(* End-to-end (Slow): the searchcheck shape. A 2-generation mini search
   with a planted trivial counterexample must (re)discover a spec
   degrading CUBIC's utility >= 25% vs clean; the shrunk result still
   crosses the threshold and is locally minimal: removing any single
   channel or shaper drops it back below. *)

let mini_config =
  {
    Search.Engine.seed = 5;
    generations = 2;
    population = 4;
    elites = 2;
    threshold = 0.25;
    duration = 2.0;
  }

let plant =
  {
    Search.Space.impair = Faults.Spec.of_string_exn "bernoulli:p=0.3";
    knobs = Search.Space.base_knobs;
  }

let test_search_finds_and_shrinks_cubic () =
  let runner =
    Harness.Scenario.adversarial_runner ~factory:Harness.Ccas.cubic
      ~duration:mini_config.Search.Engine.duration ()
  in
  let r =
    Search.Engine.search ~pool:Exec.Pool.sequential ~plants:[ plant ]
      ~config:mini_config ~runner ()
  in
  check_bool "found a counterexample" true (r.Search.Engine.found_gen <> None);
  check_bool "crosses the 25% threshold" true
    (r.Search.Engine.best.Search.Eval.degradation >= 0.25);
  let shrunk, steps =
    Search.Shrink.shrink ~pool:Exec.Pool.sequential ~runner
      ~duration:mini_config.Search.Engine.duration ~threshold:0.25
      r.Search.Engine.best
  in
  check_bool "shrunk result still a counterexample" true
    (shrunk.Search.Eval.degradation >= 0.25);
  check_bool "shrinking monotonically simplifies or holds" true (steps >= 0);
  (* Local minimality: dropping any single channel or shaper of the
     shrunk spec must fall below the threshold (otherwise the shrinker
     would have accepted that drop and kept going). *)
  let spec = shrunk.Search.Eval.cand.Search.Space.impair in
  let knobs = shrunk.Search.Eval.cand.Search.Space.knobs in
  let deg_of impair =
    (Search.Eval.evaluate ~runner ~duration:mini_config.Search.Engine.duration
       { Search.Space.impair; knobs })
      .Search.Eval.degradation
  in
  check_bool "shrunk spec is non-empty" false (Faults.Spec.is_empty spec);
  List.iteri
    (fun i _ ->
      let dropped =
        {
          spec with
          Faults.Spec.channels =
            List.filteri (fun j _ -> j <> i) spec.Faults.Spec.channels;
        }
      in
      check_bool
        (Printf.sprintf "dropping channel %d falls below threshold" i)
        true
        (deg_of dropped < 0.25))
    spec.Faults.Spec.channels;
  List.iteri
    (fun i _ ->
      let dropped =
        {
          spec with
          Faults.Spec.shapers =
            List.filteri (fun j _ -> j <> i) spec.Faults.Spec.shapers;
        }
      in
      check_bool
        (Printf.sprintf "dropping shaper %d falls below threshold" i)
        true
        (deg_of dropped < 0.25))
    spec.Faults.Spec.shapers

(* Feedback plumbing: the impaired leg's registry must carry the flow
   engine's ACK counter under the name [feedback_of_registry] reads.
   Were the probe renamed, [acks] would read 0 and the engine's
   tail-drops/ACKs knob bias would silently change the search. *)
let test_feedback_counts_acks () =
  let runner =
    Harness.Scenario.adversarial_runner ~factory:Harness.Ccas.cubic
      ~duration:1.0 ()
  in
  let r = Search.Eval.evaluate ~runner ~duration:1.0 plant in
  let fb = r.Search.Eval.feedback in
  check_bool "acks > 0" true (fb.Search.Eval.acks > 0.0);
  check_bool "offered > 0" true (fb.Search.Eval.offered > 0.0)

(* ------------------------------------------------------------------ *)
(* scenarios/ corpus: .scn round-trip and directory loading *)

let sample_cex name =
  {
    Harness.Scenario.name;
    cca = "cubic";
    impair = Faults.Spec.of_string_exn "bernoulli:p=0.05+clamp:factor=0.5";
    knobs =
      { Search.Space.bw_mbps = 48.0; rtt = 0.06; buffer_kb = 75; flows = 2 };
    threshold = 0.25;
    degradation = 0.5;
    seed = 11;
    duration = 2.0;
  }

let test_scn_roundtrip () =
  let dir = Filename.temp_file "libra-scn" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let c = sample_cex "rt" in
  let path = Filename.concat dir "rt.scn" in
  Harness.Scenario.to_file path c;
  (match Harness.Scenario.of_file path with
  | Error m -> Alcotest.fail m
  | Ok c' ->
    check_bool "field-for-field round-trip" true (c' = c));
  (* the stamped manifest line is present and ignored on load *)
  let text = In_channel.with_open_text path In_channel.input_all in
  check_bool "manifest-stamped" true
    (String.split_on_char '\n' text
    |> List.exists (fun l -> String.length l > 9 && String.sub l 0 9 = "manifest:"))

let test_corpus_load_dir () =
  check_int "missing dir is an empty corpus" 0
    (List.length (Harness.Scenario.load_corpus ~dir:"/nonexistent-corpus" ()));
  let dir = Filename.temp_file "libra-corpus" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Harness.Scenario.to_file (Filename.concat dir "b.scn") (sample_cex "b");
  Harness.Scenario.to_file (Filename.concat dir "a.scn") (sample_cex "a");
  (* non-.scn files are ignored *)
  Out_channel.with_open_text (Filename.concat dir "README.md") (fun oc ->
      Out_channel.output_string oc "not a scenario\n");
  let corpus = Harness.Scenario.load_corpus ~dir () in
  check_int "two scenarios" 2 (List.length corpus);
  check_string "sorted by file name" "a"
    (List.hd corpus).Harness.Scenario.name;
  (* a malformed committed file raises rather than silently skipping *)
  Out_channel.with_open_text (Filename.concat dir "c.scn") (fun oc ->
      Out_channel.output_string oc "impair: bogus\ncca: cubic\n");
  check_bool "malformed corpus file raises" true
    (match Harness.Scenario.load_corpus ~dir () with
    | exception Failure _ -> true
    | _ -> false)

(* The reader rejects what it would otherwise truncate (a float count
   or seed), what the replay cannot run (a NaN buffer, an RTT or a
   bandwidth outside the search box, an unknown CCA) and non-finite
   floats, each with the line it sits on. *)
let test_scn_rejects_unrunnable_values () =
  let expect_error name ~line ~expect body =
    let text = "name: bad\ncca: cubic\nimpair: clean\n" ^ body ^ "\n" in
    match Harness.Scenario.counterexample_of_string ~fallback_name:"bad" text with
    | Ok _ -> Alcotest.fail (name ^ ": accepted")
    | Error m ->
      let contains sub =
        let n = String.length sub and k = String.length m in
        let rec go i = i + n <= k && (String.sub m i n = sub || go (i + 1)) in
        go 0
      in
      check_bool (Printf.sprintf "%s: %S names line %d" name m line) true
        (contains (Printf.sprintf "line %d:" line));
      check_bool (Printf.sprintf "%s: %S says %S" name m expect) true (contains expect)
  in
  expect_error "fractional flows" ~line:4 ~expect:"not an integer" "flows: 2.5";
  expect_error "nan buffer" ~line:4 ~expect:"not an integer" "buffer_kb: nan";
  expect_error "huge seed" ~line:4 ~expect:"not an integer" "seed: 1e30";
  expect_error "negative rtt" ~line:4 ~expect:"outside" "rtt: -5";
  expect_error "infinite rtt" ~line:4 ~expect:"not finite" "rtt: inf";
  expect_error "bandwidth above the box" ~line:4 ~expect:"outside"
    "bandwidth_mbps: 1000";
  expect_error "buffer below the box" ~line:4 ~expect:"outside" "buffer_kb: 1";
  expect_error "too many flows" ~line:4 ~expect:"outside" "flows: 9";
  expect_error "nan threshold" ~line:4 ~expect:"not finite" "threshold: nan";
  expect_error "nan degradation" ~line:4 ~expect:"not finite" "degradation: nan";
  expect_error "zero duration" ~line:4 ~expect:"not a positive duration"
    "duration: 0";
  match
    Harness.Scenario.counterexample_of_string ~fallback_name:"x"
      "cca: bogus\nimpair: clean\n"
  with
  | Ok _ -> Alcotest.fail "unknown cca accepted"
  | Error m ->
    check_bool (Printf.sprintf "unknown cca: %S names line 1" m) true
      (String.length m > 7 && String.sub m 0 7 = "line 1:")

let () =
  Alcotest.run "search"
    [
      ( "generator",
        [
          QCheck_alcotest.to_alcotest prop_gen_roundtrip;
          QCheck_alcotest.to_alcotest prop_mutants_valid;
        ] );
      ( "engine",
        [
          Alcotest.test_case "pool 1 vs 4 identical" `Quick
            test_engine_pool_determinism;
        ] );
      ( "feedback",
        [ Alcotest.test_case "impaired leg counts acks" `Quick test_feedback_counts_acks ]
      );
      ( "end-to-end",
        [
          Alcotest.test_case "finds + shrinks a CUBIC counterexample" `Slow
            test_search_finds_and_shrinks_cubic;
        ] );
      ( "corpus",
        [
          Alcotest.test_case ".scn round-trip" `Quick test_scn_roundtrip;
          Alcotest.test_case "load_dir" `Quick test_corpus_load_dir;
          Alcotest.test_case "rejects unrunnable values" `Quick
            test_scn_rejects_unrunnable_values;
        ] );
    ]
