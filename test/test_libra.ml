(* Tests for the Libra core: utility function (including the
   Theorem 4.1 properties), the three-stage controller, telemetry and
   the ideal combiner. *)

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Utility: Eq. 1 *)

let test_utility_rewards_throughput () =
  let u = Libra.Utility.eval_raw Libra.Utility.default ~rtt_gradient:0.0 ~loss_rate:0.0 in
  check_bool "monotone in x when clean" true (u ~rate_mbps:20.0 > u ~rate_mbps:10.0)

let test_utility_penalises_gradient_and_loss () =
  let base =
    Libra.Utility.eval_raw Libra.Utility.default ~rate_mbps:20.0 ~rtt_gradient:0.0
      ~loss_rate:0.0
  in
  let grad =
    Libra.Utility.eval_raw Libra.Utility.default ~rate_mbps:20.0 ~rtt_gradient:0.05
      ~loss_rate:0.0
  in
  let loss =
    Libra.Utility.eval_raw Libra.Utility.default ~rate_mbps:20.0 ~rtt_gradient:0.0
      ~loss_rate:0.05
  in
  check_bool "gradient penalised" true (grad < base);
  check_bool "loss penalised" true (loss < base)

let test_utility_ignores_negative_gradient () =
  let a =
    Libra.Utility.eval_raw Libra.Utility.default ~rate_mbps:20.0 ~rtt_gradient:(-0.5)
      ~loss_rate:0.0
  in
  let b =
    Libra.Utility.eval_raw Libra.Utility.default ~rate_mbps:20.0 ~rtt_gradient:0.0
      ~loss_rate:0.0
  in
  Alcotest.(check (float 1e-9)) "max(0, grad)" b a

(* Concavity in x_i (Lemma A.2 part 1): second difference negative. *)
let prop_utility_concave_in_rate =
  QCheck.Test.make ~name:"fluid utility concave in own rate" ~count:200
    QCheck.(triple (float_range 1.0 50.0) (float_range 0.0 100.0) (float_range 10.0 100.0))
    (fun (x, others, capacity) ->
      let u v = Libra.Utility.fluid Libra.Utility.default ~x:v ~others ~capacity in
      let h = 0.5 in
      let second = u (x +. h) +. u (x -. h) -. (2.0 *. u x) in
      second < 1e-6)

(* The symmetric profile beats unilateral deviations (Theorem 4.1). *)
let prop_fair_share_is_equilibrium =
  QCheck.Test.make ~name:"no profitable unilateral deviation at fair share" ~count:100
    QCheck.(pair (int_range 2 6) (float_range 20.0 100.0))
    (fun (n, capacity) ->
      (* Find the symmetric equilibrium x* by scanning: each sender at
         x, utility of one sender deviating to v. *)
      let best_symmetric =
        let best = ref (0.0, neg_infinity) in
        for i = 1 to 400 do
          let x = capacity *. float_of_int i /. (200.0 *. float_of_int n) in
          let u =
            Libra.Utility.fluid Libra.Utility.default ~x
              ~others:(float_of_int (n - 1) *. x)
              ~capacity
          in
          if u > snd !best then best := (x, u)
        done;
        fst !best
      in
      let x = best_symmetric in
      let others = float_of_int (n - 1) *. x in
      let u_star = Libra.Utility.fluid Libra.Utility.default ~x ~others ~capacity in
      (* No deviation on a coarse grid improves on x*. *)
      let ok = ref true in
      for i = 1 to 100 do
        let v = capacity *. float_of_int i /. 50.0 /. float_of_int n in
        if Float.abs (v -. x) > 1e-9 then begin
          let u_dev = Libra.Utility.fluid Libra.Utility.default ~x:v ~others ~capacity in
          if u_dev > u_star +. 1e-6 then ok := false
        end
      done;
      !ok)

let test_presets_order_throughput_weight () =
  let alpha p = p.Libra.Utility.alpha in
  check_bool "Th-2 > Th-1 > default" true
    (alpha Libra.Utility.throughput_2 > alpha Libra.Utility.throughput_1
    && alpha Libra.Utility.throughput_1 > alpha Libra.Utility.default);
  let beta p = p.Libra.Utility.beta in
  check_bool "La-2 > La-1 > default" true
    (beta Libra.Utility.latency_2 > beta Libra.Utility.latency_1
    && beta Libra.Utility.latency_1 > beta Libra.Utility.default)

(* ------------------------------------------------------------------ *)
(* Controller state machine *)

let mk_controller ?(params = Libra.Params.default) ?classic () =
  let classic =
    match classic with Some c -> c | None -> Some (Classic_cc.Cubic.embedded ())
  in
  Libra.Controller.create ~initial_rate:1e6 ~params ~classic
    ~outcome:(Rlcc.Pretrained.libra_policy ()) ()

let ack ~now ~seq ?(rtt = 0.05) () =
  {
    Netsim.Cca.now;
    seq;
    rtt;
    acked_bytes = 1500;
    inflight = 10;
    delivered_bytes = 1500 * seq;
    rate_sample = 2e6;
    newly_lost = 0;
  }

let send ~now ~seq =
  { Netsim.Cca.now; seq; size = 1500; inflight = 10 }

let test_controller_starts_in_exploration () =
  let c = mk_controller () in
  Libra.Controller.on_ack c (ack ~now:0.05 ~seq:0 ());
  check_bool "exploration" true (Libra.Controller.stage c = Libra.Controller.Exploration)

let test_controller_cycles_through_stages () =
  let c = mk_controller () in
  (* Drive with a regular ack clock; the stage must visit all four
     stages and come back to exploration. *)
  let seen = Hashtbl.create 4 in
  let seq = ref 0 in
  let now = ref 0.0 in
  for _ = 1 to 2000 do
    incr seq;
    now := !now +. 0.004;
    Libra.Controller.on_send c (send ~now:!now ~seq:!seq);
    Libra.Controller.on_ack c (ack ~now:!now ~seq:(max 0 (!seq - 12)) ());
    Hashtbl.replace seen (Libra.Controller.stage c) ()
  done;
  check_bool "all stages visited" true (Hashtbl.length seen = 4);
  check_bool "made decisions" true
    (Libra.Telemetry.total (Libra.Controller.telemetry c) > 0)

let test_controller_decision_is_argmax () =
  let c = mk_controller () in
  let seq = ref 0 and now = ref 0.0 in
  for _ = 1 to 4000 do
    incr seq;
    now := !now +. 0.003;
    Libra.Controller.on_send c (send ~now:!now ~seq:!seq);
    Libra.Controller.on_ack c (ack ~now:!now ~seq:(max 0 (!seq - 12)) ())
  done;
  let cycles = Libra.Telemetry.cycles (Libra.Controller.telemetry c) in
  check_bool "has cycles" true (cycles <> []);
  List.iter
    (fun cy ->
      let u_chosen =
        match cy.Libra.Telemetry.chosen with
        | Libra.Telemetry.Prev -> cy.Libra.Telemetry.u_prev
        | Libra.Telemetry.Rl -> cy.Libra.Telemetry.u_rl
        | Libra.Telemetry.Cl -> cy.Libra.Telemetry.u_cl
      in
      check_bool "chosen has max utility" true
        (u_chosen >= cy.Libra.Telemetry.u_prev -. 1e9 *. epsilon_float
        && u_chosen >= cy.Libra.Telemetry.u_rl
        && u_chosen >= cy.Libra.Telemetry.u_cl))
    cycles

let test_controller_timeout_halves_base () =
  let c = mk_controller () in
  Libra.Controller.on_ack c (ack ~now:0.05 ~seq:0 ());
  let before = Libra.Controller.base_rate c in
  (* One timeout keeps the base rate (the paper's no-ACK rule: a single
     tail-loss RTO is routine on lossy paths)... *)
  Libra.Controller.on_loss c
    { Netsim.Cca.now = 0.5; lost = 10; kind = Netsim.Cca.Timeout; inflight = 0 };
  Alcotest.(check (float 1.0)) "kept after one timeout" before
    (Libra.Controller.base_rate c);
  (* ...consecutive timeouts (collapsed path) halve it. *)
  Libra.Controller.on_loss c
    { Netsim.Cca.now = 1.0; lost = 10; kind = Netsim.Cca.Timeout; inflight = 0 };
  Alcotest.(check (float 1.0)) "halved after two" (before /. 2.0)
    (Libra.Controller.base_rate c)

(* Watchdog: a diverged DRL agent (non-finite rate) must be quarantined
   — the poisoned rate is never applied, the cycle falls back to the
   classic arm, and the fallback is visible in the counter and as a
   harness trace event. The controller itself keeps cycling. *)
let test_controller_watchdog_quarantines_nan_rl () =
  let c = mk_controller () in
  let tracer = Obs.Trace.create () in
  Obs.Trace.run tracer ~lane:0 (fun () ->
      let seq = ref 0 and now = ref 0.0 in
      for _ = 1 to 2000 do
        incr seq;
        now := !now +. 0.004;
        Libra.Controller.on_send c (send ~now:!now ~seq:!seq);
        Libra.Controller.on_ack c (ack ~now:!now ~seq:(max 0 (!seq - 12)) ());
        (* The controller re-imposes the base rate on the agent at each
           exploration entry, so keep re-poisoning while exploring —
           as a policy whose every decision diverges would. *)
        if Libra.Controller.stage c = Libra.Controller.Exploration then
          Rlcc.Agent.set_rate (Libra.Controller.agent c) Float.nan
      done);
  check_bool "watchdog fired" true (Libra.Controller.rl_fallbacks c > 0);
  check_bool "base rate never poisoned" true
    (Float.is_finite (Libra.Controller.base_rate c)
    && Libra.Controller.base_rate c > 0.0);
  let cycles = Libra.Telemetry.cycles (Libra.Controller.telemetry c) in
  check_bool "controller kept cycling" true (cycles <> []);
  (* Quarantined cycles score the RL arm at -inf; none of them may have
     adopted it. *)
  check_bool "quarantined cycles avoid the RL arm" true
    (List.for_all
       (fun cy ->
         cy.Libra.Telemetry.u_rl > neg_infinity
         || cy.Libra.Telemetry.chosen <> Libra.Telemetry.Rl)
       cycles);
  check_bool "at least one quarantined cycle" true
    (List.exists (fun cy -> cy.Libra.Telemetry.u_rl = neg_infinity) cycles);
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "fallback harness event traced" true
    (contains "\"fallback\"" (Obs.Trace.to_jsonl tracer))

(* End-to-end: C-Libra on the simulator beats CUBIC on delay while
   keeping most of the utilization (the Fig. 7 story). *)
let run_cca cca =
  let link =
    { Netsim.Network.rate_fn = (fun _ -> Netsim.Units.mbps_to_bps 24.0); const_rate = None;
      grain = 0.02; buffer_bytes = Netsim.Units.kb 150; loss_p = 0.0 ; aqm = `Fifo}
  in
  let flows = [ { Netsim.Network.cca; start_at = 0.0; stop_at = 15.0; rtt = 0.03 } ] in
  let s = Netsim.Network.run ~link ~flows ~duration:15.0 () in
  match s.Netsim.Network.flows with
  | [ f ] -> (Netsim.Network.utilization s, Netsim.Flow_stats.mean_rtt f.Netsim.Network.stats)
  | _ -> Alcotest.fail "one flow"

let test_c_libra_pareto_vs_cubic () =
  let u_libra, d_libra = run_cca (Libra.make_c_libra ()) in
  let u_cubic, d_cubic = run_cca (Classic_cc.Cubic.make ()) in
  check_bool
    (Printf.sprintf "libra util %.2f (cubic %.2f)" u_libra u_cubic)
    true (u_libra > 0.75);
  check_bool
    (Printf.sprintf "libra delay %.0fms << cubic %.0fms" (1000. *. d_libra) (1000. *. d_cubic))
    true
    (d_libra < 0.75 *. d_cubic)

let test_preference_presets_change_behaviour () =
  let u_th, _ = run_cca (Libra.with_preference ~preset:"Th-2" Libra.make_c_libra) in
  let _, d_la = run_cca (Libra.with_preference ~preset:"La-2" Libra.make_c_libra) in
  check_bool "throughput preset utilises well" true (u_th > 0.8);
  check_bool "latency preset keeps delay low" true (d_la < 0.045)

let test_unknown_preset_rejected () =
  Alcotest.check_raises "invalid preset"
    (Invalid_argument "Libra.with_preference: unknown preset Zz") (fun () ->
      ignore (Libra.with_preference ~preset:"Zz" Libra.make_c_libra))

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let test_telemetry_fractions_sum_to_one () =
  let t = Libra.Telemetry.create () in
  let record chosen =
    Libra.Telemetry.record t
      { Libra.Telemetry.at = 0.0; chosen; u_prev = 0.0; u_rl = 0.0; u_cl = 0.0; x_next = 1e6 }
  in
  record Libra.Telemetry.Prev;
  record Libra.Telemetry.Rl;
  record Libra.Telemetry.Rl;
  record Libra.Telemetry.Cl;
  let p, r, c = Libra.Telemetry.fractions t in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 (p +. r +. c);
  Alcotest.(check (float 1e-9)) "rl fraction" 0.5 r

(* Edge cases: a telemetry with no recorded cycles (and one with only
   skips) reports all-zero fractions and an empty utility series, not
   nan or a crash. *)
let test_telemetry_empty () =
  let t = Libra.Telemetry.create () in
  let p, r, c = Libra.Telemetry.fractions t in
  Alcotest.(check (float 1e-9)) "prev 0" 0.0 p;
  Alcotest.(check (float 1e-9)) "rl 0" 0.0 r;
  Alcotest.(check (float 1e-9)) "cl 0" 0.0 c;
  Alcotest.(check int) "no series" 0
    (List.length (Libra.Telemetry.utility_series t));
  Alcotest.(check int) "no cycles" 0 (Libra.Telemetry.total t)

let test_telemetry_skip_only () =
  let t = Libra.Telemetry.create () in
  for _ = 1 to 5 do
    Libra.Telemetry.record_skip t
  done;
  let p, r, c = Libra.Telemetry.fractions t in
  Alcotest.(check (float 1e-9)) "all zero" 0.0 (p +. r +. c);
  Alcotest.(check int) "skips don't count as cycles" 0 (Libra.Telemetry.total t);
  Alcotest.(check int) "no series" 0
    (List.length (Libra.Telemetry.utility_series t))

(* Property: whenever at least one cycle is recorded, the three
   fractions sum to exactly 1.0 (counts partition the cycle list), and
   the utility series picks the chosen candidate's utility pointwise. *)
let prop_telemetry_fractions_partition =
  QCheck.Test.make ~name:"fractions sum to 1 when total > 0" ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (int_bound 2))
    (fun choices ->
      let t = Libra.Telemetry.create () in
      List.iteri
        (fun i k ->
          let chosen =
            match k with
            | 0 -> Libra.Telemetry.Prev
            | 1 -> Libra.Telemetry.Rl
            | _ -> Libra.Telemetry.Cl
          in
          Libra.Telemetry.record t
            {
              Libra.Telemetry.at = float_of_int i;
              chosen;
              u_prev = 1.0;
              u_rl = 2.0;
              u_cl = 3.0;
              x_next = 1e6;
            })
        choices;
      let p, r, c = Libra.Telemetry.fractions t in
      let sums_to_one = Float.abs (p +. r +. c -. 1.0) < 1e-9 in
      let series = Libra.Telemetry.utility_series t in
      let series_tracks_choice =
        List.length series = List.length choices
        && List.for_all2 (fun k (_, u) -> u = float_of_int (k + 1)) choices series
      in
      sums_to_one && series_tracks_choice)

(* ------------------------------------------------------------------ *)
(* Ideal combiner *)

let test_ideal_combine_is_pointwise_max () =
  let a = [| (0.0, 1.0); (1.0, 3.0) |] and b = [| (0.0, 2.0); (1.0, 2.0) |] in
  let c = Libra.Ideal.combine a b in
  Alcotest.(check (float 1e-9)) "max at 0" 2.0 (snd c.(0));
  Alcotest.(check (float 1e-9)) "max at 1" 3.0 (snd c.(1))

let test_ideal_normalise_range () =
  let s = [| (0.0, 5.0); (1.0, 10.0); (2.0, 7.5) |] in
  let s = Libra.Ideal.normalise [ s ] s in
  Alcotest.(check (float 1e-9)) "min 0" 0.0 (snd s.(0));
  Alcotest.(check (float 1e-9)) "max 1" 1.0 (snd s.(1));
  Alcotest.(check (float 1e-9)) "mid 0.5" 0.5 (snd s.(2))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run ~and_exit:false "libra"
    [
      ( "utility",
        [
          Alcotest.test_case "rewards throughput" `Quick test_utility_rewards_throughput;
          Alcotest.test_case "penalties" `Quick test_utility_penalises_gradient_and_loss;
          Alcotest.test_case "negative gradient" `Quick test_utility_ignores_negative_gradient;
          Alcotest.test_case "preset ordering" `Quick test_presets_order_throughput_weight;
        ]
        @ qsuite [ prop_utility_concave_in_rate; prop_fair_share_is_equilibrium ] );
      ( "controller",
        [
          Alcotest.test_case "starts exploring" `Slow test_controller_starts_in_exploration;
          Alcotest.test_case "cycles stages" `Slow test_controller_cycles_through_stages;
          Alcotest.test_case "argmax decision" `Slow test_controller_decision_is_argmax;
          Alcotest.test_case "timeout halves" `Slow test_controller_timeout_halves_base;
          Alcotest.test_case "watchdog quarantine" `Slow
            test_controller_watchdog_quarantines_nan_rl;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "pareto vs cubic" `Slow test_c_libra_pareto_vs_cubic;
          Alcotest.test_case "preference presets" `Slow test_preference_presets_change_behaviour;
          Alcotest.test_case "unknown preset" `Slow test_unknown_preset_rejected;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "fractions" `Quick test_telemetry_fractions_sum_to_one;
          Alcotest.test_case "empty" `Quick test_telemetry_empty;
          Alcotest.test_case "skip-only" `Quick test_telemetry_skip_only;
        ]
        @ qsuite [ prop_telemetry_fractions_partition ] );
      ( "ideal",
        [
          Alcotest.test_case "pointwise max" `Quick test_ideal_combine_is_pointwise_max;
          Alcotest.test_case "normalise" `Quick test_ideal_normalise_range;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* De-biasing helpers (DESIGN.md 4b) *)

let snap ?(acked = 10) ?(lost = 0) ?(grad = 0.0) ?(se = 0.001) ?(avg_rtt = 0.05)
    ?(min_rtt = 0.05) () =
  {
    Netsim.Monitor.duration = 0.05;
    throughput = 1e6;
    avg_rtt;
    min_rtt;
    rtt_gradient = grad;
    rtt_grad_se = se;
    loss_rate = 0.0;
    acked;
    lost_pkts = lost;
  }

let test_shrunk_loss_dampens_small_windows () =
  (* 1 loss among 4 packets reads as 1/9, not 25%. *)
  Alcotest.(check (float 1e-9)) "shrinkage" (1.0 /. 9.0)
    (Libra.Controller.shrunk_loss (snap ~acked:4 ~lost:1 ()));
  (* Large windows converge to the raw rate. *)
  let big = Libra.Controller.shrunk_loss (snap ~acked:360 ~lost:40 ()) in
  check_bool "converges to 10%" true (Float.abs (big -. 0.099) < 0.002)

let test_queue_free_fraction_gates () =
  Alcotest.(check (float 1e-9)) "empty queue: full discount" 1.0
    (Libra.Controller.queue_free_fraction (snap ~avg_rtt:0.05 ~min_rtt:0.05 ()));
  Alcotest.(check (float 1e-9)) "deep queue: no discount" 0.0
    (Libra.Controller.queue_free_fraction (snap ~avg_rtt:0.10 ~min_rtt:0.05 ()));
  let mid = Libra.Controller.queue_free_fraction (snap ~avg_rtt:0.0675 ~min_rtt:0.05 ()) in
  check_bool "fades in between" true (mid > 0.0 && mid < 1.0)

let test_excess_grad_significance_filter () =
  (* A slope within 2 SE of zero (after detrending) scores zero. *)
  Alcotest.(check (float 1e-9)) "insignificant -> 0" 0.0
    (Libra.Controller.excess_grad ~common:0.0 (snap ~grad:0.001 ~se:0.001 ()));
  (* A strong slope survives, signed. *)
  let g = Libra.Controller.excess_grad ~common:0.0 (snap ~grad:0.05 ~se:0.001 ()) in
  Alcotest.(check (float 1e-9)) "significant passes" 0.05 g;
  (* Common-mode is removed before the test. *)
  Alcotest.(check (float 1e-9)) "detrended" 0.0
    (Libra.Controller.excess_grad ~common:0.05 (snap ~grad:0.0505 ~se:0.001 ()))

let prop_excess_grad_antisymmetric_noise =
  QCheck.Test.make ~name:"excess grad symmetric around common" ~count:200
    QCheck.(pair (float_range (-0.1) 0.1) (float_range 0.0 0.05))
    (fun (delta, common) ->
      let up = Libra.Controller.excess_grad ~common (snap ~grad:(common +. delta) ~se:1e-6 ()) in
      let down = Libra.Controller.excess_grad ~common (snap ~grad:(common -. delta) ~se:1e-6 ()) in
      Float.abs (up +. down) < 1e-9)

let () =
  Alcotest.run ~and_exit:false "libra-debias"
    [
      ( "debias",
        [
          Alcotest.test_case "shrunk loss" `Quick test_shrunk_loss_dampens_small_windows;
          Alcotest.test_case "queue gate" `Quick test_queue_free_fraction_gates;
          Alcotest.test_case "grad significance" `Quick test_excess_grad_significance_filter;
        ]
        @ qsuite [ prop_excess_grad_antisymmetric_noise ] );
    ]
