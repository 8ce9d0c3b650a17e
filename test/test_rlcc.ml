(* Tests for the learning substrate: NN gradients, Adam, PPO pieces,
   the fluid environment, features, rewards, and the PCC machinery. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Neural network *)

let spec = { Rlcc.Nn.input = 3; hidden = [ 8; 8 ]; output = 2 }

let test_nn_forward_deterministic () =
  let nn = Rlcc.Nn.create spec in
  let ws = Rlcc.Nn.workspace nn in
  let x = [| 0.3; -0.7; 1.2 |] in
  let a = Array.copy (Rlcc.Nn.forward nn ws x) in
  let b = Rlcc.Nn.forward nn ws x in
  Alcotest.(check (array (float 0.0))) "same output" a b

let test_nn_output_dims () =
  let nn = Rlcc.Nn.create spec in
  check_int "output size" 2
    (Array.length (Rlcc.Nn.forward nn (Rlcc.Nn.workspace nn) [| 0.1; 0.2; 0.3 |]))

(* Central-difference gradient check on a scalar loss L = sum(out). *)
let test_nn_gradients_match_finite_differences () =
  let nn = Rlcc.Nn.create ~rng:(Netsim.Rng.create 3) spec in
  let ws = Rlcc.Nn.workspace nn in
  let x = [| 0.5; -0.25; 0.8 |] in
  Rlcc.Nn.zero_grads nn;
  ignore (Rlcc.Nn.forward nn ws x);
  ignore (Rlcc.Nn.backward nn ws ~dout:[| 1.0; 1.0 |]);
  let eps = 1e-5 in
  let loss () =
    let out = Rlcc.Nn.forward nn ws x in
    out.(0) +. out.(1)
  in
  (* Spot-check a spread of parameters. *)
  let n = Rlcc.Nn.n_params nn in
  List.iter
    (fun idx ->
      let idx = idx mod n in
      let saved = nn.Rlcc.Nn.params.(idx) in
      nn.Rlcc.Nn.params.(idx) <- saved +. eps;
      let up = loss () in
      nn.Rlcc.Nn.params.(idx) <- saved -. eps;
      let down = loss () in
      nn.Rlcc.Nn.params.(idx) <- saved;
      let numeric = (up -. down) /. (2.0 *. eps) in
      let analytic = nn.Rlcc.Nn.grads.(idx) in
      check_bool
        (Printf.sprintf "grad %d: %.6f vs %.6f" idx analytic numeric)
        true
        (Float.abs (analytic -. numeric) < 1e-4 *. Float.max 1.0 (Float.abs numeric)))
    [ 0; 7; 23; 55; 91; n - 1 ]

let test_nn_input_gradient () =
  let nn = Rlcc.Nn.create ~rng:(Netsim.Rng.create 5) spec in
  let ws = Rlcc.Nn.workspace nn in
  let x = [| 0.1; 0.2; -0.4 |] in
  Rlcc.Nn.zero_grads nn;
  ignore (Rlcc.Nn.forward nn ws x);
  let dx = Array.copy (Rlcc.Nn.backward nn ws ~dout:[| 1.0; 0.0 |]) in
  let eps = 1e-5 in
  let loss v =
    let x' = Array.copy x in
    x'.(1) <- v;
    (Rlcc.Nn.forward nn ws x').(0)
  in
  let numeric = (loss (x.(1) +. eps) -. loss (x.(1) -. eps)) /. (2.0 *. eps) in
  check_bool "input grad matches" true (Float.abs (dx.(1) -. numeric) < 1e-4)

let prop_forward_count_increments =
  QCheck.Test.make ~name:"forward counter counts" ~count:20 QCheck.small_int
    (fun n ->
      let n = (n mod 10) + 1 in
      let nn = Rlcc.Nn.create spec in
      let ws = Rlcc.Nn.workspace nn in
      let before = Rlcc.Nn.forward_count () in
      for _ = 1 to n do
        ignore (Rlcc.Nn.forward nn ws [| 0.0; 0.0; 0.0 |])
      done;
      Rlcc.Nn.forward_count () = before + n)

(* The plain one-neuron-at-a-time loops the kernel must match bit for
   bit: forward keeps each layer's input and pre-activation, backward
   recomputes tanh' from the pre-activation and accumulates into
   [grads]. *)
let ref_forward (nn : Rlcc.Nn.t) x =
  let n = Array.length nn.Rlcc.Nn.layers in
  let inputs = Array.make n [||] and preacts = Array.make n [||] in
  let cur = ref x in
  for l = 0 to n - 1 do
    let w_off, b_off, in_dim, out_dim = nn.Rlcc.Nn.layers.(l) in
    inputs.(l) <- !cur;
    let pre = Array.make out_dim 0.0 in
    for j = 0 to out_dim - 1 do
      let acc = ref nn.Rlcc.Nn.params.(b_off + j) in
      for i = 0 to in_dim - 1 do
        acc := !acc +. (nn.Rlcc.Nn.params.(w_off + (j * in_dim) + i) *. !cur.(i))
      done;
      pre.(j) <- !acc
    done;
    preacts.(l) <- pre;
    cur := if l < n - 1 then Array.map tanh pre else pre
  done;
  (inputs, preacts, !cur)

let ref_backward (nn : Rlcc.Nn.t) ~grads (inputs, preacts, _) ~dout =
  let n = Array.length nn.Rlcc.Nn.layers in
  let dcur = ref dout in
  for l = n - 1 downto 0 do
    let w_off, b_off, in_dim, out_dim = nn.Rlcc.Nn.layers.(l) in
    let dpre =
      if l = n - 1 then !dcur
      else
        Array.mapi
          (fun j d ->
            let h = tanh preacts.(l).(j) in
            d *. (1.0 -. (h *. h)))
          !dcur
    in
    let dx = Array.make in_dim 0.0 in
    for j = 0 to out_dim - 1 do
      let row = w_off + (j * in_dim) in
      grads.(b_off + j) <- grads.(b_off + j) +. dpre.(j);
      for i = 0 to in_dim - 1 do
        grads.(row + i) <- grads.(row + i) +. (dpre.(j) *. inputs.(l).(i));
        dx.(i) <- dx.(i) +. (nn.Rlcc.Nn.params.(row + i) *. dpre.(j))
      done
    done;
    dcur := dx
  done;
  !dcur

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Random shapes hit every remainder of the forward's four-neuron
   blocking; every parameter (biases too) is random. Two forward/
   backward pairs on one workspace check reuse and accumulation. *)
let prop_kernel_matches_reference =
  QCheck.Test.make ~name:"kernel bit-equals the reference loops" ~count:200
    QCheck.(
      quad (int_range 1 37)
        (list_of_size (Gen.int_range 1 3) (int_range 1 37))
        (int_range 1 3) small_nat)
    (fun (input, hidden, output, seed) ->
      let rng = Netsim.Rng.create seed in
      let nn = Rlcc.Nn.create { Rlcc.Nn.input; hidden; output } in
      Array.iteri
        (fun k _ -> nn.Rlcc.Nn.params.(k) <- Netsim.Rng.uniform rng ~lo:(-1.5) ~hi:1.5)
        nn.Rlcc.Nn.params;
      let draw n = Array.init n (fun _ -> Netsim.Rng.uniform rng ~lo:(-2.0) ~hi:2.0) in
      let ws = Rlcc.Nn.workspace nn in
      let grads = Array.make (Rlcc.Nn.n_params nn) 0.0 in
      Rlcc.Nn.zero_grads nn;
      let pass () =
        let x = draw input and dout = draw output in
        let y = Array.copy (Rlcc.Nn.forward nn ws x) in
        let dx = Rlcc.Nn.backward nn ws ~dout in
        let cache = ref_forward nn x in
        let _, _, y_ref = cache in
        let dx_ref = ref_backward nn ~grads cache ~dout in
        same_bits y y_ref && same_bits dx dx_ref && same_bits nn.Rlcc.Nn.grads grads
      in
      pass () && pass ())

(* One net read by two domains at once, each through its own
   workspace, gives what one domain gives running both input streams
   in turn. *)
let test_nn_shared_across_domains () =
  let nn =
    Rlcc.Nn.create ~rng:(Netsim.Rng.create 11)
      { Rlcc.Nn.input = 20; hidden = [ 32; 32 ]; output = 1 }
  in
  let stream seed =
    let rng = Netsim.Rng.create seed in
    Array.init 4000 (fun _ ->
        Array.init 20 (fun _ -> Netsim.Rng.uniform rng ~lo:(-1.0) ~hi:1.0))
  in
  let a = stream 1 and b = stream 2 in
  let run ws xs = Array.map (fun x -> Array.copy (Rlcc.Nn.forward nn ws x)) xs in
  let seq_ws = Rlcc.Nn.workspace nn in
  let seq_a = run seq_ws a in
  let seq_b = run seq_ws b in
  let other = Domain.spawn (fun () -> run (Rlcc.Nn.workspace nn) b) in
  let par_a = run (Rlcc.Nn.workspace nn) a in
  let par_b = Domain.join other in
  check_bool "domain A equals sequential" true (Array.for_all2 same_bits par_a seq_a);
  check_bool "domain B equals sequential" true (Array.for_all2 same_bits par_b seq_b)

let test_nn_backward_checks_last_forward () =
  let a = Rlcc.Nn.create ~rng:(Netsim.Rng.create 1) spec in
  let b = Rlcc.Nn.create ~rng:(Netsim.Rng.create 2) spec in
  let ws = Rlcc.Nn.workspace a in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "backward before any forward" true
    (raises (fun () -> Rlcc.Nn.backward a ws ~dout:[| 1.0; 1.0 |]));
  ignore (Rlcc.Nn.forward a ws [| 0.1; 0.2; 0.3 |]);
  check_bool "backward after another net's forward" true
    (raises (fun () -> Rlcc.Nn.backward b ws ~dout:[| 1.0; 1.0 |]));
  check_bool "backward after its own forward" false
    (raises (fun () -> Rlcc.Nn.backward a ws ~dout:[| 1.0; 1.0 |]))

(* ------------------------------------------------------------------ *)
(* Adam *)

let test_adam_minimises_quadratic () =
  (* f(p) = sum (p - target)^2 *)
  let params = [| 5.0; -3.0 |] and target = [| 1.0; 2.0 |] in
  let adam = Rlcc.Adam.create ~lr:0.1 2 in
  for _ = 1 to 500 do
    let grads = Array.init 2 (fun i -> 2.0 *. (params.(i) -. target.(i))) in
    Rlcc.Adam.step adam ~params ~grads
  done;
  check_bool "converged to target" true
    (Float.abs (params.(0) -. 1.0) < 0.05 && Float.abs (params.(1) -. 2.0) < 0.05)

(* ------------------------------------------------------------------ *)
(* PPO *)

let mk_ppo ?(state_dim = 4) () =
  Rlcc.Ppo.create { Rlcc.Ppo.state_dim; lr = 3e-4; seed = 23 }

let test_ppo_logprob_peak_at_mean () =
  let ppo = mk_ppo () in
  let state = [| 0.1; 0.2; 0.3; 0.4 |] in
  let mean = Rlcc.Ppo.mean_action ppo (Rlcc.Ppo.workspace ppo) state in
  let at_mean = Rlcc.Ppo.log_prob ppo ~mean ~action:mean in
  let off = Rlcc.Ppo.log_prob ppo ~mean ~action:(mean +. 1.0) in
  check_bool "density peaks at the mean" true (at_mean > off)

let test_ppo_gae_discounts () =
  let mk reward val_est = { Rlcc.Ppo.state = [||]; action = 0.0; logp = 0.0; val_est; reward } in
  let transitions = [| mk 1.0 0.0; mk 1.0 0.0; mk 1.0 0.0 |] in
  let adv, ret = Rlcc.Ppo.advantages ~transitions ~last_value:0.0 in
  (* With V = 0: returns are lambda-discounted reward sums, decreasing
     towards the episode end. *)
  check_bool "advantage decreases towards the end" true (adv.(0) > adv.(1) && adv.(1) > adv.(2));
  check_bool "returns equal advantages when V=0" true (ret.(0) = adv.(0))

let test_ppo_learns_a_bandit () =
  (* One state, reward = -(a - 1.5)^2: the mean action must move
     towards 1.5. *)
  let ppo = mk_ppo ~state_dim:1 () in
  let ws = Rlcc.Ppo.workspace ppo in
  let rng = Netsim.Rng.create 7 in
  let state = [| 1.0 |] in
  let before = Rlcc.Ppo.mean_action ppo ws state in
  for _ = 1 to 60 do
    let transitions =
      Array.init 64 (fun _ ->
          let action, logp, val_est = Rlcc.Ppo.sample ppo ws rng state in
          let reward = -.((action -. 1.5) ** 2.0) in
          { Rlcc.Ppo.state; action; logp; val_est; reward })
    in
    Rlcc.Ppo.update ppo ws rng ~transitions ~last_value:0.0
  done;
  let after = Rlcc.Ppo.mean_action ppo ws state in
  check_bool
    (Printf.sprintf "mean moved toward 1.5 (%.2f -> %.2f)" before after)
    true
    (Float.abs (after -. 1.5) < Float.abs (before -. 1.5)
    && Float.abs (after -. 1.5) < 0.5)

(* ------------------------------------------------------------------ *)
(* Environment *)

let test_env_conserves_fluid () =
  let cfg = Rlcc.Env.default_cfg in
  let env = Rlcc.Env.create cfg in
  (* Below capacity: no loss, rtt at floor. *)
  let obs = Rlcc.Env.step env ~rate:(cfg.Rlcc.Env.capacity /. 2.0) in
  check_bool "no loss below capacity" true (obs.Rlcc.Features.loss_rate < 1e-9);
  check_bool "rtt at floor" true (Float.abs (obs.Rlcc.Features.avg_rtt -. cfg.Rlcc.Env.min_rtt) < 1e-6)

let test_env_overload_loses () =
  let cfg = Rlcc.Env.default_cfg in
  let env = Rlcc.Env.create cfg in
  let obs = ref (Rlcc.Env.step env ~rate:cfg.Rlcc.Env.capacity) in
  for _ = 1 to 20 do
    obs := Rlcc.Env.step env ~rate:(3.0 *. cfg.Rlcc.Env.capacity)
  done;
  check_bool "persistent overload loses heavily" true (!obs.Rlcc.Features.loss_rate > 0.4);
  check_bool "queue inflates rtt" true
    (!obs.Rlcc.Features.avg_rtt > 1.5 *. cfg.Rlcc.Env.min_rtt)

let prop_env_loss_rate_bounded =
  QCheck.Test.make ~name:"env loss rate in [0,1]" ~count:50
    QCheck.(pair small_int (float_range 0.1 8.0))
    (fun (seed, factor) ->
      let cfg = Rlcc.Env.default_cfg in
      let env = Rlcc.Env.create ~seed cfg in
      let ok = ref true in
      for _ = 1 to 20 do
        let obs = Rlcc.Env.step env ~rate:(factor *. cfg.Rlcc.Env.capacity) in
        let l = obs.Rlcc.Features.loss_rate in
        if l < 0.0 || l > 1.0 then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Features and actions *)

let obs ?(throughput = 1e6) ?(avg_rtt = 0.1) ?(loss = 0.0) () =
  {
    Rlcc.Features.send_rate = 1e6;
    throughput;
    avg_rtt;
    min_rtt = 0.05;
    rtt_gradient = 0.0;
    loss_rate = loss;
    ack_gap_ewma = 0.01;
    send_gap_ewma = 0.01;
    rate_norm = 2e6;
  }

let test_feature_widths () =
  check_int "libra set width" 4 (Rlcc.Features.set_width Rlcc.Features.libra);
  check_int "baseline width (vi counts twice)" 6
    (Rlcc.Features.set_width Rlcc.Features.baseline)

let test_history_stacks_oldest_first () =
  let h = Rlcc.Features.History.create ~set:Rlcc.Features.libra ~h:3 in
  Rlcc.Features.History.push h (obs ~loss:0.1 ());
  Rlcc.Features.History.push h (obs ~loss:0.2 ());
  let s = Rlcc.Features.History.state h in
  check_int "dim" 12 (Array.length s);
  (* Loss is feature index 1 within the 4-wide libra set; newest frame
     occupies the last slot (offset 8), the previous one offset 4, the
     unfilled oldest slot is zero padding. *)
  check_bool "newest last" true (Float.abs (s.(8 + 1) -. 0.2) < 1e-9);
  check_bool "older before" true (Float.abs (s.(4 + 1) -. 0.1) < 1e-9);
  check_bool "pad zero" true (s.(0 + 1) = 0.0)

let test_actions_mimd_orca_range () =
  let r = Rlcc.Actions.apply Rlcc.Actions.Mimd_orca ~rate:1e6 ~min_rtt:0.05 ~mss:1500 5.0 in
  Alcotest.(check (float 1.0)) "clamped to 2^2" 4e6 r;
  let r = Rlcc.Actions.apply Rlcc.Actions.Mimd_orca ~rate:1e6 ~min_rtt:0.05 ~mss:1500 (-9.0) in
  Alcotest.(check (float 1.0)) "clamped to 2^-2" 0.25e6 r

let prop_actions_bounded =
  QCheck.Test.make ~name:"actions keep rate in [1500, max_rate]" ~count:200
    QCheck.(triple (float_range (-20.0) 20.0) (float_range 1e3 1e9) (int_range 0 2))
    (fun (a, rate, mode_idx) ->
      let mode =
        match mode_idx with
        | 0 -> Rlcc.Actions.Aiad 10.0
        | 1 -> Rlcc.Actions.Mimd_aurora 10.0
        | _ -> Rlcc.Actions.Mimd_orca
      in
      let r = Rlcc.Actions.apply mode ~rate ~min_rtt:0.05 ~mss:1500 a in
      r >= 1500.0 && r <= Rlcc.Actions.max_rate)

(* ------------------------------------------------------------------ *)
(* Reward *)

let test_reward_monotone_in_throughput () =
  let r1 = Rlcc.Reward.value Rlcc.Reward.default (obs ~throughput:1e6 ()) in
  let r2 = Rlcc.Reward.value Rlcc.Reward.default (obs ~throughput:2e6 ()) in
  check_bool "higher throughput, higher reward" true (r2 > r1)

let test_reward_penalises_loss_and_delay () =
  let base = Rlcc.Reward.value Rlcc.Reward.default (obs ()) in
  let lossy = Rlcc.Reward.value Rlcc.Reward.default (obs ~loss:0.1 ()) in
  let slow = Rlcc.Reward.value Rlcc.Reward.default (obs ~avg_rtt:0.3 ()) in
  check_bool "loss penalised" true (lossy < base);
  check_bool "delay penalised" true (slow < base)

let test_reward_without_loss_ignores_loss () =
  let cfg = { Rlcc.Reward.default with Rlcc.Reward.include_loss = false } in
  let a = Rlcc.Reward.value cfg (obs ()) in
  let b = Rlcc.Reward.value cfg (obs ~loss:0.5 ()) in
  Alcotest.(check (float 1e-12)) "identical" a b

let test_reward_delta_tracker () =
  let tr = Rlcc.Reward.tracker { Rlcc.Reward.default with Rlcc.Reward.use_delta = true } in
  let first = Rlcc.Reward.signal tr (obs ~throughput:1e6 ()) in
  let second = Rlcc.Reward.signal tr (obs ~throughput:2e6 ()) in
  Alcotest.(check (float 1e-12)) "first delta is zero" 0.0 first;
  check_bool "improvement positive" true (second > 0.0)

(* ------------------------------------------------------------------ *)
(* Vivace *)

let test_vivace_utility_shape () =
  let snap_ok =
    { Netsim.Monitor.duration = 0.05; throughput = 1e6; avg_rtt = 0.05; min_rtt = 0.05;
      rtt_gradient = 0.0; rtt_grad_se = 0.001; loss_rate = 0.0; acked = 50; lost_pkts = 0 }
  in
  let snap_bad = { snap_ok with Netsim.Monitor.rtt_gradient = 0.05; loss_rate = 0.1 } in
  (* Vivace scores its monitor intervals with Eq. 1. *)
  let u = Rlcc.Utility.default in
  let good = Rlcc.Utility.eval u ~rate_bps:6e6 snap_ok in
  let bad = Rlcc.Utility.eval u ~rate_bps:6e6 snap_bad in
  check_bool "congestion lowers utility" true (bad < good);
  (* With clean conditions, higher rate has higher utility (x^0.9). *)
  let faster = Rlcc.Utility.eval u ~rate_bps:12e6 snap_ok in
  check_bool "monotone when clean" true (faster > good)

let test_vivace_converges_near_capacity () =
  let link =
    { Netsim.Network.rate_fn = (fun _ -> Netsim.Units.mbps_to_bps 24.0); const_rate = None;
      grain = 0.02; buffer_bytes = Netsim.Units.kb 150; loss_p = 0.0 ; aqm = `Fifo}
  in
  let flows =
    [ { Netsim.Network.cca = Rlcc.Vivace.make (); start_at = 0.0; stop_at = 15.0; rtt = 0.03 } ]
  in
  let s = Netsim.Network.run ~link ~flows ~duration:15.0 () in
  check_bool "utilization over 70%" true (Netsim.Network.utilization s > 0.7);
  match s.Netsim.Network.flows with
  | [ f ] ->
    check_bool "low loss" true (Netsim.Flow_stats.loss_rate f.Netsim.Network.stats < 0.05)
  | _ -> Alcotest.fail "one flow"

(* ------------------------------------------------------------------ *)
(* Tagger *)

let test_tagger_routes_by_seq () =
  let tagger = Netsim.Tagger.create ~initial:"a" in
  Netsim.Tagger.mark tagger "b";
  Netsim.Tagger.on_send tagger ~seq:10;
  Alcotest.(check string) "before boundary" "a" (Netsim.Tagger.on_ack tagger ~seq:9);
  Alcotest.(check string) "at boundary" "b" (Netsim.Tagger.on_ack tagger ~seq:10);
  Alcotest.(check string) "after" "b" (Netsim.Tagger.on_ack tagger ~seq:11)

(* ------------------------------------------------------------------ *)
(* Training (slow) *)

let test_training_improves_reward () =
  let cfg = { Rlcc.Train.default_config with Rlcc.Train.episodes = 100 } in
  let outcome = Rlcc.Train.run cfg in
  let r = outcome.Rlcc.Train.episode_rewards in
  let n = Array.length r in
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
  let early = mean (Array.sub r 0 10) and late = mean (Array.sub r (n - 20) 20) in
  check_bool
    (Printf.sprintf "reward improved (%.0f -> %.0f)" early late)
    true (late > early)

(* ------------------------------------------------------------------ *)
(* Supervised training: divergence guard, snapshot/resume, cache
   poisoning *)

(* A poisoned update (all-NaN actor) must be rolled back to the last
   finite state and training must continue — and the rollback must be
   visible both in the outcome and as a harness trace event. *)
let test_train_nan_rollback_recovers () =
  let cfg =
    { Rlcc.Train.default_config with Rlcc.Train.episodes = 5; steps_per_episode = 30; seed = 91 }
  in
  let tracer = Obs.Trace.create () in
  let outcome =
    Obs.Trace.run tracer ~lane:0 (fun () ->
        Rlcc.Train.run
          ~after_update:(fun ~ep policy ->
            if ep = 2 then begin
              let snap = Rlcc.Ppo.snapshot policy in
              Array.fill snap.Rlcc.Ppo.s_actor 0
                (Array.length snap.Rlcc.Ppo.s_actor)
                Float.nan;
              Rlcc.Ppo.restore policy snap
            end)
          cfg)
  in
  check_int "exactly one rollback" 1 outcome.Rlcc.Train.rollbacks;
  check_bool "policy finite after recovery" true
    (Rlcc.Ppo.all_finite outcome.Rlcc.Train.policy);
  check_int "all episodes ran" 5 (Array.length outcome.Rlcc.Train.episode_rewards);
  let jsonl = Obs.Trace.to_jsonl tracer in
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "nan-rollback harness event traced" true
    (contains "nan-rollback" jsonl)

(* Interrupt/resume is bit-exact: training to a snapshot, serializing it
   through JSON, and resuming must reproduce the uninterrupted run's
   rewards and final parameters exactly. *)
let test_train_snapshot_resume_bit_identical () =
  let cfg =
    { Rlcc.Train.default_config with Rlcc.Train.episodes = 6; steps_per_episode = 30; seed = 93 }
  in
  let whole = Rlcc.Train.run cfg in
  let snap = ref None in
  ignore
    (Rlcc.Train.run ~snapshot_every:3
       ~on_snapshot:(fun ~episode s -> if episode = 3 then snap := Some s)
       cfg);
  let snap = Option.get !snap in
  (* Round-trip the snapshot through its JSON serialization (hex-float
     fields), as bin/train's checkpoint store does. *)
  let blob = Obs.Json.to_compact (Rlcc.Train.snapshot_to_json snap) in
  let snap =
    match Obs.Json.parse blob with
    | Ok j -> Option.get (Rlcc.Train.snapshot_of_json j)
    | Error m -> Alcotest.fail ("snapshot reparse failed: " ^ m)
  in
  let resumed = Rlcc.Train.run ~resume_from:snap cfg in
  check_bool "episode rewards bit-identical" true
    (whole.Rlcc.Train.episode_rewards = resumed.Rlcc.Train.episode_rewards);
  check_bool "final parameters bit-identical" true
    (Rlcc.Ppo.snapshot whole.Rlcc.Train.policy
    = Rlcc.Ppo.snapshot resumed.Rlcc.Train.policy);
  check_bool "tail stats bit-identical" true
    (whole.Rlcc.Train.final_throughput = resumed.Rlcc.Train.final_throughput
    && whole.Rlcc.Train.final_rtt = resumed.Rlcc.Train.final_rtt
    && whole.Rlcc.Train.final_loss = resumed.Rlcc.Train.final_loss)

let test_resume_rejects_other_config () =
  let cfg =
    { Rlcc.Train.default_config with Rlcc.Train.episodes = 4; steps_per_episode = 20; seed = 95 }
  in
  let snap = ref None in
  ignore
    (Rlcc.Train.run ~snapshot_every:2
       ~on_snapshot:(fun ~episode:_ s -> snap := Some s)
       cfg);
  check_bool "config mismatch rejected" true
    (try
       ignore
         (Rlcc.Train.run ~resume_from:(Option.get !snap)
            { cfg with Rlcc.Train.seed = 96 });
       false
     with Invalid_argument _ -> true)

(* A training run killed mid-fill (here: by a deterministic budget
   deadline) must not leave a poisoned cache cell behind: the next call
   for the same configuration retrains cleanly. *)
let test_pretrained_failed_fill_retries () =
  let cfg =
    { Rlcc.Train.default_config with Rlcc.Train.episodes = 2; steps_per_episode = 20; seed = 977 }
  in
  check_bool "first fill dies on deadline" true
    (try
       ignore
         (Netsim.Budget.with_budget ~events:5 (fun () -> Rlcc.Pretrained.get cfg));
       false
     with Netsim.Budget.Exceeded _ -> true);
  let outcome = Rlcc.Pretrained.get cfg in
  check_int "second call retrained cleanly" 2
    (Array.length outcome.Rlcc.Train.episode_rewards)

(* ------------------------------------------------------------------ *)
(* Trained-policy pins: one MD5 per training run over its actor and
   critic parameters and its log-std, every float as %h. The four
   evaluation policies train at the tiny scale; the fifth run trains
   AIAD(5) actions on delta-r without the loss term on the fixed
   environment. A change that moves one bit of a trained parameter, or
   a training run's identity string, fails here. *)

let policy_digest (o : Rlcc.Train.outcome) =
  let p = o.Rlcc.Train.policy in
  let floats a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          [
            floats p.Rlcc.Ppo.actor.Rlcc.Nn.params;
            floats p.Rlcc.Ppo.critic.Rlcc.Nn.params;
            floats p.Rlcc.Ppo.log_std;
          ]))

let pretrained_tiny () =
  Harness.Scale.set Harness.Scale.tiny;
  [
    ("libra", Rlcc.Pretrained.libra_policy ());
    ("aurora", Rlcc.Pretrained.aurora_policy ());
    ("orca", Rlcc.Pretrained.orca_policy ());
    ("mod-rl", Rlcc.Pretrained.modified_rl_policy ());
  ]

let aiad_fixed =
  {
    Rlcc.Train.default_config with
    Rlcc.Train.episodes = 4;
    action = Rlcc.Actions.Aiad 5.0;
    reward = { Rlcc.Reward.default with Rlcc.Reward.use_delta = true; include_loss = false };
    env_mode = `Fixed Rlcc.Env.default_cfg;
  }

let test_pin_pretrained () =
  Alcotest.(check (list (pair string string)))
    "policy digests"
    [
      ("libra", "c1f8778439563e1ded68e56e352f8e21");
      ("aurora", "f4292034762673431b32805fc8e7f23b");
      ("orca", "913d22aa9983a1d3586c9dce42246363");
      ("mod-rl", "624b2019bf22b4caa5930719f3889ec3");
    ]
    (List.map (fun (name, o) -> (name, policy_digest o)) (pretrained_tiny ()))

let test_pin_aiad_fixed () =
  Alcotest.(check string) "policy digest" "bd39de4665826ce155d688ef9e211228"
    (policy_digest (Rlcc.Train.run aiad_fixed))

let test_pin_config_keys () =
  Alcotest.(check (list string))
    "config keys"
    [
      "Libra/MIMD(2^a)/w=1,0.5,10/loss=true/delta=false/weighted/ep=4/st=160/seed=41/h=5/hid=32x32/lr=0.001/rand";
      "Aurora/MIMD(scale=5)/w=1,0.5,10/loss=true/delta=false/weighted/ep=4/st=160/seed=43/h=5/hid=32x32/lr=0.001/rand";
      "Orca/MIMD(2^a)/w=1,0.5,10/loss=true/delta=false/weighted/ep=4/st=160/seed=47/h=5/hid=32x32/lr=0.001/rand";
      "Libra/MIMD(2^a)/w=1,0.5,10/loss=true/delta=false/eq1(0.9,1,5,5)/ep=4/st=160/seed=53/h=5/hid=32x32/lr=0.001/rand";
      "Libra/AIAD(scale=5)/w=1,0.5,10/loss=false/delta=true/weighted/ep=4/st=160/seed=23/h=5/hid=32x32/lr=0.001/fixed(1.25e+07,0.1,1.25e+06,0)";
    ]
    (List.map Rlcc.Train.config_key
       (List.map (fun (_, o) -> o.Rlcc.Train.config) (pretrained_tiny ()) @ [ aiad_fixed ]))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "rlcc"
    [
      ( "nn",
        [
          Alcotest.test_case "deterministic forward" `Quick test_nn_forward_deterministic;
          Alcotest.test_case "output dims" `Quick test_nn_output_dims;
          Alcotest.test_case "param gradients" `Quick
            test_nn_gradients_match_finite_differences;
          Alcotest.test_case "input gradient" `Quick test_nn_input_gradient;
          Alcotest.test_case "shared across domains" `Quick test_nn_shared_across_domains;
          Alcotest.test_case "backward checks last forward" `Quick
            test_nn_backward_checks_last_forward;
        ]
        @ qsuite [ prop_forward_count_increments; prop_kernel_matches_reference ] );
      ("adam", [ Alcotest.test_case "minimises quadratic" `Quick test_adam_minimises_quadratic ]);
      ( "ppo",
        [
          Alcotest.test_case "logprob peak" `Quick test_ppo_logprob_peak_at_mean;
          Alcotest.test_case "gae" `Quick test_ppo_gae_discounts;
          Alcotest.test_case "learns a bandit" `Slow test_ppo_learns_a_bandit;
        ] );
      ( "env",
        [
          Alcotest.test_case "below capacity" `Quick test_env_conserves_fluid;
          Alcotest.test_case "overload" `Quick test_env_overload_loses;
        ]
        @ qsuite [ prop_env_loss_rate_bounded ] );
      ( "features",
        [
          Alcotest.test_case "widths" `Quick test_feature_widths;
          Alcotest.test_case "history order" `Quick test_history_stacks_oldest_first;
          Alcotest.test_case "mimd clamp" `Quick test_actions_mimd_orca_range;
        ]
        @ qsuite [ prop_actions_bounded ] );
      ( "reward",
        [
          Alcotest.test_case "monotone throughput" `Quick test_reward_monotone_in_throughput;
          Alcotest.test_case "penalties" `Quick test_reward_penalises_loss_and_delay;
          Alcotest.test_case "no-loss variant" `Quick test_reward_without_loss_ignores_loss;
          Alcotest.test_case "delta tracker" `Quick test_reward_delta_tracker;
        ] );
      ( "vivace",
        [
          Alcotest.test_case "utility shape" `Quick test_vivace_utility_shape;
          Alcotest.test_case "converges" `Slow test_vivace_converges_near_capacity;
        ] );
      ("tagger", [ Alcotest.test_case "routes by seq" `Quick test_tagger_routes_by_seq ]);
      ("train", [ Alcotest.test_case "improves" `Slow test_training_improves_reward ]);
      ( "supervised",
        [
          Alcotest.test_case "nan rollback" `Quick test_train_nan_rollback_recovers;
          Alcotest.test_case "snapshot resume" `Quick
            test_train_snapshot_resume_bit_identical;
          Alcotest.test_case "resume config guard" `Quick
            test_resume_rejects_other_config;
          Alcotest.test_case "cache not poisoned" `Quick
            test_pretrained_failed_fill_retries;
        ] );
      ( "policy-pin",
        [
          Alcotest.test_case "pretrained" `Quick test_pin_pretrained;
          Alcotest.test_case "aiad fixed env" `Quick test_pin_aiad_fixed;
          Alcotest.test_case "config keys" `Quick test_pin_config_keys;
        ] );
    ]
