(* The benchmark's workloads. Each is a fixed, seeded list of simulator
   runs built only from the layers' public entry points (Harness.Scenario,
   Netsim.Flow_table / Population, Libra.arena_bank, Rlcc.Pretrained,
   Traces.Lte), so a refactor behind those entry points moves the
   numbers without a benchmark edit. Nothing here names a simulation
   engine: the runs take whatever engine the entry points default to. *)

(* What one run leaves behind: the values the output checks look at,
   the exact counters the traced pass reports, and the canonical line
   the workload digest hashes (floats in hex, so the digest is exact). *)
type summary = {
  events : int;
  utilization : float;
  loss : float;
  acks : int;
  losses : int;
  spawned : int;
  completed : int;
  min_fct : float;  (* seconds; [infinity] when no flow completed *)
  line : string;
}

type run = { label : string; go : Layers.wrap -> summary }

type t = {
  name : string;
  (* Everything a run needs before it can be timed: policy training,
     trace generation, the run list itself. Returns the list. *)
  setup : seed:int -> run array;
}

(* The checks that count a run as failed (it raising counts too). *)
let violation s =
  if not (s.utilization >= 0.0 && s.utilization <= 1.0 +. 1e-9) then
    Some (Printf.sprintf "utilization %g outside [0, 1]" s.utilization)
  else if not (s.loss >= 0.0 && s.loss <= 1.0) then
    Some (Printf.sprintf "loss %g outside [0, 1]" s.loss)
  else if s.events = 0 then Some "no events"
  else if s.completed > s.spawned then
    Some (Printf.sprintf "%d flows completed of %d spawned" s.completed s.spawned)
  else if s.min_fct < 0.0 then Some (Printf.sprintf "negative FCT %g" s.min_fct)
  else None

let loss_of ~acked ~lost =
  if acked + lost = 0 then 0.0 else float_of_int lost /. float_of_int (acked + lost)

(* Per-run seeds: [--seed] offsets every one, so two seeds share no run. *)
let run_seed ~seed i = (1000 * seed) + i

let of_network label (s : Netsim.Network.summary) =
  let stats = List.map (fun (f : Netsim.Network.result) -> f.stats) s.flows in
  let sum f = List.fold_left (fun a st -> a + f st) 0 stats in
  let acks = sum Netsim.Flow_stats.total_acked_pkts in
  let losses = sum Netsim.Flow_stats.total_lost_pkts in
  let utilization = Netsim.Network.utilization s in
  let per_flow =
    String.concat ","
      (List.map
         (fun st ->
           Printf.sprintf "%d/%h"
             (Netsim.Flow_stats.total_delivered_bytes st)
             (Netsim.Flow_stats.mean_rtt st))
         stats)
  in
  {
    events = s.events;
    utilization;
    loss = loss_of ~acked:acks ~lost:losses;
    acks;
    losses;
    spawned = List.length stats;
    completed = 0;
    min_fct = infinity;
    line =
      Printf.sprintf "%s events=%d util=%h acks=%d lost=%d drops=%d flows=%s" label
        s.events utilization acks losses s.queue_drops per_flow;
  }

(* PPO episodes per evaluation policy. A quarter of the harness's quick
   scale: set-up runs three times per invocation, and cellular-learned
   trains four policies each time. *)
let policy_episodes = 100

(* ---- wired-bulk: classic CCAs on a clean constant link ---- *)

let wired_bulk =
  let ccas =
    Harness.Ccas.[| ("cubic", cubic); ("bbr", bbr); ("reno", reno); ("copa", copa) |]
  in
  let duration = 6.0 in
  let spec =
    Harness.Scenario.make_spec ~rtt:0.03 ~buffer_kb:360 ~impair:Faults.Spec.empty
      (Traces.Rate.constant 96.0)
  in
  let setup ~seed =
    Array.init 8 (fun i ->
        let name, factory = ccas.((seed + i) mod Array.length ccas) in
        let seed = run_seed ~seed i in
        {
          label = name;
          go =
            (fun wrap ->
              let o =
                Harness.Scenario.run_uniform ~seed ~n_flows:2
                  ~factory:(fun ~seed -> wrap Layers.Classic (factory ~seed))
                  ~duration spec
              in
              of_network name o.summary);
        })
  in
  { name = "wired-bulk"; setup }

(* ---- cellular-learned: Libra and learned CCAs on LTE traces ---- *)

let cellular_learned =
  let ccas =
    Harness.Ccas.
      [|
        ("c-libra", Layers.Core, c_libra);
        ("b-libra", Layers.Core, b_libra);
        ("cl-libra", Layers.Core, cl_libra);
        ("aurora", Layers.Rlcc, aurora);
        ("orca", Layers.Rlcc, orca);
        ("mod-rl", Layers.Rlcc, mod_rl);
        ("vivace", Layers.Rlcc, vivace);
        ("proteus", Layers.Rlcc, proteus);
      |]
  in
  let scenarios = Array.of_list Traces.Lte.all_scenarios in
  let duration = 2.5 in
  let setup ~seed =
    (* Training runs on the caller's domain, like every run: a pool
       would share the host with domains outside the closed loop. *)
    Layers.in_phase Layers.train (Rlcc.Pretrained.warm ~pool:Exec.Pool.sequential);
    (* Every CCA on every scenario, three traces each: the costs of the
       learned CCAs swing with the trace they get (by 10x for some), so a
       pass needs many traces for its time to stop hanging on a few. *)
    let n_ccas = Array.length ccas in
    Array.init (n_ccas * Array.length scenarios * 3) (fun i ->
        let name, layer, factory = ccas.(i mod n_ccas) in
        let scenario = scenarios.(((i / n_ccas) + seed) mod Array.length scenarios) in
        let seed = run_seed ~seed i in
        let trace =
          Layers.in_phase Layers.gen (fun () ->
              Traces.Lte.generate ~seed ~duration scenario)
        in
        let spec = Harness.Scenario.make_spec ~impair:Faults.Spec.empty trace in
        let label = name ^ "@" ^ Traces.Lte.scenario_name scenario in
        {
          label;
          go =
            (fun wrap ->
              let o =
                Harness.Scenario.run_uniform ~seed
                  ~factory:(fun ~seed -> wrap layer (factory ~seed))
                  ~duration spec
              in
              of_network label o.summary);
        })
  in
  { name = "cellular-learned"; setup }

(* ---- population-churn: arena flow churn plus Libra elephants ---- *)

let population_run ~seed ~duration wrap =
  let sim = Netsim.Sim.create () in
  let table = Netsim.Flow_table.create ~capacity:4096 ~lite:true ~sim () in
  let rng = Netsim.Rng.create seed in
  let rate_bps = Netsim.Units.mbps_to_bps 48.0 in
  let link =
    Netsim.Link.create ~const_rate:rate_bps ~sim
      ~rate_fn:(fun _ -> rate_bps)
      ~grain:0.01
      ~buffer_bytes:(Netsim.Units.kb 300)
      ~loss_p:0.0 ~rng
      ~deliver:(Netsim.Flow_table.on_pkt_delivered table)
      ()
  in
  Netsim.Flow_table.attach table link;
  let make ?params ?initial_rate () =
    let inst = Libra.make_c_libra_instrumented ?params ?initial_rate () in
    { inst with Libra.cca = wrap Layers.Core inst.Libra.cca }
  in
  let params = { Libra.Params.default with Libra.Params.seed = seed } in
  let longs =
    Libra.arena_bank ~params ~make ~table ~return_delay:0.04 ~start_at:0.0
      ~stop_at:duration 2
  in
  let base = Netsim.Flow_table.flow_count table in
  Netsim.Population.spawn ~table ~rng
    ~cfg:(Netsim.Population.default ~rate:300.0 ())
    ~until:duration;
  Netsim.Sim.run sim ~until:duration;
  let n = Netsim.Flow_table.flow_count table in
  let acks = ref 0 and losses = ref 0 and completed = ref 0 in
  let fct_sum = ref 0.0 and min_fct = ref infinity in
  for h = 0 to n - 1 do
    acks := !acks + Netsim.Flow_table.acked_pkts table h;
    losses := !losses + Netsim.Flow_table.lost_pkts table h;
    let ct = Netsim.Flow_table.completion_time table h in
    if h >= base && Float.is_finite ct then begin
      let fct = ct -. Netsim.Flow_table.start_time table h in
      incr completed;
      fct_sum := !fct_sum +. fct;
      min_fct := Float.min !min_fct fct
    end
  done;
  let elephants =
    String.concat ","
      (List.map
         (fun (h, _) -> string_of_int (Netsim.Flow_table.delivered_bytes table h))
         longs)
  in
  let utilization =
    float_of_int (Netsim.Link.delivered_bytes link) /. (rate_bps *. duration)
  in
  let events = Netsim.Sim.events sim in
  {
    events;
    utilization;
    loss = loss_of ~acked:!acks ~lost:!losses;
    acks = !acks;
    losses = !losses;
    spawned = n - base;
    completed = !completed;
    min_fct = !min_fct;
    line =
      Printf.sprintf
        "population events=%d util=%h acks=%d lost=%d spawned=%d completed=%d fct_sum=%h elephants=%s"
        events utilization !acks !losses (n - base) !completed !fct_sum elephants;
  }

let population_churn =
  let duration = 5.0 in
  let setup ~seed =
    ignore (Layers.in_phase Layers.train Rlcc.Pretrained.libra_policy);
    Array.init 32 (fun i ->
        let seed = run_seed ~seed i in
        { label = "population"; go = population_run ~seed ~duration })
  in
  { name = "population-churn"; setup }

(* ---- impaired-shared: three mixed CCAs under a fault profile ---- *)

let impaired_shared =
  let profiles =
    Array.of_list
      (List.filter (fun (n, _) -> n <> "clean") Faults.Spec.robustness_profiles)
  in
  (* Longer than the flap profile's 6 s period, so flaps happen. *)
  let duration = 7.5 in
  let setup ~seed =
    ignore (Layers.in_phase Layers.train Rlcc.Pretrained.libra_policy);
    Array.init 16 (fun i ->
        let pname, impair = profiles.((seed + i) mod Array.length profiles) in
        let spec =
          Harness.Scenario.make_spec ~rtt:0.03 ~buffer_kb:150 ~impair
            (Traces.Rate.constant 48.0)
        in
        let seed = run_seed ~seed i in
        {
          label = pname;
          go =
            (fun wrap ->
              let f layer factory ~seed = wrap layer (factory ~seed) in
              let s =
                Harness.Scenario.run_mixed ~seed
                  ~flows:
                    [
                      (f Layers.Classic Harness.Ccas.cubic, 0.0);
                      (f Layers.Core Harness.Ccas.c_libra, 1.0);
                      (f Layers.Classic Harness.Ccas.bbr, 2.0);
                    ]
                  ~duration spec
              in
              of_network pname s);
        })
  in
  { name = "impaired-shared"; setup }

let all = [ wired_bulk; cellular_learned; population_churn; impaired_shared ]
let find name = List.find_opt (fun w -> w.name = name) all
