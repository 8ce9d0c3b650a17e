(* Decision-cost accounting (Fig. 2(c), Fig. 12).

   The paper measures CPU/memory of the sender processes; the dominant
   contributor for learning-based CCAs is the DRL agent's inference.
   We count what each CCA does inside its callbacks — callbacks fired
   and neural-network forward passes triggered — and price the counts at
   fixed per-operation costs calibrated once from the micro-benchmarks
   (bench/main.exe -- micro). Counting instead of timing keeps reports
   bit-identical across runs and across domain-pool sizes (wall-clock
   inside a callback depends on scheduling; the number of forwards does
   not), which the harness's sequential-vs-parallel determinism check
   relies on. Per simulated second the priced totals give the same
   ordering the paper reports. *)

type ledger = {
  mutable callbacks : int;
  mutable nn_forwards : int;
}

let create () = { callbacks = 0; nn_forwards = 0 }

(* Fixed pricing units (seconds / minor-heap words per operation), not
   measured values: they price the counts so reports stay comparable
   across builds, and no longer track the micro-benchmarks (an
   `Rlcc.Nn` forward allocates nothing). Absolute values only scale
   the report; the figures normalise per column. *)
let callback_cost_s = 150e-9
let forward_cost_s = 2.5e-6
let callback_alloc_words = 40.0
let forward_alloc_words = 1200.0

let timed ledger f =
  let fw0 = Rlcc.Nn.forward_count () in
  let result = f () in
  ledger.nn_forwards <- ledger.nn_forwards + (Rlcc.Nn.forward_count () - fw0);
  ledger.callbacks <- ledger.callbacks + 1;
  result

(* Decorate a CCA so every callback is accounted to [ledger]. *)
let wrap ledger (cca : Netsim.Cca.t) =
  {
    cca with
    Netsim.Cca.on_ack = (fun ack -> timed ledger (fun () -> cca.Netsim.Cca.on_ack ack));
    on_loss = (fun loss -> timed ledger (fun () -> cca.Netsim.Cca.on_loss loss));
    on_send = (fun send -> timed ledger (fun () -> cca.Netsim.Cca.on_send send));
  }

(* Normalised summaries per simulated second. *)
type report = {
  cpu_per_sim_s : float;
  forwards_per_sim_s : float;
  kwords_per_sim_s : float;
}

let report ledger ~sim_seconds =
  let s = Float.max 1e-9 sim_seconds in
  let cb = float_of_int ledger.callbacks in
  let fw = float_of_int ledger.nn_forwards in
  {
    cpu_per_sim_s = ((cb *. callback_cost_s) +. (fw *. forward_cost_s)) /. s;
    forwards_per_sim_s = fw /. s;
    kwords_per_sim_s =
      ((cb *. callback_alloc_words) +. (fw *. forward_alloc_words)) /. 1000.0 /. s;
  }
