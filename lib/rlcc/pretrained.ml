(* In-process policy cache.

   The paper trains its agents offline on TensorFlow; here every policy
   is trained on demand (seconds at the scaled-down sizes) and cached by
   configuration, so all Libra variants in a bench share one "Libra"
   policy, all Orca flows share one "Orca" policy, and so on.
   Deterministic seeds make the cache reproducible across runs.

   Experiments now run on a domain pool, so the cache must be safe to
   hit from several domains at once: a global lock guards the table of
   per-configuration cells, and each cell's own lock serialises training
   for that configuration. A domain asking for a policy another domain
   is already training blocks on the cell (never the table), so distinct
   policies still train concurrently and every caller observes the one
   deterministic outcome. *)

type cell = { lock : Mutex.t; mutable outcome : Train.outcome option }

let table_lock = Mutex.create ()
let cache : (string, cell) Hashtbl.t = Hashtbl.create 8

let key = Train.config_key

let get cfg =
  let k = key cfg in
  let cell =
    Mutex.lock table_lock;
    let cell =
      match Hashtbl.find_opt cache k with
      | Some cell -> cell
      | None ->
        let cell = { lock = Mutex.create (); outcome = None } in
        Hashtbl.replace cache k cell;
        cell
    in
    Mutex.unlock table_lock;
    cell
  in
  Mutex.lock cell.lock;
  match cell.outcome with
  | Some outcome ->
    Mutex.unlock cell.lock;
    outcome
  | None ->
    (* Train unobserved: tracing a cache fill would attribute the
       events to whichever caller missed the cache first, which is
       scheduling-dependent under the pool. `train --trace` sees RL
       steps because it calls Train.run directly. *)
    (match Obs.Ambient.unobserved (fun () -> Train.run cfg) with
    | outcome ->
      cell.outcome <- Some outcome;
      Mutex.unlock cell.lock;
      outcome
    | exception e ->
      (* A failed fill must not poison the cache: drop the in-flight
         cell (it is still empty) before re-raising, so the next caller
         for this configuration retrains instead of finding a cell that
         will never be populated. A waiter already blocked on this cell
         retrains into the orphaned cell itself — same deterministic
         outcome, just unshared. *)
      Mutex.lock table_lock;
      (match Hashtbl.find_opt cache k with
      | Some c when c == cell -> Hashtbl.remove cache k
      | _ -> ());
      Mutex.unlock table_lock;
      Mutex.unlock cell.lock;
      raise e)

(* The agents used by the evaluation experiments: trained on the
   randomized environment (the paper's training setup). *)
let eval_episodes = ref 400

let libra_policy () =
  get
    {
      Train.default_config with
      state_set = Features.libra;
      env_mode = `Randomized;
      episodes = !eval_episodes;
      seed = 41;
    }

let aurora_policy () =
  get
    {
      Train.default_config with
      state_set = Features.aurora;
      action = Actions.Mimd_aurora 5.0;
      env_mode = `Randomized;
      episodes = !eval_episodes;
      seed = 43;
    }

let orca_policy () =
  get
    {
      Train.default_config with
      state_set = Features.orca;
      action = Actions.Mimd_orca;
      env_mode = `Randomized;
      episodes = !eval_episodes;
      seed = 47;
    }

let modified_rl_policy () =
  get
    {
      Train.default_config with
      state_set = Features.libra;
      reward = Reward.modified_rl;
      env_mode = `Randomized;
      episodes = !eval_episodes;
      seed = 53;
    }

(* Train the four evaluation policies concurrently (they are
   independent); later [get] calls from any domain hit the cache. *)
let warm ?pool () =
  let pool = match pool with Some p -> p | None -> Exec.Pool.default () in
  ignore
    (Exec.Pool.map pool
       (fun train -> ignore (train ()))
       [| libra_policy; aurora_policy; orca_policy; modified_rl_policy |])
