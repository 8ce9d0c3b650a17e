(* train: run PPO training for one of the named state sets and report
   the learning curve and tail statistics. Useful for exploring the
   Sec. 4.2 design space from the command line. *)

open Cmdliner

let sets =
  List.map (fun s -> (String.lowercase_ascii s.Rlcc.Features.set_name, s))
    Rlcc.Features.fig5_sets

let run_cmd set_name episodes steps seed randomized delta no_loss chaos
    checkpoint_dir resume snapshot_every obs =
  if resume && checkpoint_dir = None then begin
    prerr_endline "--resume requires --checkpoint DIR";
    exit 2
  end;
  Run_opts.install_chaos chaos;
  match List.assoc_opt set_name sets with
  | None ->
    Printf.eprintf "unknown state set %S (known: %s)\n" set_name
      (String.concat ", " (List.map fst sets));
    1
  | Some state_set ->
    let reward =
      { Rlcc.Reward.default with Rlcc.Reward.use_delta = delta; include_loss = not no_loss }
    in
    let cfg =
      {
        Rlcc.Train.default_config with
        Rlcc.Train.state_set;
        episodes;
        steps_per_episode = steps;
        seed;
        reward;
        env_mode = (if randomized then `Randomized else `Fixed Rlcc.Env.default_cfg);
      }
    in
    let t0 = Sys.time () in
    let manifest = Obs.Manifest.make ~seeds:[ seed ] ~scale:"cli" ~domains:1 () in
    (* Snapshots live in the same content-addressed store as experiment
       checkpoints, keyed by the full training configuration: resuming
       under different flags reads a different cell, never a stale
       snapshot. *)
    let store = Option.map (fun dir -> Exec.Checkpoint.create ~dir) checkpoint_dir in
    let ckpt_key =
      Exec.Checkpoint.key ~parts:[ "train"; Rlcc.Train.config_key cfg ]
    in
    let resume_from =
      match store with
      | Some st when resume ->
        (* A snapshot that fails verification is quarantined and
           training restarts fresh — a torn or bit-flipped cell is
           detected and named, never resumed from. *)
        let snap =
          match Exec.Checkpoint.load st ~key:ckpt_key with
          | Exec.Checkpoint.Hit blob -> (
            match Obs.Json.parse blob with
            | Ok j -> Rlcc.Train.snapshot_of_json j
            | Error _ -> None)
          | Exec.Checkpoint.Miss -> None
          | Exec.Checkpoint.Corrupt { path; reason } ->
            let q = Exec.Checkpoint.quarantine st ~key:ckpt_key in
            Printf.eprintf "[train] CORRUPT snapshot %s (%s)%s\n%!" path reason
              (match q with
              | Some qp -> Printf.sprintf "; quarantined to %s" qp
              | None -> "");
            None
          | exception Chaos.Io.Fault { fault; path; _ } ->
            Printf.eprintf "[train] snapshot load fault: %s at %s\n%!" fault path;
            None
        in
        (match snap with
        | Some _ -> Printf.eprintf "[train] resuming from snapshot %s\n%!" ckpt_key
        | None -> Printf.eprintf "[train] no snapshot for this configuration; starting fresh\n%!");
        snap
      | _ -> None
    in
    let on_snapshot =
      Option.map
        (fun st ~episode snap ->
          match
            Exec.Checkpoint.save st ~key:ckpt_key
              (Obs.Json.to_compact (Rlcc.Train.snapshot_to_json snap))
          with
          | () -> Printf.eprintf "[train] snapshot after episode %d\n%!" episode
          | exception Chaos.Io.Fault { fault; path; _ } ->
            (* A failed snapshot must not kill training: the run keeps
               its in-memory state; only resumability is lost. *)
            Printf.eprintf "[train] snapshot fault after episode %d: %s at %s\n%!"
              episode fault path)
        store
    in
    let snapshot_every = if store = None then 0 else snapshot_every in
    (* Training is one serial loop: lane 0 of the session. *)
    let session = Run_opts.session ~manifest obs in
    let outcome =
      Run_opts.run session ~lane:0 (fun () ->
          Rlcc.Train.run ?on_snapshot ~snapshot_every ?resume_from cfg)
    in
    Run_opts.export session;
    let elapsed = Sys.time () -. t0 in
    let curve = Rlcc.Train.smooth outcome.Rlcc.Train.episode_rewards in
    Printf.printf "state set %s, %d episodes x %d steps (%.1fs CPU)\n"
      state_set.Rlcc.Features.set_name episodes steps elapsed;
    print_endline "smoothed reward curve (10 samples):";
    for i = 0 to 9 do
      let idx = i * (Array.length curve - 1) / 9 in
      Printf.printf "  ep %4d: %8.1f\n" idx curve.(idx)
    done;
    Printf.printf "tail: throughput %.1f Mbit/s, rtt %.0f ms, loss %.2f%%\n"
      (Netsim.Units.bps_to_mbps outcome.Rlcc.Train.final_throughput)
      (outcome.Rlcc.Train.final_rtt *. 1000.0)
      (outcome.Rlcc.Train.final_loss *. 100.0);
    if outcome.Rlcc.Train.rollbacks > 0 then
      Printf.printf "divergence guard: rolled back %d update(s)\n"
        outcome.Rlcc.Train.rollbacks;
    Run_opts.exit_code 0

let set_name = Arg.(value & opt string "libra" & info [ "set" ] ~doc:"state set")
let episodes = Arg.(value & opt int 150 & info [ "episodes" ] ~doc:"episodes")
let steps = Arg.(value & opt int 160 & info [ "steps" ] ~doc:"steps per episode")
let seed = Arg.(value & opt int 23 & info [ "seed" ] ~doc:"seed")
let randomized = Arg.(value & flag & info [ "randomized" ] ~doc:"randomized envs")
let delta = Arg.(value & flag & info [ "delta" ] ~doc:"train on delta-r")
let no_loss = Arg.(value & flag & info [ "no-loss" ] ~doc:"drop the loss term")

let checkpoint_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"DIR"
        ~doc:
          "save periodic training snapshots (policy, optimiser, rng and env \
           state) to a store under $(docv), keyed by the full configuration")

let resume =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "continue from the latest snapshot in the --checkpoint store \
           (bit-identical to the uninterrupted run)")

let snapshot_every =
  Arg.(
    value & opt int 25
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:"episodes between snapshots (with --checkpoint)")

let () =
  Run_opts.eval ~name:"train" ~doc:"PPO training for the DRL-based CCA"
    Term.(
      const run_cmd $ set_name $ episodes $ steps $ seed $ randomized $ delta
      $ no_loss $ Run_opts.chaos $ checkpoint_dir $ resume $ snapshot_every
      $ Run_opts.exports ~trace:"trace")
