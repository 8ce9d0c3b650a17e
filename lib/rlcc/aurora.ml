(* Aurora (Jay et al. 2019): a pure PPO rate controller with the
   latency-gradient / latency-ratio / send-ratio state space and an
   MIMD action with a small step factor. *)

let default_initial_rate = Netsim.Units.mbps_to_bps 2.0

let make_from_agent ~name ~(agent : Agent.t) () =
  {
    Netsim.Cca.name;
    on_ack = (fun ack -> ignore (Agent.on_ack agent ack));
    on_loss =
      (fun loss ->
        match loss.Netsim.Cca.kind with
        | Netsim.Cca.Timeout ->
          Agent.on_timeout_loss agent ~pkts:loss.Netsim.Cca.lost;
          (* A full timeout means the pipe collapsed under us. *)
          Agent.set_rate agent (Agent.rate agent /. 2.0)
        | Netsim.Cca.Gap_detected -> ());
    on_send = (fun send -> Agent.observe_send agent send);
    pacing_rate = (fun ~now:_ -> Agent.rate agent);
    cwnd =
      (fun ~now:_ ->
        Netsim.Cca.rate_cwnd ~rate:(Agent.rate agent) ~min_rtt:(Agent.min_rtt agent));
  }

let make ?(seed = 97) () =
  let agent =
    Agent.create ~seed ~initial_rate:default_initial_rate (Pretrained.aurora_policy ())
  in
  make_from_agent ~name:"aurora" ~agent ()
