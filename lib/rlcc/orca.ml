(* Orca (Abbasloo et al., SIGCOMM 2020): the earlier combined approach
   the paper compares against. CUBIC runs underneath; every monitor
   interval the DRL agent rescales CUBIC's window multiplicatively
   (cwnd <- cwnd * 2^a). Unlike Libra there is no evaluation step, so a
   bad agent decision is applied directly -- the behaviour behind
   Fig. 2(b) and Tab. 6. *)

let make ?(seed = 113) () =
  let w = Classic_cc.Window.create () in
  let cubic = Classic_cc.Cubic.create w in
  let cubic_cca = Classic_cc.Cubic.as_cca cubic in
  let agent =
    Agent.create ~seed ~initial_rate:Aurora.default_initial_rate
      (Pretrained.orca_policy ())
  in
  let mss = Classic_cc.Window.mss in
  (* Not the shell's rate: Orca's pacing below scales this quotient,
     which rounds differently from 1.2 * cwnd * mss / srtt. *)
  let cubic_rate () = w.cwnd *. mss /. Float.max 1e-3 (Classic_cc.Window.srtt w) in
  let on_ack ack =
    cubic_cca.Netsim.Cca.on_ack ack;
    (* Mirror CUBIC's rate into the agent so the MIMD action rescales
       the *current* operating point, then write the decision back. *)
    Agent.set_rate agent (cubic_rate ());
    let decided = Agent.on_ack agent ack in
    if decided then begin
      let new_cwnd =
        Agent.rate agent *. Float.max 1e-3 (Classic_cc.Window.srtt w) /. mss
      in
      Classic_cc.Cubic.set_cwnd cubic (Float.max 2.0 new_cwnd)
    end
  in
  {
    Netsim.Cca.name = "orca";
    on_ack;
    on_loss =
      (fun loss ->
        cubic_cca.Netsim.Cca.on_loss loss;
        match loss.Netsim.Cca.kind with
        | Netsim.Cca.Timeout -> Agent.on_timeout_loss agent ~pkts:loss.Netsim.Cca.lost
        | Netsim.Cca.Gap_detected -> ());
    on_send = (fun send -> Agent.observe_send agent send);
    pacing_rate = (fun ~now:_ -> 1.2 *. cubic_rate ());
    cwnd = cubic_cca.Netsim.Cca.cwnd;
  }
