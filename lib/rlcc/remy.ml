(* RemyCC (Winstein & Balakrishnan, SIGCOMM 2013) stand-in.

   Remy offline-computes a rule table mapping memory features (EWMA of
   inter-ACK gap, EWMA of inter-send gap, RTT ratio) to window actions
   (multiplier m, increment b). The published tables are binary
   artefacts of Remy's optimiser; we substitute a compact hand-built
   table over the same feature space with the same action form, which
   reproduces Remy's qualitative behaviour: decisive in conditions the
   rules anticipate, brittle outside them (cf. the paper's Fig. 7
   discussion of offline-trained CCAs). Like the classic window CCAs,
   it is a control law over [Classic_cc.Window], starting at 4
   packets. *)

type rule = { rtt_ratio_below : float; multiplier : float; increment : float }

(* Evaluated in order; the first matching row fires. *)
let table =
  [
    { rtt_ratio_below = 1.05; multiplier = 1.15; increment = 2.0 };
    { rtt_ratio_below = 1.20; multiplier = 1.02; increment = 1.0 };
    { rtt_ratio_below = 1.50; multiplier = 1.00; increment = 0.0 };
    { rtt_ratio_below = 2.00; multiplier = 0.93; increment = 0.0 };
    { rtt_ratio_below = infinity; multiplier = 0.70; increment = 0.0 };
  ]

let lookup rtt_ratio =
  let rec find = function
    | [] -> assert false
    | rule :: rest -> if rtt_ratio < rule.rtt_ratio_below then rule else find rest
  in
  find table

let make () =
  let w = Classic_cc.Window.create ~cwnd:4.0 () in
  let next_update = ref 0.0 in
  let on_ack (ack : Netsim.Cca.ack_info) =
    if ack.now >= !next_update then begin
      let srtt = Classic_cc.Window.srtt w in
      next_update := ack.now +. srtt;
      let ratio = srtt /. Float.max 1e-4 (Classic_cc.Window.min_rtt w) in
      let rule = lookup ratio in
      w.cwnd <- Float.max 2.0 ((w.cwnd *. rule.multiplier) +. rule.increment)
    end
  in
  let on_loss (loss : Netsim.Cca.loss_info) =
    match loss.kind with
    | Netsim.Cca.Timeout -> w.cwnd <- 2.0
    | Netsim.Cca.Gap_detected -> ()
  in
  Classic_cc.Window.cca ~name:"remy" w ~on_ack ~on_loss
