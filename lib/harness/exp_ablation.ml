(* Design-choice ablations beyond the paper's own sweeps.

   eval-order: Sec. 4.1 argues the evaluation stage must try the lower
   candidate rate first to avoid self-inflicted queueing poisoning the
   second measurement (Fig. 4). We flip the order and measure the
   damage on a cellular trace, where side effects are most visible.

   no-exploit: the exploitation stage defers the decision until the
   evaluation ACKs return; deciding immediately at the end of the
   evaluation stage (a zero-length exploitation stage) evaluates
   candidates on stale feedback. *)

let run () =
  let scale = Scale.get () in
  Table.heading "Ablations: evaluation order and exploitation stage";
  let cellular = Scenario.cellular_traces ~seed:77 ~duration:scale.Scale.duration () in
  let variants =
    [
      ("lower-first (paper)", Libra.Params.default);
      ( "higher-first",
        { Libra.Params.default with Libra.Params.eval_lower_first = false } );
      ( "short exploitation (0.25 RTT)",
        { Libra.Params.default with Libra.Params.exploitation_rtts = Some 0.25 } );
    ]
  in
  Table.print
    ~header:[ "variant"; "cell util"; "cell delay(ms)"; "cell loss" ]
    (List.map
       (fun (label, params) ->
         let m = Exp_sensitivity.evaluate ~params ~traces:cellular in
         [ label; Table.f2 m.Scenario.util; Table.ms m.Scenario.delay;
           Table.pct m.Scenario.loss ])
       variants)
