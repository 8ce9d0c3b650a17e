(* Appendix B -- parameter sensitivity.

   Fig. 19: C-Libra's performance under stage-duration patterns
   [exploration, EI, exploitation] in RTTs; Tab. 7: the switching
   threshold th1 from 0.1x to 0.4x the base rate. Both over the wired
   and cellular trace sets. *)

let durations = [ (1.0, 0.5, 1.0); (1.0, 1.0, 1.0); (2.0, 0.5, 2.0); (2.0, 1.0, 2.0); (3.0, 0.5, 3.0); (3.0, 1.0, 3.0) ]

let thresholds = [ 0.1; 0.2; 0.3; 0.4 ]

(* C-Libra under [params] over a trace set (also the ablations'). *)
let evaluate ~params ~traces =
  let scale = Scale.get () in
  let factory ~seed =
    Libra.make_c_libra ~params:{ params with Libra.Params.seed } ()
  in
  Scenario.over_traces ~runs:scale.Scale.runs ~factory ~duration:scale.Scale.duration
    traces

let run_fig19 () =
  let scale = Scale.get () in
  Table.heading "Fig. 19: C-Libra under different stage durations";
  let wired = Scenario.wired_traces () in
  let cellular = Scenario.cellular_traces ~seed:31 ~duration:scale.Scale.duration () in
  Table.print
    ~header:[ "[expl,EI,expt](RTT)"; "wired util"; "wired delay"; "cell util"; "cell delay" ]
    (List.map
       (fun (expl, ei, expt) ->
         let params =
           {
             Libra.Params.default with
             Libra.Params.exploration_rtts = Some expl;
             exploitation_rtts = Some expt;
             ei_rtts = ei;
           }
         in
         let w = evaluate ~params ~traces:wired in
         let c = evaluate ~params ~traces:cellular in
         [
           Printf.sprintf "[%g,%g,%g]" expl ei expt;
           Table.f2 w.Scenario.util; Table.ms w.Scenario.delay;
           Table.f2 c.Scenario.util; Table.ms c.Scenario.delay;
         ])
       durations)

let run_tab7 () =
  let scale = Scale.get () in
  Table.heading "Tab. 7: C-Libra under different switching thresholds";
  let wired = Scenario.wired_traces () in
  let cellular = Scenario.cellular_traces ~seed:31 ~duration:scale.Scale.duration () in
  Table.print
    ~header:[ "config"; "utilization"; "avg delay(ms)" ]
    (List.concat_map
       (fun (label, traces) ->
         List.map
           (fun th1_frac ->
             let params = { Libra.Params.default with Libra.Params.th1_frac } in
             let m = evaluate ~params ~traces in
             [ Printf.sprintf "%s-%.1fx" label th1_frac; Table.f2 m.Scenario.util;
               Table.ms m.Scenario.delay ])
           thresholds)
       [ ("Wired", wired); ("Cellular", cellular) ])

let run () =
  run_fig19 ();
  run_tab7 ()
