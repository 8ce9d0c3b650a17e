(* Fig. 13 (inter-protocol) and Fig. 14 (intra-protocol) fairness on a
   48 Mbit/s link, 100 ms minimum RTT, 1 BDP buffer. *)

let candidates =
  [
    ("cubic", Ccas.cubic);
    ("bbr", Ccas.bbr);
    ("copa", Ccas.copa);
    ("aurora", Ccas.aurora);
    ("proteus", Ccas.proteus);
    ("orca", Ccas.orca);
    ("mod-rl", Ccas.mod_rl);
    ("c-libra", Ccas.c_libra);
    ("b-libra", Ccas.b_libra);
  ]

(* Also the setting of Fig. 15 and of Tab. 4's fairness column. *)
let spec () = Scenario.one_bdp (Scenario.make_spec ~rtt:0.1 (Traces.Rate.constant 48.0))

(* Each candidate shares the link with its partner from t = 0: both
   steady-state shares and the Jain index. *)
let race ~header partner =
  let duration = (Scale.get ()).Scale.duration in
  Table.print ~header
    (List.map
       (fun (name, factory) ->
         let summary =
           Scenario.run_mixed ~flows:[ (factory, 0.0); (partner factory, 0.0) ] ~duration
             (spec ())
         in
         let share = Scenario.share_of_first ~duration summary in
         [ name; Table.f2 share; Table.f2 (1.0 -. share);
           Table.f3 (Scenario.jain ~duration summary) ])
       candidates)

let run_fig13 () =
  Table.heading "Fig. 13: inter-protocol fairness (CCA under test vs CUBIC)";
  race ~header:[ "cca"; "cca share"; "cubic share"; "jain" ] (fun _ -> Ccas.cubic);
  Report.text "optimal share: 0.50 each"

let run_fig14 () =
  Table.heading "Fig. 14: intra-protocol fairness (two flows, same CCA)";
  race ~header:[ "cca"; "flow1 share"; "flow2 share"; "jain" ] Fun.id

let run () =
  run_fig13 ();
  run_fig14 ()
