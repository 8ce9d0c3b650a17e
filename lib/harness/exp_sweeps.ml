(* Fig. 9 -- buffer-size sweep (10 KB to 1 MB on a 60 Mbit/s, 100 ms
   link) and Fig. 10 -- stochastic-loss sweep (0 to 10%). *)

let candidates =
  [
    ("proteus", Ccas.proteus);
    ("bbr", Ccas.bbr);
    ("copa", Ccas.copa);
    ("cubic", Ccas.cubic);
    ("orca", Ccas.orca);
    ("c-libra", Ccas.c_libra);
    ("b-libra", Ccas.b_libra);
  ]

let buffer_points_kb = [ 10; 30; 75; 150; 300; 600; 1000 ]

let run_fig9 () =
  let scale = Scale.get () in
  Table.heading "Fig. 9: impact of buffer size (60 Mbit/s, 100 ms RTT)";
  let trace = Traces.Rate.constant 60.0 in
  let rows =
    List.map
      (fun buffer_kb ->
        let spec = Scenario.make_spec ~rtt:0.1 ~buffer_kb trace in
        let per =
          List.map
            (fun (_, factory) ->
              let m =
                Scenario.averaged ~runs:scale.Scale.runs ~factory
                  ~duration:scale.Scale.duration spec
              in
              Printf.sprintf "%s/%s" (Table.f2 m.Scenario.util) (Table.ms m.Scenario.delay))
            candidates
        in
        Printf.sprintf "%dKB" buffer_kb :: per)
      buffer_points_kb
  in
  Table.print ~header:("buffer" :: List.map fst candidates) rows;
  Report.text "cells: link-utilization / avg-delay(ms)"

let loss_points = [ 0.0; 0.02; 0.04; 0.06; 0.08; 0.10 ]

let run_fig10 () =
  let scale = Scale.get () in
  Table.heading "Fig. 10: impact of stochastic packet loss (48 Mbit/s)";
  let trace = Traces.Rate.constant 48.0 in
  let rows =
    List.map
      (fun loss_p ->
        let spec = Scenario.make_spec ~rtt:0.03 ~buffer_kb:150 ~loss_p trace in
        let per =
          List.map
            (fun (_, factory) ->
              Table.f2
                (Scenario.averaged ~runs:scale.Scale.runs ~factory
                   ~duration:scale.Scale.duration spec)
                  .Scenario.util)
            candidates
        in
        Table.pct loss_p :: per)
      loss_points
  in
  Table.print ~header:("loss" :: List.map fst candidates) rows;
  Report.text "cells: link utilization"

let run () =
  run_fig9 ();
  run_fig10 ()
