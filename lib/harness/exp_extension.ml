(* Extensions beyond the paper's evaluation, following its Sec. 7
   discussion:

   (a) other classic CCAs under Libra -- Westwood, Illinois and Reno,
       whose parameter guidelines the paper claims carry over;
   (b) other networks -- a GEO satellite path (long RTT, high stochastic
       loss) and a 5G-style link with abrupt capacity swings;
   (c) CUBIC + CoDel vs Libra -- the paper argues classic CCAs need AQM
       support in the network to get low queueing delay, while Libra
       achieves it end-to-end; with a CoDel queue implemented in the
       simulator we can put numbers on that comparison. *)

let other_libras () =
  let over name classic ~seed =
    (Libra.make_instrumented ~params:(Ccas.libra_params ~seed) ~name
       ~classic:(Some (classic ())) ())
      .Libra.cca
  in
  [
    ("w-libra", over "w-libra" Classic_cc.Westwood.embedded);
    ("i-libra", over "i-libra" Classic_cc.Illinois.embedded);
    ("r-libra", Ccas.r_libra);
  ]

let run_other_classics () =
  let scale = Scale.get () in
  Table.heading "Extension: Libra over other classic CCAs (Sec. 7)";
  let traces =
    [
      ("wired-48M", Traces.Rate.constant 48.0);
      ("lte-walking", Traces.Lte.generate ~seed:31 ~duration:scale.Scale.duration
          Traces.Lte.Walking);
    ]
  in
  let candidates =
    [ ("westwood", fun ~seed:_ -> Classic_cc.Westwood.make ());
      ("illinois", fun ~seed:_ -> Classic_cc.Illinois.make ());
      ("c-libra", Ccas.c_libra) ]
    @ other_libras ()
  in
  Table.print
    ~header:("cca" :: List.concat_map (fun (n, _) -> [ n ^ " util"; n ^ " ms" ]) traces)
    (List.map
       (fun (name, factory) ->
         name
         :: List.concat_map
              (fun (_, trace) ->
                let m =
                  Scenario.averaged ~runs:scale.Scale.runs ~factory
                    ~duration:scale.Scale.duration
                    (Scenario.make_spec ~rtt:0.03 ~buffer_kb:150 trace)
                in
                [ Table.f2 m.Scenario.util; Table.ms m.Scenario.delay ])
              traces)
       candidates)

let run_other_networks () =
  let scale = Scale.get () in
  let duration = scale.Scale.duration in
  Table.heading "Extension: satellite and 5G paths (Sec. 7)";
  let paths =
    [ Traces.Wan.satellite ~duration (); Traces.Wan.five_g ~duration () ]
  in
  let candidates =
    [ ("cubic", Ccas.cubic); ("bbr", Ccas.bbr); ("c-libra", Ccas.c_libra);
      ("b-libra", Ccas.b_libra) ]
  in
  List.iter
    (fun (path : Traces.Wan.path) ->
      Table.subheading path.Traces.Wan.name;
      let spec = Scenario.wan_spec path in
      Table.print
        ~header:[ "cca"; "utilization"; "avg delay(ms)"; "loss" ]
        (List.map
           (fun (name, factory) ->
             let m = Scenario.averaged ~runs:scale.Scale.runs ~factory ~duration spec in
             [ name; Table.f2 m.Scenario.util; Table.ms m.Scenario.delay;
               Table.pct m.Scenario.loss ])
           candidates))
    paths

let run_codel () =
  let scale = Scale.get () in
  Table.heading "Extension: CUBIC needs CoDel in the network; Libra does not";
  let trace = Traces.Rate.constant 48.0 in
  let rows =
    List.map
      (fun (label, factory, aqm) ->
        let m =
          Scenario.averaged ~runs:scale.Scale.runs ~factory
            ~duration:scale.Scale.duration
            (Scenario.make_spec ~rtt:0.03 ~buffer_kb:600 ~aqm trace)
        in
        [ label; Table.f2 m.Scenario.util; Table.ms m.Scenario.delay;
          Table.pct m.Scenario.loss ])
      [
        ("cubic + droptail", Ccas.cubic, `Fifo);
        ("cubic + codel", Ccas.cubic, `Codel);
        ("c-libra + droptail", Ccas.c_libra, `Fifo);
      ]
  in
  Table.print ~header:[ "configuration"; "utilization"; "avg delay(ms)"; "loss" ] rows;
  Report.text
    "Libra keeps the deep droptail buffer empty end-to-end; CUBIC needs the\n\
     network's help (CoDel) for comparable delay -- the paper's Sec. 2\n\
     flexibility argument.";
  (* Two CUBIC flows under CoDel should also stay fair. *)
  Table.subheading "two CUBIC flows under CoDel";
  let spec = Scenario.make_spec ~rtt:0.03 ~buffer_kb:600 ~aqm:`Codel trace in
  let summary =
    Scenario.run_mixed ~flows:[ (Ccas.cubic, 0.0); (Ccas.cubic, 0.0) ]
      ~duration:scale.Scale.duration spec
  in
  Report.printf "jain index: %.3f\n" (Scenario.jain ~duration:scale.Scale.duration summary)

let run () =
  run_other_classics ();
  run_other_networks ();
  run_codel ()
