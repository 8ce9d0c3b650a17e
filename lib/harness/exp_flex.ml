(* Fig. 11 -- flexibility: the utility-preference presets trade
   throughput against delay, and tune aggressiveness against a
   competing CUBIC flow.

   (a)/(b): single Libra flow per preset on wired / cellular traces;
   (c)/(d): one Libra flow vs one CUBIC flow, reporting Libra's
   throughput share (0.5 = fair). *)

let presets = [ "Th-2"; "Th-1"; "default"; "La-1"; "La-2" ]

let variants =
  List.concat_map
    (fun preset ->
      [
        ("C-Libra-" ^ preset, Ccas.c_libra_pref preset);
        ("B-Libra-" ^ preset, Ccas.b_libra_pref preset);
      ])
    presets

let single_flow ~traces ~label () =
  let scale = Scale.get () in
  Table.subheading label;
  let rows =
    List.map
      (fun (name, factory) ->
        let m =
          Scenario.over_traces ~runs:scale.Scale.runs ~factory
            ~duration:scale.Scale.duration traces
        in
        [ name; Table.f2 m.Scenario.util; Table.ms m.Scenario.delay ])
      variants
  in
  Table.print ~header:[ "variant"; "utilization"; "delay(ms)" ] rows

let vs_cubic ~traces ~label () =
  let scale = Scale.get () in
  Table.subheading label;
  let duration = scale.Scale.duration in
  let rows =
    List.map
      (fun (name, factory) ->
        let per =
          List.map
            (fun trace ->
              let spec = Scenario.make_spec ~rtt:0.03 ~buffer_kb:150 trace in
              let summary =
                Scenario.run_mixed ~flows:[ (factory, 0.0); (Ccas.cubic, 0.0) ]
                  ~duration spec
              in
              let share = Scenario.share_of_first ~duration summary in
              let delay =
                match summary.Netsim.Network.flows with
                | f :: _ -> Netsim.Flow_stats.mean_rtt f.Netsim.Network.stats
                | [] -> nan
              in
              (share, delay))
            traces
        in
        let n = float_of_int (List.length per) in
        let share = List.fold_left (fun a (s, _) -> a +. s) 0.0 per /. n in
        let delay = List.fold_left (fun a (_, d) -> a +. d) 0.0 per /. n in
        [ name; Table.f2 share; Table.ms delay ])
      variants
  in
  Table.print ~header:[ "variant"; "thr share"; "delay(ms)" ] rows;
  Report.text "share 0.50 = fair split with CUBIC"

let run () =
  let scale = Scale.get () in
  Table.heading "Fig. 11: flexibility via utility preferences";
  let wired = Scenario.wired_traces () in
  let cellular = Scenario.cellular_traces ~seed:31 ~duration:scale.Scale.duration () in
  single_flow ~traces:wired ~label:"(a) single flow, wired" ();
  single_flow ~traces:cellular ~label:"(b) single flow, cellular" ();
  vs_cubic ~traces:wired ~label:"(c) vs CUBIC, wired" ();
  vs_cubic ~traces:cellular ~label:"(d) vs CUBIC, cellular" ()
