(* Fig. 1 -- Adaptability under wired / cellular networks.

   Three wired traces (24/48/96 Mbit/s) and three LTE traces
   (stationary / walking / driving), 30 ms minimum RTT, 150 KB buffer.
   Rows: link utilization and average delay for CUBIC, BBR, Orca,
   Proteus and C-Libra. *)

let candidates =
  [
    ("cubic", Ccas.cubic);
    ("bbr", Ccas.bbr);
    ("orca", Ccas.orca);
    ("proteus", Ccas.proteus);
    ("c-libra", Ccas.c_libra);
  ]

let scenarios ~duration =
  [
    ("Wired#1(24M)", Traces.Rate.constant 24.0);
    ("Wired#2(48M)", Traces.Rate.constant 48.0);
    ("Wired#3(96M)", Traces.Rate.constant 96.0);
    ("LTE#1(stat)", Traces.Lte.generate ~seed:11 ~duration Traces.Lte.Stationary);
    ("LTE#2(walk)", Traces.Lte.generate ~seed:12 ~duration Traces.Lte.Walking);
    ("LTE#3(drive)", Traces.Lte.generate ~seed:13 ~duration Traces.Lte.Driving);
  ]

let run () =
  let scale = Scale.get () in
  Table.heading "Fig. 1: adaptability (link utilization / avg delay)";
  let scenarios = scenarios ~duration:scale.Scale.duration in
  let results =
    List.map
      (fun (scn_name, trace) ->
        let spec = Scenario.make_spec ~rtt:0.03 ~buffer_kb:150 trace in
        let per_cca =
          List.map
            (fun (cca_name, factory) ->
              let m =
                Scenario.averaged ~runs:scale.Scale.runs ~factory
                  ~duration:scale.Scale.duration spec
              in
              (cca_name, m.Scenario.util, m.Scenario.delay))
            candidates
        in
        (scn_name, per_cca))
      scenarios
  in
  Table.subheading "Link utilization";
  Table.print
    ~header:("scenario" :: List.map (fun (n, _) -> n) candidates)
    (List.map
       (fun (scn, per) -> scn :: List.map (fun (_, u, _) -> Table.f2 u) per)
       results);
  Table.subheading "Avg delay (ms)";
  Table.print
    ~header:("scenario" :: List.map (fun (n, _) -> n) candidates)
    (List.map
       (fun (scn, per) -> scn :: List.map (fun (_, _, d) -> Table.ms d) per)
       results)
