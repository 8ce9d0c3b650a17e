(* Fig. 7 -- the adaptability scatter: average normalised throughput
   and delay of every benchmark CCA over four wired and four cellular
   traces. Libra (C- and B-) should land in the top-right (high
   throughput, low delay) and beat Clean-slate Libra and Modified RL. *)

let candidates =
  [
    ("cubic", Ccas.cubic);
    ("bbr", Ccas.bbr);
    ("copa", Ccas.copa);
    ("sprout", Ccas.sprout);
    ("vegas", Ccas.vegas);
    ("vivace", Ccas.vivace);
    ("proteus", Ccas.proteus);
    ("remy", Ccas.remy);
    ("indigo", Ccas.indigo);
    ("aurora", Ccas.aurora);
    ("orca", Ccas.orca);
    ("mod-rl", Ccas.mod_rl);
    ("cl-libra", Ccas.cl_libra);
    ("c-libra", Ccas.c_libra);
    ("b-libra", Ccas.b_libra);
  ]

let print_group title traces =
  let scale = Scale.get () in
  Table.subheading title;
  Table.print
    ~header:[ "cca"; "norm.throughput"; "avg delay(ms)" ]
    (List.map
       (fun (name, factory) ->
         let m =
           Scenario.over_traces ~runs:scale.Scale.runs ~factory
             ~duration:scale.Scale.duration traces
         in
         [ name; Table.f2 m.Scenario.util; Table.ms m.Scenario.delay ])
       candidates)

let run () =
  let duration = (Scale.get ()).Scale.duration in
  Table.heading "Fig. 7: throughput/delay over wired and cellular traces";
  print_group "(a) four wired traces" (Scenario.wired_traces ());
  print_group "(b) four cellular traces" (Scenario.cellular_traces ~seed:31 ~duration ())
