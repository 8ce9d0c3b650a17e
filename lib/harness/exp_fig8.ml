(* Fig. 8 -- following the changing link capacity of an LTE trace with
   user movement: throughput over time for C-Libra, B-Libra, Proteus,
   CUBIC, BBR and Orca against the capacity envelope. *)

let candidates =
  [
    ("c-libra", Ccas.c_libra);
    ("b-libra", Ccas.b_libra);
    ("proteus", Ccas.proteus);
    ("cubic", Ccas.cubic);
    ("bbr", Ccas.bbr);
    ("orca", Ccas.orca);
  ]

(* Mean absolute tracking error against capacity, per second. *)
let tracking_error ~trace per_second =
  let errors =
    Array.mapi
      (fun sec thr -> Float.abs (thr -. Traces.Rate.fn trace (float_of_int sec +. 0.5)))
      per_second
  in
  Array.fold_left ( +. ) 0.0 errors /. float_of_int (Array.length per_second)

let run () =
  let scale = Scale.get () in
  let duration = Float.max 35.0 scale.Scale.duration in
  Table.heading "Fig. 8: following a moving-user LTE trace";
  let trace = Traces.Lte.generate ~seed:8 ~duration Traces.Lte.Moving in
  let series =
    Exp_fig2.track_capacity ~candidates ~duration
      (Scenario.make_spec ~rtt:0.03 ~buffer_kb:150 trace)
  in
  Table.subheading "mean absolute tracking error (Mbit/s)";
  Table.print ~header:[ "cca"; "error" ]
    (List.map (fun (name, s) -> [ name; Table.mbps (tracking_error ~trace s) ]) series)
