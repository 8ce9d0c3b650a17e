(* Fig. 16 -- the live-Internet experiments, reproduced over synthetic
   WAN paths (see DESIGN.md's substitution table): an inter-continental
   path (180 ms, 0.8% stochastic loss, wobbling 60 Mbit/s bottleneck)
   and an intra-continental one (40 ms, 0.08%, 90 Mbit/s). Results are
   normalised as in the paper's figure. *)

let candidates =
  [
    ("c-libra-Th1", Ccas.c_libra_pref "Th-1");
    ("c-libra", Ccas.c_libra);
    ("c-libra-La1", Ccas.c_libra_pref "La-1");
    ("b-libra", Ccas.b_libra);
    ("proteus", Ccas.proteus);
    ("bbr", Ccas.bbr);
    ("cubic", Ccas.cubic);
    ("orca", Ccas.orca);
  ]

let run_path label path =
  let scale = Scale.get () in
  Table.subheading label;
  let spec = Scenario.wan_spec path in
  let rows =
    List.map
      (fun (name, factory) ->
        ( name,
          Scenario.averaged ~runs:scale.Scale.runs ~factory ~duration:scale.Scale.duration
            spec ))
      candidates
  in
  let max_thr = List.fold_left (fun a (_, m) -> Float.max a m.Scenario.thr) 1e-9 rows in
  let min_delay = List.fold_left (fun a (_, m) -> Float.min a m.Scenario.delay) infinity rows in
  Table.print
    ~header:[ "cca"; "norm.thr"; "norm.delay"; "loss" ]
    (List.map
       (fun (name, (m : Scenario.mean)) ->
         [ name; Table.f2 (m.thr /. max_thr); Table.f2 (m.delay /. min_delay); Table.pct m.loss ])
       rows)

let run () =
  let scale = Scale.get () in
  Table.heading "Fig. 16: synthetic live-Internet (WAN) scenarios";
  run_path "(a) inter-continental"
    (Traces.Wan.inter_continental ~duration:scale.Scale.duration ());
  run_path "(b) intra-continental"
    (Traces.Wan.intra_continental ~duration:scale.Scale.duration ())
