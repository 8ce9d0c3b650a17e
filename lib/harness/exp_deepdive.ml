(* Sec. 5.5's deep dive.

   Fig. 17 -- fraction of control cycles won by x_prev / x_rl / x_cl
   for C-Libra and B-Libra over the step, cellular and wired scenarios;
   Fig. 18 -- utility over time of C/B-Libra against the offline ideal
   combinations (C-Ideal / B-Ideal). *)

let scenarios ~duration =
  [
    ("step", Traces.Rate.step ~period:10.0 Exp_fig2.step_levels);
    ("cellular", Traces.Lte.generate ~seed:17 ~duration Traces.Lte.Walking);
    ("wired", Traces.Rate.constant 48.0);
  ]

let run_fig17 () =
  let scale = Scale.get () in
  let duration = scale.Scale.duration in
  Table.heading "Fig. 17: fraction of applied decisions";
  List.iter
    (fun (variant, make) ->
      Table.subheading variant;
      Table.print
        ~header:[ "scenario"; "x_prev"; "x_rl"; "x_cl" ]
        (List.map
           (fun (scn, trace) ->
             let _, controller =
               Scenario.run_libra ~make ~duration
                 (Scenario.make_spec ~rtt:0.03 ~buffer_kb:150 trace)
             in
             let prev, rl, cl =
               Libra.Telemetry.fractions (Libra.Controller.telemetry controller)
             in
             [ scn; Table.f2 prev; Table.f2 rl; Table.f2 cl ])
           (scenarios ~duration)))
    [
      ("C-Libra", Libra.make_c_libra_instrumented);
      ("B-Libra", Libra.make_b_libra_instrumented);
    ]

(* Fig. 18: utilities over a cellular trace, 2-second grain, all series
   normalised together. *)
let run_fig18 () =
  let scale = Scale.get () in
  let duration = scale.Scale.duration in
  Table.heading "Fig. 18: Libra vs the offline ideal combination";
  let trace = Traces.Lte.generate ~seed:18 ~duration Traces.Lte.Walking in
  let spec = Scenario.make_spec ~rtt:0.03 ~buffer_kb:150 trace in
  let utility_series factory =
    let o = Scenario.run_uniform ~factory ~duration spec in
    Libra.Ideal.utility_of_stats (Scenario.first_stats o) ~duration
  in
  let cubic = utility_series Ccas.cubic in
  let bbr = utility_series Ccas.bbr in
  let clean = utility_series Ccas.cl_libra in
  let c_libra = utility_series Ccas.c_libra in
  let b_libra = utility_series Ccas.b_libra in
  let c_ideal = Libra.Ideal.combine cubic clean in
  let b_ideal = Libra.Ideal.combine bbr clean in
  let norm = Libra.Ideal.normalise [ c_libra; c_ideal; b_libra; b_ideal ] in
  let c_libra = norm c_libra and c_ideal = norm c_ideal in
  let b_libra = norm b_libra and b_ideal = norm b_ideal in
  Table.print
    ~header:[ "t(s)"; "c-libra"; "c-ideal"; "b-libra"; "b-ideal" ]
    (Array.to_list
       (Array.mapi
          (fun i (time, v) ->
            [
              Printf.sprintf "%.0f" time;
              Table.f2 v;
              Table.f2 (snd c_ideal.(i));
              Table.f2 (snd b_libra.(i));
              Table.f2 (snd b_ideal.(i));
            ])
          c_libra));
  (* Summary: how close is Libra to its ideal on average? *)
  let mean s = Array.fold_left (fun a (_, v) -> a +. v) 0.0 s /. float_of_int (Array.length s) in
  Report.printf "mean normalised utility: c-libra %.2f vs c-ideal %.2f; b-libra %.2f vs b-ideal %.2f\n"
    (mean c_libra) (mean c_ideal) (mean b_libra) (mean b_ideal)

let run () =
  run_fig17 ();
  run_fig18 ()
