(* Public facade: the Libra variants evaluated in the paper.

   - C-Libra: CUBIC underneath (the paper's primary configuration)
   - B-Libra: BBR underneath (3-RTT exploration stage)
   - Clean-slate Libra: no classic CCA -- the utility framework
     arbitrates only between the DRL decision and the previous rate
   - R-Libra (extension): Reno underneath, exercising the paper's claim
     (Sec. 7) that the parameter guidelines carry to other AIMD CCAs

   Each [make_*] returns the plain CCA; [make_*_instrumented] also
   exposes the controller for telemetry (Fig. 17 / Fig. 18). *)

(* This module is the library's root: re-export the submodules. *)
module Utility = Rlcc.Utility
module Params = Params
module Controller = Controller
module Telemetry = Telemetry
module Ideal = Ideal

type instrumented = { cca : Netsim.Cca.t; controller : Controller.t }

let initial_rate_default = Netsim.Units.mbps_to_bps 2.0

let make_instrumented ?(params = Params.default) ?(initial_rate = initial_rate_default)
    ~name ~classic () =
  let controller =
    Controller.create ~initial_rate ~params ~classic
      ~outcome:(Rlcc.Pretrained.libra_policy ()) ()
  in
  { cca = Controller.as_cca ~name controller; controller }

let make_c_libra_instrumented ?params ?initial_rate () =
  make_instrumented ?params ?initial_rate ~name:"c-libra"
    ~classic:(Some (Classic_cc.Cubic.embedded ())) ()

let make_b_libra_instrumented ?params ?initial_rate () =
  make_instrumented ?params ?initial_rate ~name:"b-libra"
    ~classic:(Some (Classic_cc.Bbr.embedded ())) ()

let make_clean_slate_instrumented ?params ?initial_rate () =
  make_instrumented ?params ?initial_rate ~name:"cl-libra" ~classic:None ()

let make_r_libra_instrumented ?params ?initial_rate () =
  make_instrumented ?params ?initial_rate ~name:"r-libra"
    ~classic:(Some (Classic_cc.Reno.embedded ())) ()

let make_c_libra ?params ?initial_rate () =
  (make_c_libra_instrumented ?params ?initial_rate ()).cca

let make_b_libra ?params ?initial_rate () =
  (make_b_libra_instrumented ?params ?initial_rate ()).cca

let make_clean_slate ?params ?initial_rate () =
  (make_clean_slate_instrumented ?params ?initial_rate ()).cca

let make_r_libra ?params ?initial_rate () =
  (make_r_libra_instrumented ?params ?initial_rate ()).cca

(* Arena interop: a bank of independent Libra long flows in a
   Flow_table (the population experiment's elephants). Each flow gets
   its own controller with a distinct seed offset so the DRL agents
   draw independent streams, and the handles stay paired with their
   controllers for telemetry. Controllers are closure-based, so these
   flows ride the arena's [Generic] compatibility path -- the point of
   the bank is mixing a few stateful long flows into a table that
   carries thousands of allocation-free short flows. *)
let arena_bank ?(params = Params.default) ?initial_rate
    ?(make = make_c_libra_instrumented) ~table ~return_delay ~start_at ~stop_at
    n =
  List.init n (fun i ->
      let params = { params with Params.seed = params.Params.seed + i } in
      let inst = make ~params ?initial_rate () in
      let h =
        Netsim.Flow_table.add_flow table
          ~cca:(Netsim.Flow_table.Generic inst.cca) ~return_delay ~start_at
          ~stop_at ()
      in
      Netsim.Flow_table.start table h;
      (h, inst.controller))

(* Convenience: C-Libra with one of the Fig. 11 preference presets. *)
let with_preference ~preset ?(base = Params.default)
    (make : ?params:Params.t -> ?initial_rate:float -> unit -> Netsim.Cca.t) =
  let utility =
    match List.assoc_opt preset Utility.presets with
    | Some u -> u
    | None -> invalid_arg (Printf.sprintf "Libra.with_preference: unknown preset %s" preset)
  in
  make ~params:{ base with Params.utility } ()
