(* PCC Proteus (Meng et al., SIGCOMM 2020) in its primary-flow mode.

   Proteus runs Vivace's online-learning machinery with a utility that
   weighs latency deviation more aggressively, which is why the paper's
   Fig. 1 shows it trading link utilization for delay in LTE scenarios.
   (The scavenger mode of Proteus is out of the paper's evaluation
   scope.) *)

let utility = { Utility.default with beta = 1800.0 }

let make () =
  Vivace.as_cca ~name:"proteus" (Vivace.create ~u:utility ~eps:0.075 ())
