(* Classic CCAs as Libra subroutines.

   Sec. 4.3 of the paper: Libra's exploration stage hands the classic
   CCA a base sending rate to continue from, lets it evolve per-ACK, and
   reads its decision back. An [t] therefore augments the plain
   {!Netsim.Cca.t} callback bundle with rate get/set and the
   CCA-specific exploration-stage length (1 RTT for the window CCAs,
   built by [Window.embedded]; 3 RTTs for BBR, whose probing cycle needs
   them). *)

type t = {
  cca : Netsim.Cca.t;
  get_rate : now:float -> float;  (* the CCA's current preferred rate, bytes/s *)
  set_rate : now:float -> float -> unit;  (* reset the operating point *)
  exploration_rtts : float;
}
