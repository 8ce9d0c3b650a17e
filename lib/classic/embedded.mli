(** Classic CCAs as Libra subroutines (paper Sec. 4.3): the plain CCA
    callback bundle plus rate get/set and the CCA's preferred
    exploration-stage length (1 RTT for window CCAs, which
    {!Window.embedded} builds; 3 for BBR's probing cycle). *)

type t = {
  cca : Netsim.Cca.t;
  get_rate : now:float -> float;  (** current preferred rate, bytes/s *)
  set_rate : now:float -> float -> unit;  (** reset the operating point *)
  exploration_rtts : float;
}
