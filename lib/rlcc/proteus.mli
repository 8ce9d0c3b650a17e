(** PCC Proteus (Meng et al., SIGCOMM 2020) in primary-flow mode:
    Vivace's machinery with a more delay-averse utility. *)

val utility : Utility.params

val make : unit -> Netsim.Cca.t
