(** RemyCC-style rule-table controller (see the implementation header
    for the substitution rationale): maps the RTT-ratio memory feature
    to window actions (multiplier, increment) once per RTT. *)

type rule = { rtt_ratio_below : float; multiplier : float; increment : float }

(** The hand-built table, in evaluation order. *)
val table : rule list

(** First matching rule for an RTT ratio. *)
val lookup : float -> rule

val make : unit -> Netsim.Cca.t
