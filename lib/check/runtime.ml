(* The ambient checker. [with_checker] installs one for the duration of
   a callback; [assert_clean] — called by [Harness.Registry] from inside
   the supervisor's protected thunk — raises [Checker.Violation_error]
   if it recorded any violation, turning it into a structured
   supervised failure. Unchecked runs pay one DLS read per supervised
   entry and nothing per event. Pool tasks inherit the checker
   read-only: it sees a fanned-out task's events at the join, so check
   after the fan-out returns. *)

let slot = Obs.Ambient.slot Obs.Ambient.Inherit
let with_checker c f = Obs.Ambient.with_ slot (Some c) f

let assert_clean () =
  Option.iter Checker.raise_if_violated (Obs.Ambient.get slot)
