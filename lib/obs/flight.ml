(* The always-on crash flight recorder; it shares the event sink with the
   tracer, in [Trace]. *)

include Trace.Flight
