(* A data packet traversing the network. The sender's per-packet
   bookkeeping (send time, delivered bytes at send) lives in the flow
   table's outstanding ring, keyed by [seq].

   [corrupt] marks a payload damaged in transit (set by the fault
   injector): the packet still consumes link capacity, but the receiver's
   checksum discards it, so no ACK comes back and the sender sees it as
   a loss. *)

type t = { flow : int; seq : int; size : int; corrupt : bool }
