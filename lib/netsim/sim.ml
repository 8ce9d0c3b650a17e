(* Simulation clock and event loop.

   Every event is an int kind plus two int operands (see Event_heap).
   The kind indexes the handler table that components fill with
   [register] -- Flow_table's send/RTO/ACK/start chain, Link's service
   completion, outage retry and deferred admission, Population's
   arrivals -- and [run] calls the handler with the operands, counting
   the dispatch against the kind. The clock lives in a one-cell float
   array so reads and writes stay unboxed; with spans disabled the loop
   allocates nothing per event. *)

type kind = int

type t = {
  heap : Event_heap.t;
  clock : float array;  (* one cell; flat store keeps [now] unboxed *)
  mutable handlers : (int -> int -> unit) array;  (* indexed by kind *)
  mutable dispatched : int array;  (* events run per kind, across all [run] calls *)
}

let create () =
  { heap = Event_heap.create (); clock = [| 0.0 |]; handlers = [||]; dispatched = [||] }

let[@inline] now t = t.clock.(0)

let register t h =
  t.handlers <- Array.append t.handlers [| h |];
  t.dispatched <- Array.append t.dispatched [| 0 |];
  Array.length t.handlers - 1

let[@inline] at t time ~kind ~a ~b =
  assert (time >= t.clock.(0));
  Event_heap.push t.heap ~time ~kind ~a ~b

let[@inline] after t delay ~kind ~a ~b = at t (t.clock.(0) +. delay) ~kind ~a ~b

let[@inline] ticket t = Event_heap.ticket t.heap

let[@inline] at_ticket t time ~ticket ~kind ~a ~b =
  assert (time >= t.clock.(0));
  Event_heap.push_ticket t.heap ~time ~ticket ~kind ~a ~b

let kinds t = Array.length t.handlers

let dispatched t kind = t.dispatched.(kind)

let events t = Array.fold_left ( + ) 0 t.dispatched

let reserve t n = Event_heap.reserve t.heap n

let span_loop = Obs.Span.probe "sim.loop"

let run t ~until =
  let heap = t.heap in
  let rec loop () =
    (* Look before popping: an event past the horizon stays queued for
       a later [run]. *)
    if (not (Event_heap.is_empty heap)) && Event_heap.top_time heap <= until then begin
      (* One dispatched event = one unit of deterministic budget. *)
      Budget.tick ();
      Event_heap.pop_into heap;
      t.clock.(0) <- Event_heap.scratch_time heap;
      let kind = Event_heap.scratch_kind heap in
      if kind < 0 || kind >= Array.length t.handlers then
        invalid_arg
          (Printf.sprintf "Sim: event of kind %d but no handler registered" kind);
      t.dispatched.(kind) <- t.dispatched.(kind) + 1;
      t.handlers.(kind) (Event_heap.scratch_a heap) (Event_heap.scratch_b heap);
      loop ()
    end
  in
  Obs.Span.timed span_loop loop;
  if t.clock.(0) < until then t.clock.(0) <- until
