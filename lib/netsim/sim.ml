(* Simulation clock and event loop.

   Every event is an int kind plus two int operands (see Event_heap).
   The kind indexes the handler table that components fill with
   [register] -- Flow_table's send/RTO/ACK/start chain, Link's service
   completion, outage retry and deferred admission, Population's
   arrivals -- and [run] calls the handler with the operands. The clock
   lives in a one-cell float array so reads and writes stay unboxed;
   with spans disabled the loop allocates nothing per event. *)

type kind = int

type t = {
  heap : Event_heap.t;
  clock : float array;  (* one cell; flat store keeps [now] unboxed *)
  mutable stopped : bool;
  mutable handlers : (int -> int -> unit) array;  (* indexed by kind *)
  mutable events : int;  (* events executed across all [run] calls *)
}

let create () =
  {
    heap = Event_heap.create ();
    clock = [| 0.0 |];
    stopped = false;
    handlers = [||];
    events = 0;
  }

let[@inline] now t = t.clock.(0)

let register t h =
  t.handlers <- Array.append t.handlers [| h |];
  Array.length t.handlers - 1

let[@inline] at t time ~kind ~a ~b =
  assert (time >= t.clock.(0));
  Event_heap.push t.heap ~time ~kind ~a ~b

let[@inline] after t delay ~kind ~a ~b = at t (t.clock.(0) +. delay) ~kind ~a ~b

let events t = t.events

let reserve t n = Event_heap.reserve t.heap n

let stop t = t.stopped <- true

let span_loop = Obs.Span.probe "sim.loop"

let run t ~until =
  let rec loop () =
    if t.stopped || Event_heap.is_empty t.heap then ()
    else begin
      Event_heap.pop_into t.heap;
      let time = Event_heap.scratch_time t.heap in
      if time > until then
        (* Put the horizon where we stopped looking. *)
        t.clock.(0) <- until
      else begin
        (* One popped event = one unit of deterministic budget. *)
        Budget.tick ();
        t.events <- t.events + 1;
        t.clock.(0) <- time;
        let kind = Event_heap.scratch_kind t.heap in
        if kind < 0 || kind >= Array.length t.handlers then
          invalid_arg
            (Printf.sprintf "Sim: event of kind %d but no handler registered" kind);
        t.handlers.(kind)
          (Event_heap.scratch_a t.heap)
          (Event_heap.scratch_b t.heap);
        loop ()
      end
    end
  in
  Obs.Span.timed span_loop loop;
  if t.clock.(0) < until then t.clock.(0) <- until
