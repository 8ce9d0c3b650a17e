(* Simulation clock and event loop.

   Events come in two shapes (see Event_heap): closure events, the
   historical cold-path API, and coded events -- an int kind plus two
   int operands -- dispatched through the single match in [run] to the
   handler installed with [set_handler] (the flow engine, Flow_table,
   installs one per simulation). The clock lives in a one-cell float
   array so reads and writes stay unboxed; with spans disabled the loop
   allocates nothing per event. *)

type handler = int -> int -> int -> unit

type t = {
  heap : Event_heap.t;
  clock : float array;  (* one cell; flat store keeps [now] unboxed *)
  mutable stopped : bool;
  mutable handler : handler;
  mutable events : int;  (* events executed across all [run] calls *)
}

let no_handler kind _ _ =
  invalid_arg
    (Printf.sprintf "Sim: coded event (kind %d) but no handler installed" kind)

let create () =
  {
    heap = Event_heap.create ();
    clock = [| 0.0 |];
    stopped = false;
    handler = no_handler;
    events = 0;
  }

let[@inline] now t = t.clock.(0)

let[@inline] at t time action =
  assert (time >= t.clock.(0));
  Event_heap.push t.heap ~time action

let[@inline] after t delay action = at t (t.clock.(0) +. delay) action

let[@inline] at_coded t time ~kind ~a ~b =
  assert (time >= t.clock.(0));
  Event_heap.push_coded t.heap ~time ~kind ~a ~b

let set_handler t h = t.handler <- h

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
        if kind = 0 then (Event_heap.scratch_action t.heap) ()
        else
          t.handler kind
            (Event_heap.scratch_a t.heap)
            (Event_heap.scratch_b t.heap);
        loop ()
      end
    end
  in
  Obs.Span.timed span_loop loop;
  if t.clock.(0) < until then t.clock.(0) <- until
