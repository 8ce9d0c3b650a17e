(* Domain pool: a mutex-protected FIFO of thunks served by [size - 1]
   worker domains, plus whoever is waiting on a batch.

   The waiting caller helps execute queued tasks instead of blocking,
   which makes nested [map] calls safe: every level of the experiment
   harness (registry -> experiment -> scenario -> seed repetition) can
   fan out on the same pool without reserving a domain per level. *)

type task = unit -> unit

type t = {
  size : int;
  queue : task Queue.t;
  lock : Mutex.t;
  work_ready : Condition.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

let push_task t task =
  Mutex.lock t.lock;
  if t.stopping then begin
    Mutex.unlock t.lock;
    invalid_arg "Exec.Pool: pool is shut down"
  end;
  Queue.push task t.queue;
  Condition.signal t.work_ready;
  Mutex.unlock t.lock

let try_pop t =
  Mutex.lock t.lock;
  let task = Queue.take_opt t.queue in
  Mutex.unlock t.lock;
  task

(* True only while a task popped directly by the worker loop runs: an
   injected domain kill may only take down a worker in that frame. A
   caller — or a worker *helping* a nested batch from inside a task
   body — must survive to collect its batch, so killed tasks it pops
   are re-queued without raising (see [map_impl] and
   [help_until_done]). *)
let kill_ok = Domain.DLS.new_key (fun () -> false)

(* Worker loop: run queued tasks until shutdown. A task that raises
   [Chaos.Plane.Domain_killed] has already re-queued itself (see
   [map_impl]); this worker is the simulated casualty — the pool heals
   by spawning a replacement before the corpse exits. *)
let rec worker t () =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.work_ready t.lock
    done;
    let task = Queue.take_opt t.queue in
    Mutex.unlock t.lock;
    match task with
    | Some task -> (
      Domain.DLS.set kill_ok true;
      match task () with
      | () -> loop ()
      | exception Chaos.Plane.Domain_killed _ -> respawn t)
    | None -> if not t.stopping then loop ()
  in
  loop ()

and respawn t =
  Mutex.lock t.lock;
  if not t.stopping then begin
    Chaos.Plane.note_respawn ();
    t.workers <- Domain.spawn (worker t) :: t.workers
  end;
  Mutex.unlock t.lock

let create ~size () =
  let size = max 1 size in
  let t =
    {
      size;
      queue = Queue.create ();
      lock = Mutex.create ();
      work_ready = Condition.create ();
      stopping = false;
      workers = [];
    }
  in
  if size > 1 then
    t.workers <- List.init (size - 1) (fun _ -> Domain.spawn (worker t));
  t

let sequential = create ~size:1 ()

let size t = t.size

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.lock;
  (* A dying worker spawns its replacement under [t.lock], so the list
     may still grow until every domain has observed [stopping]: drain
     until it stays empty. *)
  let rec drain () =
    Mutex.lock t.lock;
    let ws = t.workers in
    t.workers <- [];
    Mutex.unlock t.lock;
    match ws with
    | [] -> ()
    | ws ->
      List.iter Domain.join ws;
      drain ()
  in
  drain ()

(* A batch: one [map] call's tasks, with its own completion latch. *)
type batch = {
  b_lock : Mutex.t;
  b_done : Condition.t;
  mutable left : int;
}

let batch_task_finished batch =
  Mutex.lock batch.b_lock;
  batch.left <- batch.left - 1;
  if batch.left = 0 then Condition.broadcast batch.b_done;
  Mutex.unlock batch.b_lock

(* Wait for [batch] while helping: drain any queued task (ours or a
   sibling batch's); only sleep once the queue is empty, i.e. all of our
   tasks are at worst in flight on other domains. *)
let rec help_until_done t batch =
  let finished =
    Mutex.lock batch.b_lock;
    let f = batch.left = 0 in
    Mutex.unlock batch.b_lock;
    f
  in
  if not finished then
    match try_pop t with
    | Some task ->
      (* Helping frames must not die to an injected kill — this domain
         still owes its own batch a collection. *)
      Domain.DLS.set kill_ok false;
      task ();
      help_until_done t batch
    | None ->
      Mutex.lock batch.b_lock;
      while batch.left > 0 do
        Condition.wait batch.b_done batch.b_lock
      done;
      Mutex.unlock batch.b_lock

(* Kill fates are decided at task *start*, before the body runs, so a
   resurrected task cannot have half-emitted traces or half-charged
   budgets: every attempt is all-or-nothing and the surviving attempt's
   output is identical to an unkilled run's. Sequence numbers are
   assigned at fan-out time in submission order, so which tasks die is
   a function of the chaos seed alone — not of domain scheduling.

   Ambient state ([Obs.Ambient]): an inline task runs in its caller's
   frame; a parallel one under a child frame forked at submission, on
   whichever domain pops it. The children are joined in submission
   order up to and including the first task that raised (the inline
   branch never runs the rest), leaving the caller's state as inline. *)
let map_impl t f arr =
  let n = Array.length arr in
  let kills = Chaos.Plane.kills_scheduled () in
  if t.size <= 1 || n <= 1 then
    (* Inline branch: no domain to kill, but the same fates are drawn
       and the same resurrections counted, so a --domains 1 run
       exercises (and reports) the identical schedule. *)
    Array.map
      (fun x ->
        if kills then begin
          let seq = Chaos.Plane.task_seq () in
          let attempt = ref 1 in
          while Chaos.Plane.kill_task ~seq ~attempt:!attempt do
            Chaos.Plane.note_resurrection ();
            incr attempt
          done
        end;
        Obs.Ambient.inline (fun () -> f x))
      arr
  else begin
    let results : ('b, exn) result option array = Array.make n None in
    let batch =
      { b_lock = Mutex.create (); b_done = Condition.create (); left = n }
    in
    let frames = Array.init n (fun _ -> Obs.Ambient.fork ()) in
    for i = 0 to n - 1 do
      let seq = if kills then Chaos.Plane.task_seq () else 0 in
      let rec task attempt () =
        if kills && Chaos.Plane.kill_task ~seq ~attempt then begin
          (* The domain running this task dies before the body starts:
             resurrect the task on a surviving domain, then let the
             worker loop take the casualty down (the caller, helping,
             never dies — it must outlive the batch). *)
          Chaos.Plane.note_resurrection ();
          push_task t (task (attempt + 1));
          if Domain.DLS.get kill_ok then
            raise (Chaos.Plane.Domain_killed { seq; attempt })
        end
        else begin
          let r =
            try Ok (Obs.Ambient.run frames.(i) (fun () -> f arr.(i))) with e -> Error e
          in
          results.(i) <- Some r;
          batch_task_finished batch
        end
      in
      push_task t (task 1)
    done;
    help_until_done t batch;
    Array.mapi
      (fun i r ->
        Obs.Ambient.join frames.(i);
        match r with Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
      results
  end

let span_map = Obs.Span.probe "pool.map"

(* The span wraps the whole fan-out on the *caller's* context — one
   span per [map] call in both the inline and parallel branches — and
   every task's spans nest under it: inline directly, parallel through
   the join. *)
let map t f arr = Obs.Span.timed span_map (fun () -> map_impl t f arr)

let map_list t f l = Array.to_list (map t f (Array.of_list l))

let map_reduce t ~f ~reduce ~init arr =
  Array.fold_left reduce init (map t f arr)

(* ------------------------------------------------------------------ *)
(* The shared default pool. *)

let env_size () =
  match Sys.getenv_opt "LIBRA_DOMAINS" with
  | Some s -> (match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None)
  | None -> None

let requested_size = ref None

let default_size () =
  match !requested_size with
  | Some n -> n
  | None ->
    (match env_size () with
    | Some n -> n
    | None -> Domain.recommended_domain_count ())

let default_pool = ref None

let default () =
  match !default_pool with
  | Some t when t.size = default_size () && not t.stopping -> t
  | existing ->
    Option.iter shutdown existing;
    let t = create ~size:(default_size ()) () in
    default_pool := Some t;
    t

let set_default_size n =
  if n < 1 then invalid_arg "Exec.Pool.set_default_size";
  requested_size := Some n

(* Workers still parked at exit would keep the process alive. *)
let () = at_exit (fun () -> Option.iter shutdown !default_pool)
