(* Deterministic execution budgets.

   A budget bounds work in *logical* units — simulator events popped
   from the event heap, RL training steps — never wall clock, so a
   deadline expires at exactly the same point of a run on any machine
   and at any `Exec.Pool` size. [with_budget ?events f] installs a
   countdown cell as an ambient slot for the duration of [f]; ticking
   sites (the sim event loop, the trainer's step loop) call [tick ()],
   which is one atomic load + branch when no budget is installed
   anywhere (the same discipline as [Obs.Trace.on]).

   An optional wall-clock ceiling ([?wall_s]) exists as a CI backstop
   against genuinely hung runs. It is checked coarsely (every 4096
   ticks) and its expiry is inherently nondeterministic — supervisors
   must keep it out of any determinism digest (see
   lib/exec/supervisor.ml).

   Pool tasks start with the budget masked (inline or not), so a budget
   charges only the work its own thunk performs directly — a caller that
   fans out over the pool is not charged for tasks its domain happens to
   "help" with while waiting, which would be scheduling-dependent. *)

exception Exceeded of { spent : int; budget : int }
exception Wall_exceeded of { budget_s : float }

type cell = {
  mutable spent : int;
  budget : int;  (* max_int when only a wall ceiling was requested *)
  wall_deadline : float;  (* absolute Unix time; infinity when unused *)
  wall_s : float;
}

(* Domains holding a budget; the disabled fast path of [tick] tests
   only this. *)
let n_active = Atomic.make 0

let slot = Obs.Ambient.slot ~live:n_active Obs.Ambient.Mask

let charge c =
  c.spent <- c.spent + 1;
  if c.spent > c.budget then raise (Exceeded { spent = c.spent; budget = c.budget });
  if c.wall_deadline < infinity && c.spent land 4095 = 0 then
    if Unix.gettimeofday () > c.wall_deadline then
      raise (Wall_exceeded { budget_s = c.wall_s })

let[@inline] tick () =
  if Atomic.get n_active > 0 then
    match Obs.Ambient.get slot with None -> () | Some c -> charge c

let spent () = Option.map (fun c -> c.spent) (Obs.Ambient.get slot)

let with_budget ?events ?wall_s f =
  if events = None && wall_s = None then f ()
  else
    let wall_s = Option.value wall_s ~default:infinity in
    Obs.Ambient.with_ slot
      (Some
         {
           spent = 0;
           budget = Option.value events ~default:max_int;
           wall_deadline = Unix.gettimeofday () +. wall_s;
           wall_s;
         })
      f
