(** The ambient context: per-task state reached without plumbing (trace
    sink and flight ring, metrics registry, span lane, rollup, invariant
    checker, report sink, execution budget), one typed {!slot} each: a
    domain-local cell plus what a pool task starts from and how it folds
    back into its caller. [Exec.Pool.map] {!fork}s the caller's frame at
    submission, {!run}s each task under its child frame on whichever
    domain executes it, and {!join}s the children in submission order,
    so a fan-out leaves the same state at any pool size as inline. *)

type 'a fork =
  | Inherit  (** reads the caller's value (read-only state) *)
  | Mask  (** starts with nothing installed *)
  | Split of { fork : 'a -> 'a; join : 'a -> 'a -> unit }
      (** writes into [fork parent]; [join parent child] folds it back *)

type 'a slot

(** Register a slot (at module initialisation). [live] counts the
    domains where it holds a value, for one-load disabled paths;
    {!unobserved} clears [observing] slots. *)
val slot : ?live:int Atomic.t -> ?observing:bool -> 'a fork -> 'a slot

val get : 'a slot -> 'a option

(** [with_ s v f] runs [f] with [s] set to [v], restoring the previous
    value afterwards (also on raise): the only way to change a slot. *)
val with_ : 'a slot -> 'a option -> (unit -> 'b) -> 'b

(** Run with every observing slot (trace and flight, metrics, spans)
    cleared: for work that depends on a cross-run cache (lazy policy
    pretraining), or whichever task missed the cache would record it. *)
val unobserved : (unit -> 'a) -> 'a

(** {1 Pool plumbing} *)

type frame

(** The child of the current frame: fresh [Split] children, empty
    [Mask] slots, the caller's [Inherit] values. *)
val fork : unit -> frame

(** Run under a frame, on any domain. *)
val run : frame -> (unit -> 'a) -> 'a

(** Fold a finished child into the current frame (in submission
    order). *)
val join : frame -> unit

(** Run an inline pool task: the caller's frame, [Mask] slots
    cleared. *)
val inline : (unit -> 'a) -> 'a
