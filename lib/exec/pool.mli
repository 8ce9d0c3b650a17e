(** Fixed-size domain pool for fanning independent, seed-deterministic
    work units (simulator runs, training episodes, whole experiments)
    across cores.

    Design constraints, in order:

    - {b Determinism}: [map] and [map_reduce] return results in input
      order, so any fold over them sees the same sequence whether the
      pool has one domain or many. Tasks must be pure up to their
      explicit seed; under that contract parallel results are identical
      (not merely statistically similar) to sequential ones.
    - {b No nested-wait deadlock}: a caller blocked on its batch helps
      drain the shared queue, so pool users may freely call [map] from
      inside tasks (experiment -> scenario -> seed repetition).
    - {b Simplicity}: one mutex-protected FIFO queue, no work stealing.

    Pool size 1 (or [sequential]) bypasses the queue entirely and runs
    inline — the escape hatch tests use to compare against parallel
    execution. *)

type t

(** [create ~size ()] makes a pool of [size] total domains: the caller
    participates while waiting, so [size - 1] worker domains are
    spawned. [size <= 1] spawns nothing and executes inline. *)
val create : size:int -> unit -> t

(** A pool of size 1: always executes inline, in order. *)
val sequential : t

val size : t -> int

(** Signal workers to finish and join them. Idempotent. Executing
    [map] on a shut-down pool raises [Invalid_argument]. *)
val shutdown : t -> unit

(** [map pool f arr] is [Array.map f arr] with the applications spread
    over the pool's domains; the result keeps input order. The first
    task exception (by input index) is re-raised in the caller. Tasks
    see and leave the caller's ambient state ([Obs.Ambient]) as if they
    had run inline, in input order, up to the raising task. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

(** [map_list] is [map] over lists, preserving order. *)
val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

(** [map_reduce pool ~f ~reduce ~init arr] folds [reduce] over the
    mapped results {b in input order} (left fold), which keeps
    floating-point reductions bit-identical to a sequential run. *)
val map_reduce : t -> f:('a -> 'b) -> reduce:('c -> 'b -> 'c) -> init:'c -> 'a array -> 'c

(** Number of domains the default pool will use: the [LIBRA_DOMAINS]
    environment variable if set to a positive integer, else
    [Domain.recommended_domain_count ()]. *)
val default_size : unit -> int

(** Override the default pool size (e.g. from a [--domains] CLI flag).
    If the default pool already exists with a different size it is shut
    down and recreated on next use. *)
val set_default_size : int -> unit

(** The shared lazily-created pool sized by [default_size] /
    [set_default_size]. Shut down automatically at exit. *)
val default : unit -> t
