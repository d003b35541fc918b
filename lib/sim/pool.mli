(** Fixed-size domain pool for deterministic fan-out.

    A pool owns [jobs - 1] worker domains (the submitting domain doubles
    as worker 0) and executes batches of indexed tasks over them.  The
    design premise — shared with {!Sweep} — is that parallelism must be
    invisible in the output: tasks are identified by their index, every
    task writes only its own pre-sized result slot, and nothing a task
    computes may depend on which worker ran it or in what order.  Under
    that discipline [map] at [jobs = 8] is bit-identical to [jobs = 1].

    Hand-rolled over [Domain] / [Mutex] / [Condition] from the stdlib; no
    external dependencies. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains that sleep until a
    batch is submitted.  [jobs] is clamped to at least 1; [jobs = 1]
    creates no domains and all maps run inline. *)

val jobs : t -> int
(** The worker count the pool was created with (after clamping). *)

val map : t -> (int -> 'a) -> int -> ('a, exn * Printexc.raw_backtrace) result array
(** [map pool f total] evaluates [f i] for every [i] in [0 .. total - 1]
    across the pool's workers and returns the results in index order.  A
    task that raises has its exception captured in its own slot together
    with the backtrace from the raise site (captured on the worker
    domain, so re-raising with [Printexc.raise_with_backtrace] on the
    submitting domain points at the task, not the join); the remaining
    tasks still run.  Tasks must not depend on execution order.  Raises
    [Invalid_argument] when called from inside a running task (nested
    batches would deadlock a fixed-size pool), or after {!shutdown}. *)

type 'w locals
(** Per-worker mutable state bound to one pool: one ['w] slot per
    worker, each created lazily on that worker's first task. *)

val locals : t -> (unit -> 'w) -> 'w locals
(** [locals pool make] allocates the slots; nothing is built until a
    task needs it.  A slot's value persists across every {!map_local}
    that passes this handle, for the lifetime of the pool, and is only
    ever touched by its own worker, so it needs no locking. *)

val map_local :
  t -> 'w locals -> ('w -> int -> 'a) -> int -> ('a, exn * Printexc.raw_backtrace) result array
(** [map_local pool locals f total] is {!map} with per-worker state: a
    task run by worker [w] gets [w]'s value from [locals], building it
    with the [make] thunk on [w]'s first task.  This is the cache hook.
    Determinism caveat: [f] must produce the same result whether or not
    the local state is warm (caches yes, accumulators no).  Raises
    [Invalid_argument] when [locals] belongs to another pool. *)

val shutdown : t -> unit
(** Joins all worker domains.  Idempotent.  Subsequent maps raise. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, also on exception. *)

val default_jobs : unit -> int
(** The [ORACLE_SIZE_JOBS] environment variable (clamped to ≥ 1) when
    set and numeric; otherwise [Domain.recommended_domain_count ()]. *)
