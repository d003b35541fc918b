(** Declarative experiment grids with deterministic parallel execution.

    A sweep is the cross product of (protocol × fault plan × family × n ×
    scheduler × repetition), flattened into a canonically-ordered array of
    {!point}s and executed over a {!Pool}.  Three rules make the output
    independent of the job count:

    - every random stream a task uses is derived from the point's {e grid
      coordinates} via {!derive_seed} — never from submission order,
      worker identity, or wall clock;
    - each task writes only its own pre-sized result slot (enforced by
      {!Pool.map});
    - serialization (JSONL) is a single ordered pass over the result
      array {e after} the join, owned by the submitting domain.

    Per-worker caches ({!Cache}) amortize setup: repeated points that
    share a {!graph_seed} rebuild neither the graph nor (keyed further by
    scheme) its advice — across the whole sweep, every journaled chunk
    included.  Caching is sound precisely because seeds come
    from coordinates: a cache hit returns a value structurally equal to
    what a fresh build would produce. *)

(** {1 Grid points} *)

type point = {
  index : int;  (** position in canonical order *)
  protocol : string;  (** caller-interpreted scheme name, e.g. ["wakeup"] *)
  family : Netgraph.Families.t;
  n : int;
  scheduler : Scheduler.t;
  plan : Fault_plan.t;
  rep : int;  (** repetition counter, [0 .. reps-1] *)
  seed : int;  (** derived from all coordinates; unique per point *)
}

type grid = {
  protocols : string list;
  families : Netgraph.Families.t list;
  ns : int list;
  schedulers : Scheduler.t list;
  plans : Fault_plan.t list;
  reps : int;
  base_seed : int;
}

val points : grid -> point array
(** The cross product in canonical order: protocols (outermost), then
    plans, families, sizes, schedulers, repetitions (innermost).  The
    order is part of the output contract — emission replays it. *)

val derive_seed : int -> string list -> int
(** [derive_seed base tokens] hashes [base] and the token list with a
    fixed FNV-1a-style mix into a non-negative int.  Stable across runs,
    platforms, and job counts; collisions are harmless (seeds only need
    to be deterministic, not unique). *)

val graph_seed : grid -> point -> int
(** Seed for building the point's graph: derived from (base seed, family,
    n, rep) {e only}, so points differing in protocol, scheduler, or plan
    share a graph — which is what lets the per-worker graph and advice
    caches hit across those axes. *)

val point_label : point -> string
(** ["protocol/family/n/scheduler/plan/rep"] — stable row id for logs. *)

(** {1 Grid spec strings} *)

val of_string : string -> (grid, string) result
(** Parse a spec such as
    ["protocols=wakeup,broadcast;families=sparse-random;ns=24,64;scheds=sync,async-fifo;plans=none|drop=0.1,seed=7;reps=2;seed=42"].
    Axes are separated by [;], values by [,] — except plans, whose specs
    contain commas, so plan alternatives are separated by [|].  Omitted
    axes default to: protocols [wakeup,broadcast], families
    [sparse-random], ns [64], scheds [async-fifo], plans [none], reps 1,
    seed 42. *)

val to_string : grid -> string
(** Canonical spec; round-trips through {!of_string}. *)

(** {1 Per-worker caches} *)

module Cache : sig
  type ('k, 'v) t
  (** A plain hash-table cache with hit/miss counters.  Not synchronized:
      one cache belongs to one worker (create it in the [local] thunk of
      {!map}, {!map_journaled} or {!run_journaled}, which builds it on the worker's
      first task and keeps it for every later task of the sweep). *)

  val create : unit -> ('k, 'v) t

  val find : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
  (** [find c k build] returns the cached value for [k], building and
      remembering it on first use. *)

  val hits : ('k, 'v) t -> int

  val misses : ('k, 'v) t -> int
end

(** {1 Execution} *)

val map :
  ?jobs:int -> local:(unit -> 'w) -> f:('w -> int -> 't -> 'a) -> 't array -> ('a, string) result array
(** [map ~local ~f tasks] runs [f worker_state index task] for each task
    across a fresh pool of [jobs] workers (default {!Pool.default_jobs})
    and returns results in task order.  A raising task yields [Error] in
    its slot — the exception text plus the raise-site backtrace when the
    runtime recorded one; the rest complete. *)

(** {1 Journaled execution}

    The crash-safe variant of {!map}, layered over {!Journal}.
    Execution proceeds in fixed-size chunks of the canonical task order:
    each chunk runs over the pool, joins, and is appended to the journal
    in task order from the submitting domain — so the journal gains
    durability incrementally while its bytes stay deterministic at every
    job count.  Tasks whose key the journal already holds are never
    re-executed; their entries come from the replay index.  Emission is
    still one ordered pass at the end, over replayed and fresh entries
    alike, which is why a killed-and-resumed sweep produces output
    byte-identical to an uninterrupted one (the E24 experiment and the
    CI kill-resume gate pin this). *)

type journal_stats = {
  total : int;  (** tasks in the sweep *)
  executed : int;  (** tasks actually run (and journaled) this time *)
  skipped : int;  (** tasks satisfied from the journal's replay index *)
  failed : (int * string) list;
      (** tasks that raised, by index — not journaled, not emitted *)
  recovery : Journal.stats option;
      (** what {!Journal.open_} found on disk; [None] when unjournaled *)
}

val map_journaled_via :
  ?journal:string * Journal.context ->
  ?chunk:int ->
  ?on_append:(int -> unit) ->
  key:('t -> int) ->
  run:(int array -> (Journal.entry, string) result array) ->
  emit:(int -> 't -> Journal.entry -> unit) ->
  't array ->
  (journal_stats, string) result
(** The executor-agnostic core behind {!map_journaled}.  [run idx] must
    evaluate the tasks at indices [idx] — a slice of the canonical
    to-do order, at most [chunk] long (default 64, whatever the job
    count) — and return an index-aligned
    array of entries or failure strings; how it does so (domain pool,
    subprocess workers via {!Dispatch}, inline) is its business, as long
    as each entry is a pure function of its task.  Everything that makes
    the journal and the emitted rows deterministic lives here: key
    validation, replay-index skipping, chunked canonical-order appends
    from the calling domain, and the single ordered emission pass.
    Raises [Invalid_argument] when [run] returns an array of the wrong
    length. *)

val map_journaled :
  ?jobs:int ->
  ?journal:string * Journal.context ->
  ?chunk:int ->
  ?on_append:(int -> unit) ->
  key:('t -> int) ->
  local:(unit -> 'w) ->
  f:('w -> int -> 't -> Journal.entry) ->
  emit:(int -> 't -> Journal.entry -> unit) ->
  't array ->
  (journal_stats, string) result
(** [map_journaled ~key ~local ~f ~emit tasks] is {!map} with journal
    persistence.  [key] must map each task to a distinct non-negative
    int that is stable across runs ({!derive_seed} over the task's
    coordinate tokens); duplicate or negative keys raise
    [Invalid_argument] before anything executes.  With [?journal:(path,
    ctx)] the journal at [path] is opened (created fresh, or replayed
    and torn-tail-truncated — see {!Journal.open_}; a context mismatch
    is an [Error] and nothing runs).  Every chunk runs on the same pool
    and the same per-worker [local] values, so [local ()] is called at
    most once per worker for the whole sweep.  After the run, [emit
    index task entry] is called in task order for every completed task.
    [on_append] (testing hook) fires after each record is durable, with
    the cumulative count of records appended by this process — the
    [--crash-after] CLI flag uses it to die deterministically.  Raises
    [Invalid_argument] if [chunk < 1]. *)

val run_journaled :
  ?jobs:int ->
  ?journal:string ->
  ?context:string ->
  ?chunk:int ->
  ?on_append:(int -> unit) ->
  local:(unit -> 'w) ->
  f:('w -> point -> Journal.entry) ->
  emit:(point -> Journal.entry -> unit) ->
  grid ->
  (journal_stats, string) result
(** {!map_journaled} over {!points}, keyed by each point's coordinate
    seed.  The journal context is [{ spec = to_string grid; extra =
    context }] ([context] defaults to [""]); resuming the same path with
    a different grid or extra string is refused. *)
