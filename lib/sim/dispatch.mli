(** The supervisor of a fleet of {!Worker} processes.

    Dispatch spawns local workers from a caller-supplied argv and, when
    given a {!Transport.listener}, accepts remote workers over TCP
    alongside (or instead of) them; it handshakes every peer (announce
    {!Worker.Hello} in — wire version {e and} shared-secret token
    checked before anything is sent back — config out) and schedules
    task-index batches over the survivors.  The failure model is
    crash-stop with reassignment and, for remote peers, bounded rejoin:

    - every worker with an in-flight batch has a heartbeat deadline;
      workers beat before each task, so a worker silent for longer than
      the timeout — hung, wedged, quietly dead, or behind a network
      partition — is declared crashed;
    - EOF, a failed write ([EPIPE]), a wrong wire version, a wrong
      authentication token, or a single undecodable or unparseable
      frame likewise condemn the worker.  An authentication failure is
      detected on the announce hello, so the peer is condemned before
      any config or task frame reaches it;
    - a condemned local worker is SIGKILLed and reaped; a condemned
      remote worker has its connection closed.  Either way the not-yet-
      answered indices of its batch are requeued at the {e front} of
      the work queue with capped exponential backoff
      (≈ 50 ms · 2{^ streak−1}, capped at {!default_backoff_cap}, where the
      streak is the dead worker's count of consecutive condemnations —
      a worker that completed a batch since its last death restarts at
      the base delay, so one early crash never permanently taxes a
      recovered worker);
    - local workers are never respawned, but a condemned remote worker
      may reconnect, re-handshake, and resume pulling tasks as a
      brand-new peer — the accept budget ([expect_remote + max_rejoin]
      connections total) bounds how often, and a per-address token
      bucket ([accept_rate]/[accept_burst]) closes over-limit
      connections before a single byte is read and {e without}
      touching the accept budget;
    - when no workers survive, the dispatch waits at most one grace
      window for a rejoin (none if there is no listener), then degrades:
      the remaining tasks run in-process through [fallback] — a
      dispatch never deadlocks on dead workers or a severed network.

    Scheduling is governed by {!batching}.  [Fixed n] carves every
    batch at [n] indices — bit-compatible with the classic fixed-batch
    scheduler.  [Auto] sizes each worker's next batch from an EWMA of
    its observed task throughput (see {!Ewma}), clamped to
    [[min_batch, max_batch]], and adds a tail-end speculation phase:
    when the queue is dry but batches remain in flight, an idle worker
    re-executes the slowest busy worker's outstanding indices (at most
    one copy per batch).

    Determinism: task results are pure functions of their indices and
    the first result per index wins (a reassigned or speculated batch's
    duplicate results are byte-identical), so worker count, local/
    remote mix, batch sizing mode, chaos schedule, partitions, rejoins,
    and timing are invisible in what {!run} returns.  Feeding {!run} to
    {!Sweep.map_journaled_via} therefore yields byte-identical journals
    and JSONL at any [--workers]/[--listen]/[--batch] configuration —
    the CI chaos and straggler gates pin this. *)

(** Task-throughput estimation: an exponentially weighted moving
    average of an event rate observed at irregular intervals,

    {[ rate <- (1 - e^(-dt/tau)) * (k/dt) + e^(-dt/tau) * rate ]}

    where [k] events arrived [dt] seconds after the previous
    observation.  Pure bookkeeping over caller-supplied timestamps, so
    tests can drive it with synthetic clocks. *)
module Ewma : sig
  type t

  val default_tau : float
  (** [3.0] seconds — the averaging time constant. *)

  val create : ?tau:float -> unit -> t
  (** A fresh estimator with zero rate.  The first {!observe} only
      stamps the epoch.  Raises [Invalid_argument] on [tau <= 0]. *)

  val observe : t -> now:float -> tasks:int -> unit
  (** Fold [tasks] events at timestamp [now] into the estimate.
      Events observed with a non-advancing clock ([dt <= 0], including
      the epoch-stamping first call) are held and credited to the next
      real interval — counts are conserved, never dropped.  Raises
      [Invalid_argument] on negative [tasks]. *)

  val rate : t -> float
  (** Current estimate, events per second ([0.] until two observations
      at distinct timestamps have been folded). *)

  val total : t -> int
  (** Total events observed, including pending ones. *)
end

(** How batches are sized.  [Fixed n]: every batch holds [n] indices.
    [Auto]: per-worker adaptive sizing within [[min_batch, max_batch]]
    plus tail-end speculation. *)
type batching = Fixed of int | Auto of { min_batch : int; max_batch : int }

type t

type stats = {
  mutable spawned : int;  (** local workers successfully spawned *)
  mutable spawn_failures : int;  (** spawn attempts that failed outright *)
  mutable connected : int;  (** remote connections accepted (rejoins included) *)
  mutable auth_failures : int;  (** peers condemned for a wrong or missing token *)
  mutable rate_limited : int;
      (** connections closed by the per-address token bucket before any
          byte was read (the accept budget is untouched) *)
  mutable died : int;  (** workers condemned (crash, hang, bad frame, EOF, auth) *)
  mutable reassigned : int;  (** batches requeued after a death *)
  mutable inline_tasks : int;  (** tasks executed in-process via [fallback] *)
}

(** Per-worker-id scheduling account, persistent across remote rejoins
    (keyed by announced worker id, not connection). *)
type worker_stat = {
  worker : int;  (** worker id *)
  tasks : int;  (** Result frames received from this id *)
  wins : int;  (** results that were first for their index *)
  rate : float;  (** EWMA task throughput, tasks/second *)
  batches : int;  (** batches assigned *)
  speculative : int;  (** of which speculative copies *)
  spec_wins : int;  (** wins delivered by a speculative copy *)
  reported : int;  (** latest heartbeat completed-task counter *)
}

val default_batch : int
(** [16] — task indices per {!Worker.Task_batch} frame under the
    default [Fixed] batching. *)

val default_min_batch : int
(** [1] — default lower clamp for [Auto] batching ([--batch-min]). *)

val default_max_batch : int
(** [64] — default upper clamp for [Auto] batching ([--batch-max]). *)

val auto_horizon : float
(** [0.25] seconds — how much work, at the worker's estimated rate,
    one adaptive batch targets. *)

val batch_for : batching -> rate:float -> int
(** The batch size a worker with EWMA throughput [rate] is handed:
    [n] under [Fixed n]; [clamp min_batch max_batch (ceil (rate *
    auto_horizon))] under [Auto], with [min_batch] as the probe size
    while no estimate exists ([rate <= 0]). *)

val default_heartbeat_timeout : float
(** [10.] seconds.  The deadline bounds per-task compute time plus
    scheduling noise: a worker beats before each task, so the timeout
    must exceed the slowest single task, not the whole batch. *)

val default_backoff_cap : float
(** [1.] second — the ceiling on reassignment backoff. *)

val backoff_delay : base:float -> cap:float -> attempt:int -> float
(** [min cap (base * 2^(attempt-1))], and [0.] for [attempt < 1] — the
    reassignment release delay after a worker's [attempt]-th
    consecutive condemnation. *)

val default_max_rejoin : int
(** [16] — remote reconnections accepted beyond the first
    [expect_remote]. *)

val default_accept_rate : float
(** [4.0] — token-bucket refill, accepted connections per second per
    peer address. *)

val default_accept_burst : int
(** [32] — token-bucket capacity per peer address.  Generous enough
    that a full fleet plus its entire bounded-rejoin budget connecting
    from one address never trips the limiter; a tight reconnect loop
    does. *)

val create :
  workers:int ->
  ?batching:batching ->
  ?heartbeat_timeout:float ->
  ?token:string ->
  ?listener:Transport.listener ->
  ?expect_remote:int ->
  ?max_rejoin:int ->
  ?accept_rate:float ->
  ?accept_burst:int ->
  ?join_grace:float ->
  ?stderr_dir:string ->
  ?log:(string -> unit) ->
  command:(id:int -> string array) ->
  context:Journal.context ->
  fallback:(int -> (Journal.entry, string) result) ->
  unit ->
  t
(** [create ~workers ~command ~context ~fallback ()] spawns [workers]
    local subprocesses, worker [id] with argv [command ~id] ([argv.(0)]
    is the executable), stdin/stdout piped to the supervisor and stderr
    either inherited or, with [stderr_dir], redirected to
    [<stderr_dir>/worker-<id>.log].  With [listener] (see
    {!Transport.listen}) the dispatch also accepts remote workers:
    [expect_remote] of them are waited for at the handshake barrier
    (for at most [join_grace] seconds, default [3 ×
    heartbeat_timeout], so a missing machine delays but never wedges a
    sweep), and up to [max_rejoin] further connections beyond
    [expect_remote] are accepted over the dispatch's lifetime —
    the bounded-rejoin budget.  Accepts are rate-limited per peer
    address by a token bucket of capacity [accept_burst] refilling at
    [accept_rate] tokens/second; an over-limit connection is closed
    before any byte is read and does not consume accept budget.  Every
    peer must announce with [auth] equal to [token] (default [""]) or
    it is condemned before any frame is sent to it.

    [batching] (default [Fixed default_batch]) selects the scheduling
    mode described above.

    [context] is sent to each authenticated worker as its config — the
    same {!Journal.context} the sweep's journal uses, so worker and
    supervisor provably execute the same grid.  Spawn failures are
    counted, not fatal; check {!live_workers} to fall back to the
    in-process pool when nothing spawned and nothing will connect.
    Ignores [SIGPIPE] process-wide (worker death must surface as
    [EPIPE], not kill the supervisor).  [log] receives one line per
    lifecycle event.  Raises [Invalid_argument] on [workers < 0], a
    [Fixed] batch < 1, [Auto] with [min_batch < 1] or [max_batch <
    min_batch], non-positive timeouts, backoff cap, or accept rate, an
    accept burst < 1, a negative remote expectation or rejoin budget,
    [expect_remote > 0] without a listener, or an unencodable token. *)

val run : t -> int array -> (Journal.entry, string) result array
(** [run t indices] executes the tasks at [indices] across the live
    workers and returns index-aligned results — the shape
    {!Sweep.map_journaled_via} expects of its [run].  Handshakes
    lazily, accepts and re-accepts remote peers throughout, survives
    any number of worker deaths (reassigning as described above), and
    degrades to [fallback] for whatever is left when the last worker
    dies and the rejoin grace passes.  Workers stay alive across
    calls; call once per chunk. *)

val shutdown : t -> unit
(** Send {!Worker.Shutdown} to every live worker; local workers get a
    bounded grace period to exit, then SIGKILL and a reap; remote
    connections are half-closed so the frame flushes ahead of the FIN,
    then closed.  Closes the listener.  Idempotent. *)

val live_workers : t -> int
(** Workers currently alive (spawned or connected, not yet condemned). *)

val stats : t -> stats
(** A snapshot of the lifecycle counters. *)

val worker_stats : t -> worker_stat list
(** Per-worker scheduling accounts, sorted by worker id.  Accounts
    persist across remote rejoins and across {!run} calls. *)
