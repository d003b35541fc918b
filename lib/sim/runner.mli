(** Executes a scheme assignment over a network and accounts for every
    message, reproducing the paper's cost model: message complexity is the
    total number of messages produced by the scheme.

    The runner is also the telemetry source of the whole stack: every
    observable fact of a run is emitted as a typed {!Obs.Event.t} into the
    sinks passed via [?sinks], and a run's statistics are the
    {!Obs.Counting.summary} of that stream (the runner folds its own copy,
    so attaching an external counting sink reproduces [stats] exactly).
    The field-by-field metrics contract lives in [DESIGN.md] §"Telemetry:
    the metrics contract". *)

type result = {
  stats : Obs.Counting.summary;
      (** the {!Obs.Counting} fold of the run's stream: [sent] is the
          paper's message complexity; [rounds] counts rounds under
          [Synchronous] and steps otherwise; [causal_depth], the longest
          chain of causally dependent deliveries, is the asynchronous
          time complexity and equals [rounds] under [Synchronous] *)
  informed : bool array;  (** per node: source, or reached by an informed sender *)
  all_informed : bool;  (** the broadcast/wakeup success criterion *)
  quiescent : bool;  (** no in-flight messages remained (no cutoff hit) *)
  per_node_sent : int array;  (** transmissions per node (load profile) *)
}

type scratch
(** What one run may hand to the next on the same domain: the recorder
    a run appends its stream to, and the engine buffers — the scheduler
    queue's ring arrays and the synchronous round's stash — a run
    reuses instead of allocating and regrowing them from 256 slots.  A
    run grows the buffers in place, so a scratch keeps the largest run's.
    Not synchronized: one run at a time may use a scratch (a run nested
    inside another, from a sink, needs its own). *)

val scratch : unit -> scratch
(** An empty recorder and fresh 256-slot buffers. *)

val recorder : scratch -> Obs.Recorder.t
(** The recorder runs given this scratch append to.  The runner never
    clears it: the caller does, between runs. *)

val run :
  ?scheduler:Scheduler.t ->
  ?max_messages:int ->
  ?sinks:Obs.Sink.t list ->
  ?faults:Fault_plan.t ->
  ?retry:int ->
  ?scratch:scratch ->
  advice:(int -> Bitstring.Bitbuf.t) ->
  Netgraph.Graph.t ->
  source:int ->
  Scheme.factory ->
  result
(** [run ~advice g ~source factory] instantiates [factory] at every node
    with its advice/status/label/degree, lets the source (and, for
    broadcast schemes, everyone) transmit, and drives deliveries under the
    scheduler (default [Async_fifo]) until quiescence or [max_messages]
    sends (default {!default_max_messages}).

    A node becomes {e informed} when it is the source or when it receives a
    message sent by an informed node (the source message can always ride
    along, as in the paper).  [all_informed] is the broadcast/wakeup
    success criterion.

    [sinks] (default [[]]) receive the telemetry stream, in emission
    order: one [Advice_read] per node and the source's [Wake] (round 0),
    then a [Send] per message — dropped messages included — and, per
    delivery, a [Deliver] followed by a [Wake] if the receiver becomes
    informed.  The runner never closes the given sinks; the caller does,
    after [run] returns.  With no sinks the runner takes its
    allocation-free path: messages ride a struct-of-arrays ring buffer,
    delays and retransmit timers a round-indexed timer wheel, and the
    counters advance through {!Obs.Counting}'s [note_*] mutators, so a
    steady-state round allocates nothing beyond the payloads the scheme
    itself builds.  Observing is never a semantics choice: every field
    of [result] is bit-identical with or without sinks (the scale tests
    assert it across fault plans, schedulers and retry budgets).
    [DESIGN.md] §"Performance model" has the inventory;
    [dune build @perf] tracks the numbers.

    [scratch] (default: none) makes the run record and reuse buffers.
    Its stream — the one [sinks] receive, in the same order — is
    appended to [recorder scratch]: with no sinks the run stays on its
    [note_*] path and appends the [Send], [Deliver], [Wake] and
    [Advice_read] records as packed ints straight from the fields it
    holds (the rarer kinds are built and pushed), and with sinks each
    event it builds is pushed there too.  The run takes its ring and
    round-stash arrays from the scratch and leaves them there, grown.
    A run that records is not {!order_free}: its deliveries are visited
    in batch order.  A run with no [scratch] records nothing and
    allocates its buffers afresh.  Every field of [result] is the same
    with or without a scratch.

    [retry] (default [0]: recovery off) arms the ack/retransmit channel:
    when a copy of a message is destroyed in flight (plan drop), the
    sender's per-message timer fires after an exponential
    backoff (1, 2, 4, … scheduler steps per attempt) and a fresh copy is
    re-enqueued — facing the fault channels again — at most
    [retry] times per sequence number.  Each re-enqueue is a typed
    [Recover (Msg_retransmitted attempt)] event carrying the original
    [seq]; retransmissions are never [Send] events and never count
    against the paper's message complexity.  A receiver that
    crash-stopped (or started dead) is detectably failed, so the channel
    consumes a single retry to deliver {!Message.timeout} back to the
    sender on the port the message left through — the sender's timer
    firing for good — which hardened schemes answer by re-flooding
    around the failure ({!Message.reflood}) and plain schemes ignore.
    All of it derives from the same seeds, so runs replay
    bit-identically.  Raises [Invalid_argument] if [retry < 0].

    [faults] (default {!Fault_plan.none}) turns the run adversarial: the
    message- and node-level faults of the plan are injected between
    [Send] and delivery, each recorded as a typed {!Obs.Event.Fault}
    event in stream order.  Semantics, per channel:
    - {e drop}: the send is destroyed ([Fault Msg_dropped], no push);
    - {e duplicate}: a second copy is enqueued ([Fault Msg_duplicated])
      — the extra copy produces its own [Deliver] but no extra [Send],
      since the scheme did not produce it;
    - {e delay}: the message sits out 1..max scheduler steps
      ([Fault (Msg_delayed k)]) before rejoining the scheduler's order;
    - {e reorder}: pushes are staged and every k-th flushes the burst in
      reversed arrival order ([Fault (Msg_reordered k)]); a partial
      burst is released when the queue drains;
    - {e crash-stop}: at its step the node stops sending and receiving
      ([Fault (Crashed v)] once); deliveries to it become
      [Fault Msg_dropped];
    - {e initially dead}: like a crash at step 0, but skipping
      [on_start] too ([Fault (Dead v)]); the source cannot be dead.
    All injection randomness derives from the plan's seed via per-channel
    streams, so runs replay bit-identically; the advice-level faults of
    the plan are {e not} interpreted here (apply them to the advice
    before the run — see [Fault.Corrupt]).

    Raises [Invalid_argument] if a scheme emits an out-of-range port. *)

val msg_class : Message.t -> Obs.Event.msg_class
(** The telemetry class a sent message is counted under. *)

val result_of_counts :
  Obs.Counting.t -> informed:bool array -> quiescent:bool -> per_node_sent:int array -> result
(** The result of a run whose events [counts] folded: [stats] is
    [Obs.Counting.summary counts] and [all_informed] is read off [informed].
    {!run} and {!Shard.run} both build their result here. *)

val visit_rank : n:int -> batch:int -> dst:int -> int -> int
(** [visit_rank ~n ~batch ~dst k] is the rank of batch slot [k], a
    delivery to [dst], in the order {!run} visits the deliveries of one
    {!order_free} synchronous round of [batch] messages on [n] nodes:
    lower ranks are visited first, and a round's ranks are distinct.
    {!Shard.run} re-raises the deliver-phase failure of lowest rank. *)

val bad_port : node:int -> degree:int -> port:int -> 'a
(** Raises the [Invalid_argument] a run raises when [node] (of that
    [degree]) sends on [port] outside [0..degree-1]; {!Shard.run} raises
    the same. *)

val default_max_messages : Netgraph.Graph.t -> int
(** The cutoff [run] applies when [max_messages] is not given:
    [max 1_000_000 (4 (n + m))].  Every budget the paper's schemes and
    their hardened variants are held to (at most [4m + 3n] sends) fits
    under it, so a run within its bound is never cut off. *)

val order_free : sinks:Obs.Sink.t list -> faults:Fault_plan.t -> bool
(** Whether a run with these arguments is observed in no global order:
    no sinks and no fault plan ({!run} also requires no [scratch]).  Then
    the deliveries of one synchronous round commute, because a node's
    scheme state is its own and every counter is a sum or a maximum:
    [run] may visit them in any order that keeps each node's own
    arrivals in batch order, and {!Shard.run} may cut them across
    domains. *)

val run_silent_network_check :
  advice:(int -> Bitstring.Bitbuf.t) -> Netgraph.Graph.t -> source:int -> Scheme.factory -> bool
(** [true] when no non-source node transmits on the empty history under the
    given advice — the executable form of the wakeup restriction, used by
    tests. *)
