(** Domain-sharded execution of a single run.

    [run] has the contract of {!Runner.run} plus a [?shards] knob.  One
    kind of run executes across domains: [shards > 1], the
    {!Scheduler.Synchronous} scheduler, no sinks and no fault plan
    ({!Runner.order_free}).  The node array is then partitioned into
    [shards] contiguous blocks and each round executes as two phases
    (deliver, then emit), each one {!Pool.map} of one task per shard
    over a pool of [shards] jobs; the pool's join is the barrier
    between phases.  Deliveries commute because a node's scheme
    state is touched only by its shard's task and counters are
    per-shard {!Obs.Counting} states merged with [absorb]; responses
    are placed at offsets from an exclusive prefix sum over the batch,
    so they keep the sequential engine's send order.  Every field of
    the result is identical to {!Runner.run}'s at any shard count.

    Every other call delegates to {!Runner.run}: [shards = 1], the
    asynchronous schedulers (one global delivery order, no round
    boundary to cut), and any run that observes or perturbs that order —
    sinks or a fault plan (DESIGN.md §14).

    Rounds smaller than [?min_parallel_batch] (default 256) are
    processed inline on the calling domain, shard by shard — same
    arithmetic, no barrier traffic — so tiny runs never pay for
    domains; the pool is created lazily on the first large phase and
    shut down before [run] returns, also when it raises.

    Failures: [run] raises the exception {!Runner.run} raises, with its
    raise-site backtrace, whichever shards and domains meet failures.
    Each shard keeps its first failure in the runner's order — node
    order at start-up, batch order in an emit phase, {!Runner.visit_rank}
    order in a deliver phase — and the phase re-raises the first over
    all shards.  Callbacks the runner would not have reached before
    raising may still run on other nodes.
    [shards] is clamped to 64; [invalid_arg] if it is not positive.

    Concurrency requirements on the caller: on the parallel path
    [advice] and [factory] are called from several domains (at most
    once per node) and must be safe to call concurrently — the built-in
    schemes only read shared immutable advice, which is safe.  A
    shard's scheme callbacks run in one task per phase, so two nodes of
    one shard are never called concurrently; the domain that runs a
    shard may change from one phase to the next, and the barrier
    orders every phase's writes before the next phase's reads. *)

val run :
  ?scheduler:Scheduler.t ->
  ?max_messages:int ->
  ?sinks:Obs.Sink.t list ->
  ?faults:Fault_plan.t ->
  ?retry:int ->
  ?shards:int ->
  ?min_parallel_batch:int ->
  advice:(int -> Bitstring.Bitbuf.t) ->
  Netgraph.Graph.t ->
  source:int ->
  Scheme.factory ->
  Runner.result
