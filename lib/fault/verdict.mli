(** Verdicts: classifying an adversarial run against the paper's
    invariants.

    One rule, {!judge}, turns a run's evidence into a verdict: its
    counters, who woke, who crashed or died, how many nodes abandoned
    their advice, and whether a non-woken node ever transmitted.  Two
    feeders gather that evidence.  {!Harness.run} takes it from the run
    itself ({!recorded}): the counters and the informed set the runner
    already keeps, and two reads of the recording that decode nothing
    packed.  {!classify} folds it from an event list in one pass, so a
    verdict can equally be computed offline from a JSONL trace.  The two
    facts a stream cannot carry — was the run cut off by
    [max_messages], and which nodes the failure pattern physically
    stranded — arrive as the [?quiescent] and [?unreachable] parameters
    of {!judge}. *)

type budgets = {
  clean : int;
      (** the advised bound: [n-1] for Theorem 2.1 wakeup, [3n] for
          Scheme B broadcast *)
  degraded : int;
      (** the advice-free bound the fallback may cost, Θ(m):
          what {!Harness.budgets} computes from the graph *)
  recovery : int;
      (** retransmission allowance: how many [Recover Msg_retransmitted]
          events the run may contain before self-healing itself counts as
          a violation.  Repair traffic is budgeted separately from [sent]
          because retransmissions never count against the paper's message
          complexity. *)
}

type t =
  | Completed
      (** every node informed, within the clean budget, no node failed,
          no node abandoned its advice, no retransmissions — the paper's
          claim held even if harmless faults were injected.  Corrected
          advice bits ([Recover Advice_corrected]) do {e not} downgrade:
          the protected code absorbed the attack, which is the point. *)
  | Degraded of string
      (** every surviving node informed and the degraded budget held,
          but at a cost: advice fallbacks, failed nodes, stranded nodes,
          retransmissions, or more messages than the advised bound (the
          reason string lists which) *)
  | Stalled of {
      informed : int;  (** surviving nodes that woke *)
      survivors : int;  (** nodes neither crashed, dead, nor unreachable *)
      n : int;
    }
      (** the run drained with surviving nodes still uninformed —
          e.g. drops severed the only path and the retry budget was off
          or exhausted, or tampered advice parsed but pointed the wrong
          way *)
  | Violated of string
      (** an invariant the scheme must keep even under attack was broken:
          wakeup silence, the degraded message budget, the recovery
          budget, or the run was stopped by the [max_messages] cutoff *)

val fallback_tag : string
(** ["fallback-flood"] — the [Decide] tag a hardened node emits when it
    rejects its advice; {!classify} counts these, and {!Harness.run}
    counts the rejections it reports with them. *)

type evidence = {
  stats : Obs.Counting.summary;
      (** the run's counters; {!judge} reads [sent], [retransmits] and
          the in-flight balance ({!Obs.Counting.in_flight}) *)
  informed : bool array;  (** per node: did it wake?  Its length is [n] *)
  failed : bool array;
      (** per node: was it named by a [Crashed] or [Dead] fault event?
          Length [n]; a node both crashed and dead is one failure *)
  fallbacks : int;  (** nodes that rejected their advice *)
  silent : bool;  (** no [Send] was made by a node not yet woken *)
}
(** What a verdict is judged from. *)

val judge :
  ?check_silence:bool -> ?quiescent:bool -> ?unreachable:bool array -> budgets:budgets -> evidence -> t
(** The verdict on a run's evidence.  Precedence: a violation
    dominates — [check_silence] (default false) enables the wakeup
    silence invariant ([silent = false] violates); [quiescent:false]
    (default [true]) marks a run stopped by the runner's [max_messages]
    cutoff, which classifies as [Violated "message-cutoff..."] rather
    than [Stalled] since the budget, not the network, ended it; the
    message-budget, recovery-budget and drained-queue checks are always
    on.  Then uninformed survivors mean [Stalled]; then a clean run — no
    fallback, no failed node, no retransmission, within
    [budgets.clean] — is [Completed]; anything else is [Degraded].

    Failed nodes are excluded from the informedness requirement: the
    adversary silenced them, the scheme owes them nothing.
    [?unreachable] (length [n]) extends the same exclusion to nodes the
    caller proved physically stranded — every source path crosses a
    failed node, so no retransmission can help; {!Harness.run} computes
    this from the surviving graph.  Raises [Invalid_argument] if
    [failed] or the [unreachable] array is not of length [n]. *)

val recorded :
  ?check_silence:bool ->
  stats:Obs.Counting.summary ->
  informed:bool array ->
  fallbacks:int ->
  Obs.Recorder.t ->
  evidence
(** [recorded ~stats ~informed ~fallbacks r] is the evidence of a run
    whose stream [r] recorded, taking the counters, the informed set
    (length [n]) and the fallback count from the run: the failed set is
    read from [r]'s boxed events ({!Obs.Recorder.iter_boxed}; [Crashed]
    and [Dead] are never packed), and with [check_silence] (default
    false) [silent] from a scan of its [Send] records
    ({!Obs.Recorder.uninformed_send}).  Without [check_silence] the
    recording is not scanned and [silent] is [true]. *)

val classify :
  ?check_silence:bool ->
  ?quiescent:bool ->
  ?unreachable:bool array ->
  n:int ->
  budgets:budgets ->
  Obs.Event.t list ->
  t
(** [classify ~n ~budgets events] is {!judge} on the evidence folded
    from a complete run's list in one pass: the list's
    {!Obs.Counting} summary, the nodes its [Wake] events name, those its
    [Crashed]/[Dead] events name, its [Decide] events tagged
    {!fallback_tag}, and whether any [Send] has [informed = false].
    Raises [Invalid_argument] if an event names a node outside
    [0..n-1]. *)

val acceptable : t -> bool
(** The CLI's exit criterion: [Completed] or [Degraded] (graceful), not
    [Stalled] or [Violated]. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit
