(** Verdicts: classifying an adversarial run against the paper's
    invariants, from its telemetry stream alone.

    The classifier is a fold over the stream ({!create}, {!observe},
    {!finish}) built on {!Obs.Replay}'s: everything it needs — who woke,
    who crashed, how many messages the scheme produced, which nodes
    abandoned their advice, how much repair traffic the network layer
    injected — is in the typed event stream.  {!Harness.run} attaches the
    fold as a sink, so the verdict is ready when the run drains;
    {!classify} runs the same fold over a recorded list, so a verdict can
    equally be computed offline from a JSONL trace.  The two facts a
    stream cannot carry — was the run cut off by [max_messages], and
    which nodes the failure pattern physically stranded — arrive as the
    [?quiescent] and [?unreachable] parameters of {!finish}. *)

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
    rejects its advice; {!observe} counts these. *)

type fold
(** Mutable classification state over a network of [n] nodes. *)

val create : n:int -> fold

val observe : fold -> Obs.Event.t -> unit
(** Fold one event.  Raises [Invalid_argument] if it names a node
    outside [0..n-1] (see {!Obs.Replay.observe}). *)

val failed : fold -> bool array
(** The nodes named by [Crashed]/[Dead] fault events so far — the fold's
    own array, not a copy; do not mutate it.  {!Harness.run} computes its
    stranded-survivor set from this. *)

val summary : fold -> Obs.Counting.summary
(** The {!Obs.Counting} fold of the events observed so far. *)

val finish :
  ?check_silence:bool -> ?quiescent:bool -> ?unreachable:bool array -> budgets:budgets -> fold -> t
(** The verdict on the events observed so far.  Precedence: a
    violation dominates — [check_silence] (default false) enables the
    wakeup silence invariant (any [Send] by a non-woken node);
    [quiescent:false] (default [true]) marks a run stopped by the
    runner's [max_messages] cutoff, which classifies as
    [Violated "message-cutoff..."] rather than [Stalled] since the
    budget, not the network, ended it; the message-budget,
    recovery-budget and drained-queue checks are always on.  Then
    uninformed survivors mean [Stalled]; then a clean run — no fallback,
    no failed node, no retransmission, within [budgets.clean] — is
    [Completed]; anything else is [Degraded].

    Nodes named by [Crashed]/[Dead] fault events are excluded from the
    informedness requirement: the adversary silenced them, the scheme
    owes them nothing.  [?unreachable] (length [n]) extends the same
    exclusion to nodes the caller proved physically stranded — every
    source path crosses a failed node, so no retransmission can help;
    {!Harness.run} computes this from the surviving graph.  Raises
    [Invalid_argument] if the array's length is not [n]. *)

val classify :
  ?check_silence:bool ->
  ?quiescent:bool ->
  ?unreachable:bool array ->
  n:int ->
  budgets:budgets ->
  Obs.Event.t list ->
  t
(** [classify ~n ~budgets events] is {!finish} after {!observe} on
    every event of a complete run's list. *)

val acceptable : t -> bool
(** The CLI's exit criterion: [Completed] or [Degraded] (graceful), not
    [Stalled] or [Violated]. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit
