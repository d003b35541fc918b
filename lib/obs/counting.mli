(** The counting sink: folds an event stream into the run statistics.

    This fold is the one definition of every counter a run reports:
    {!Sim.Runner.result}'s [stats] is its {!summary} over the run's
    stream, so an external counting sink attached to the same run
    reproduces it exactly (the tests assert it).  The contract for each
    field is spelled out in [DESIGN.md] §"Telemetry: the metrics
    contract". *)

type summary = {
  sent : int;  (** number of [Send] events — the paper's message complexity *)
  delivered : int;
      (** number of [Deliver] events; [sent - delivered] messages were
          still in flight (or lost) when the stream ended *)
  source_sent : int;  (** [Send] events of class [Source] *)
  hello_sent : int;  (** [Send] events of class [Hello] *)
  control_sent : int;  (** [Send] events of class [Control] *)
  bits_on_wire : int;  (** sum of [bits] over [Send] events *)
  rounds : int;  (** largest [round] stamp seen (0 on an empty stream) *)
  causal_depth : int;
      (** largest [depth] over [Deliver] events (0 if none) — the longest
          chain of causally dependent deliveries *)
  wakes : int;  (** number of [Wake] events, source included *)
  decides : int;  (** number of [Decide] events *)
  advice_bits : int;
      (** sum of [bits] over [Advice_read] events — the oracle size
          actually handed out on this run *)
  faults : int;  (** number of [Fault] events — adversarial injections of any kind *)
  dropped : int;
      (** [Fault Msg_dropped] events: sends destroyed in flight (fault
          plans, crashed or dead receivers) *)
  duplicated : int;  (** [Fault Msg_duplicated] events: extra enqueued copies *)
  retransmits : int;
      (** [Recover Msg_retransmitted] events: copies re-enqueued by the
          runner's ack/retransmit channel.  Never part of [sent] — repair
          traffic is accounted against the recovery budget, not the
          paper's message complexity *)
  corrected_bits : int;
      (** sum of [bits] over [Recover Advice_corrected] events: advice
          errors repaired by the ECC layer instead of forcing a flooding
          fallback *)
}
(** An immutable snapshot of the counters. *)

type t
(** Mutable counting state. *)

val create : unit -> t

val observe : t -> Event.t -> unit
(** Fold one event into the counters: the [note_*] arm of its kind
    below, or, for [Decide] and [Recover Advice_corrected], the bump of
    [decides] or [corrected_bits]. *)

(** {2 Allocation-free counting}

    Each [note_*] function is the arm {!observe} applies to one event
    kind, taking the event's fields instead of an {!Event.t}.  The
    runner's sink-less hot path counts through them: a million-message
    run allocates no event records at all, yet lands on the counters a
    traced run reports (the scale tests assert it).  [round] is the
    event's round stamp, folded into [rounds]. *)

val note_send : t -> round:int -> cls:Event.msg_class -> bits:int -> unit
(** The [Send] arm of [observe]: bumps [sent], the class counter and
    [bits_on_wire]. *)

val note_deliver : t -> round:int -> depth:int -> unit
(** The [Deliver] arm: bumps [delivered], folds [depth] into
    [causal_depth]. *)

val note_wake : t -> round:int -> unit
(** The [Wake] arm: bumps [wakes]. *)

val note_advice : t -> round:int -> bits:int -> unit
(** The [Advice_read] arm: adds [bits] to [advice_bits]. *)

val note_fault : t -> round:int -> Event.fault -> unit
(** The [Fault] arm: bumps [faults] and, for drops/duplicates, the
    matching sub-counter. *)

val note_retransmit : t -> round:int -> unit
(** The [Recover Msg_retransmitted] arm: bumps [retransmits]. *)

val absorb : t -> t -> unit
(** [absorb t other] folds [other]'s counters into [t], leaving [other]
    untouched.  Exact, not approximate: every counter is a sum except
    [rounds] and [causal_depth], which are maxima — both commutative,
    associative folds, so counters accumulated independently per domain
    and absorbed in any order are bit-identical to the sequential fold
    over the same events.  The sharded runner's per-domain counting
    relies on this. *)

val sink : t -> Sink.t
(** [observe] packaged as a {!Sink.t} (closing it is a no-op). *)

val summary : t -> summary
(** Snapshot the current counters. *)

val sent : t -> int
(** The live [Send]-event count (the runner's cutoff check reads this on
    the hot path). *)

val of_events : Event.t list -> summary
(** Fold a recorded stream, e.g. one read back by {!Jsonl.read_file}. *)

val pp : Format.formatter -> summary -> unit
