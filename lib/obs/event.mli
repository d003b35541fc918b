(** The typed telemetry event model.

    Every observable fact produced by a simulation run is one value of
    {!t}: a message being sent or delivered, a node waking up (becoming
    informed), a node committing to a protocol-level decision, or a node's
    advice string being read at start-up.  The simulation runner
    ({!Sim.Runner.run}) emits these events into {!Sink.t} values; the
    counting sink ({!Counting}) folds them into the run's statistics,
    and the {!Jsonl} exporter serialises them.

    The precise meaning of every derived counter is written down in
    [DESIGN.md], section "Telemetry: the metrics contract"; this module is
    its machine-readable half. *)

type msg_class = Source | Hello | Control
(** The three wire-message classes of {!Sim.Message.t}, with payloads
    abstracted away: telemetry carries the class and the accounted bit
    size, never the payload itself. *)

val msg_class_name : msg_class -> string
(** ["source"], ["hello"] or ["control"] — the names used by the JSONL
    exporter. *)

val msg_class_of_name : string -> msg_class option
(** Inverse of {!msg_class_name}. *)

type link = {
  src : int;  (** sending node index *)
  src_port : int;  (** port the message leaves through at [src] *)
  dst : int;  (** receiving node index *)
  dst_port : int;  (** port the message arrives on at [dst] *)
  cls : msg_class;  (** message class *)
  bits : int;  (** accounted size, as by {!Sim.Message.size_bits} *)
  informed : bool;  (** was the sender informed when it sent? *)
  depth : int;
      (** causal depth of the message: 1 for start-up sends, one more than
          the triggering delivery otherwise.  The maximum over delivered
          messages is the run's [causal_depth]. *)
}
(** One message crossing one port-labeled edge.  A [Send] and the
    [Deliver] it triggers (if the message is not lost) carry identical
    [link] payloads and the same {!t.seq} stamp. *)

type fault =
  | Msg_dropped
      (** the message with this event's [seq] was destroyed in flight (by a
          fault plan's [drop], or by delivery to a crashed or dead node);
          its [Send] exists, its [Deliver] never will *)
  | Msg_duplicated
      (** an extra copy of the message with this [seq] was enqueued: two
          [Deliver]s will carry the one [Send]'s stamp *)
  | Msg_delayed of int
      (** delivery of the message with this [seq] was held back by this
          many scheduler steps *)
  | Msg_reordered of int  (** a burst of this many in-flight messages was flushed reversed *)
  | Crashed of int  (** the node crash-stopped at this event's [round] *)
  | Dead of int  (** the node began the run dead (stamped at round 0) *)
  | Advice_tampered of int * string
      (** the node's advice string was corrupted before the run; the string
          says how (e.g. ["flip@3"], ["trunc=1"]) — emitted by the fault
          harness, before the runner's stream *)

type recovery =
  | Msg_retransmitted of int
      (** the message with this event's [seq] was destroyed in flight and
          the network layer re-enqueued a fresh copy; the payload is the
          attempt number (1 for the first retry).  The copy faces the
          adversary again: it may be dropped once more (another
          [Fault Msg_dropped]) or finally arrive (a [Deliver] with the
          original [seq]).  Retransmissions are {e not} [Send] events —
          they never count against the paper's message complexity, only
          against the recovery budget ({!Fault.Verdict}). *)
  | Advice_corrected of int * int
      (** [(node, bits)]: the node's error-protected advice string decoded
          with [bits] corrected errors ([bits ≥ 1]; clean decodes emit
          nothing).  Emitted by protection-aware hardened schemes, which
          fall back to flooding only when correction itself fails. *)
(** An active recovery action: the self-healing counterpart of {!fault}. *)

type kind =
  | Send of link  (** a node handed a message to the network *)
  | Deliver of link  (** the network handed a message to its destination *)
  | Wake of int
      (** node became informed: it is the source (stamped at round 0) or
          it received a message from an informed sender for the first
          time *)
  | Decide of int * string
      (** protocol-level commitment by a node, tagged with a
          protocol-chosen label (e.g. ["leader"]); emitted by protocol
          wrappers after quiescence, never by the runner itself *)
  | Advice_read of int * int
      (** [(node, bits)]: the node's advice string of [bits] bits was
          handed to its scheme at start-up.  Summing [bits] recovers the
          oracle size on this network.  Advice is read {e as corrupted}:
          under advice faults the bits counted here are the tampered
          string's. *)
  | Fault of fault
      (** an adversarial injection, recorded so faulty traces stay
          auditable: every fault the plan realises appears in the stream *)
  | Recover of recovery
      (** a recovery action (retransmission, advice correction), recorded
          so self-healing runs stay auditable: repair work is accounted
          separately from the paper's clean-run complexity *)

type t = {
  seq : int;
      (** message sequence number: strictly increasing across [Send]
          events (0, 1, 2, …), equal on a [Deliver] to the [seq] of its
          [Send].  A [Wake] carries the [seq] of the delivery that woke
          the node (0 for the source's initial wake); [Advice_read] events
          are stamped 0, and [Decide] events carry the final sequence
          number of the run they conclude.  A [Recover Msg_retransmitted]
          carries the [seq] of the destroyed message's [Send], except for
          keep-alive timeouts signalling a crashed neighbour, which have no
          originating [Send] and are stamped 0;
          [Recover (Advice_corrected _)] events are stamped 0. *)
  round : int;
      (** synchronous round, or asynchronous step index, at emission;
          non-decreasing along the event stream.  Start-up events are
          stamped with round 0. *)
  kind : kind;
}
(** A stamped telemetry event. *)

val kind_name : kind -> string
(** ["send"], ["deliver"], ["wake"], ["decide"], ["advice"], ["fault"] or
    ["recover"]. *)

val fault_name : fault -> string
(** ["drop"], ["duplicate"], ["delay"], ["reorder"], ["crash"], ["dead"] or
    ["advice"] — the names used by the JSONL exporter. *)

val recovery_name : recovery -> string
(** ["retransmit"] or ["corrected"] — the names used by the JSONL
    exporter. *)

val equal : t -> t -> bool
(** Structural equality (used by the exporter round-trip tests). *)

val pp : Format.formatter -> t -> unit
(** One-line human rendering, e.g. [#12 r3 send 0:1->4:0 source 1b informed d2]. *)
