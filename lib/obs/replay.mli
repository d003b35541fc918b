(** Offline replay of a recorded trace.

    A JSONL trace (re-read with {!Jsonl.read_file}) contains enough to
    recompute, without re-running the simulation: every counter of the
    metrics contract ({!Counting.summary}), the informed set, and whether
    the run drained its message queue.  This is the audit path: a claimed
    result (say, Theorem 2.1's exactly [n-1] messages, all nodes awake)
    can be checked from the trace artifact alone.

    Replay is a fold ({!create}, {!observe}, {!finish}), so the same
    computation runs live as events arrive — {!Fault.Verdict} attaches it
    to a harness run — or offline over a recorded list ({!replay}). *)

type outcome = {
  summary : Counting.summary;  (** the recomputed counters *)
  informed : bool array;
      (** per node: was it woken during the trace?  Reconstructed from
          [Wake] events (length [n]) *)
  all_informed : bool;  (** every node woke up *)
  in_flight : int;
      (** messages handed to the network and never delivered:
          [sent + duplicated + retransmits - dropped - delivered] — 0 for
          a quiescent run, faulty or not, since injected drops and
          duplicates and retransmitted copies are all recorded in the
          stream *)
  decisions : (int * string) list;  (** [Decide] events, in trace order *)
}

type t
(** Mutable replay state over a network of [n] nodes. *)

val create : n:int -> t

val observe : t -> Event.t -> unit
(** Fold one event.  Raises [Invalid_argument] if it names a node
    outside [0..n-1]. *)

val summary : t -> Counting.summary
(** The counters folded so far. *)

val finish : t -> outcome
(** The outcome of the events observed so far.  Its [informed] array is
    the fold's own: observing more events afterwards updates it. *)

val replay : n:int -> Event.t list -> outcome
(** [replay ~n events] is {!finish} after {!observe} on every event of
    a trace over a network of [n] nodes.  Raises [Invalid_argument] if
    an event names a node outside [0..n-1]. *)
