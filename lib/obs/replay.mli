(** Offline replay of a recorded trace.

    A JSONL trace (re-read with {!Jsonl.read_file}) contains enough to
    recompute, without re-running the simulation: every counter of the
    metrics contract ({!Counting.summary}), the informed set, and whether
    the run drained its message queue.  This is the audit path: a claimed
    result (say, Theorem 2.1's exactly [n-1] messages, all nodes awake)
    can be checked from the trace artifact alone.

    Replay reads a recorded list ({!replay}); {!Fault.Verdict.classify}
    folds the same counters and informed set from a list in its own
    single pass. *)

type outcome = {
  summary : Counting.summary;  (** the recomputed counters *)
  informed : bool array;
      (** per node: was it woken during the trace?  Reconstructed from
          [Wake] events (length [n]) *)
  all_informed : bool;  (** every node woke up *)
  in_flight : int;
      (** messages handed to the network and never delivered:
          {!Counting.in_flight} of [summary] — 0 for a quiescent run,
          faulty or not, since injected drops and duplicates and
          retransmitted copies are all recorded in the stream *)
  decisions : (int * string) list;  (** [Decide] events, in trace order *)
}

val replay : n:int -> Event.t list -> outcome
(** [replay ~n events] folds a trace over a network of [n] nodes in one
    pass.  Raises [Invalid_argument] if an event names a node outside
    [0..n-1]. *)
