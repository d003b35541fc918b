(** Leader election under the oracle-size measure.

    A contrast point for the paper's thesis that minimum oracle size
    measures task difficulty: on labeled networks, election is {e cheap}
    in knowledge even when it is expensive in messages, and the oracle
    collapses the message cost with a single bit.

    - {!max_finding}: advice-free election by maximum-label flooding —
      works on any labeled connected network, [O(n·m)] messages worst
      case.
    - {!with_marked_leader}: the 1-bit oracle marks the maximum-label
      node; election plus announcement then costs at most [2m] messages
      (exactly [n+1] on a ring).  Total oracle size: {e one bit} — the
      difficulty of election, in the paper's measure, is O(1), versus
      Θ(n) for efficient broadcast and Θ(n log n) for efficient wakeup.
    - {!anonymous_attempt}: the classic impossibility, executable: on an
      anonymous ring every deterministic scheme keeps all nodes in
      identical states, so either nobody or everybody claims leadership
      (Angluin; see the paper's [10] for the knowledge angle). *)

type role = Leader | Follower | Undecided

type outcome = {
  result : Sim.Runner.result;
  advice_bits : int;
  roles : role array;
  leader : int option;  (** the unique leader's node index, if unique *)
  ok : bool;  (** exactly one leader, and it has the maximum label *)
}

val max_finding :
  ?scheduler:Sim.Scheduler.t ->
  ?sinks:Obs.Sink.t list ->
  Netgraph.Graph.t ->
  outcome
(** Advice-free flooding election.  Telemetry streams into [sinks]; after
    quiescence one {!Obs.Event.Decide} per node reports its final role. *)

val with_marked_leader :
  ?scheduler:Sim.Scheduler.t ->
  ?sinks:Obs.Sink.t list ->
  Netgraph.Graph.t ->
  outcome
(** Election from the 1-bit oracle.  Telemetry as in {!max_finding}. *)

val marked_leader_oracle : Oracles.Oracle.t
(** The oracle itself: the string ["1"] to the maximum-label node, empty
    strings elsewhere — total size 1 bit. *)

val anonymous_attempt : n:int -> role array
(** Run max-finding on an [n]-cycle with all identities hidden (every node
    sees id 0): returns the per-node roles, which are provably uniform —
    never exactly one leader for [n ≥ 2]. *)
