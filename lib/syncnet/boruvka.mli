(** Distributed minimum-spanning-tree construction (synchronous Borůvka),
    the second construction task named in the paper's Section 1.2.

    Weights are the paper's [w(e) = min port], tie-broken by endpoint
    labels ({!Netgraph.Mst.edge_order}), so the MST is unique and the
    distributed output can be compared edge-for-edge with the centralized
    Kruskal reference.

    The protocol is phase-synchronous Borůvka: phases of [3n+10] rounds in
    which every fragment (a) tests all non-tree ports to learn which are
    outgoing, (b) convergecasts its minimum outgoing edge to the fragment
    leader, (c) routes a connect token to that edge and crosses it, and
    (d) floods the merged fragment with its new identity from the core
    (the unique mutually-chosen edge; the larger-label endpoint leads).
    Fragments at least halve in number per phase: [O(log n)] phases,
    [O(m log n)] messages — versus {e zero} messages when a
    [Θ(n log Δ)]-bit oracle hands every node its MST ports
    ({!advised_build}). *)

type outcome = {
  result : Model.result;
  advice_bits : int;
  edges : Netgraph.Graph.edge list option;
      (** the constructed tree ([None] if node outputs were inconsistent) *)
  matches_reference : bool;  (** equals the Kruskal MST, edge for edge *)
}

val distributed_build : ?max_rounds:int -> Netgraph.Graph.t -> outcome
(** Run the synchronous Borůvka protocol with zero advice. *)

val advised_build : Netgraph.Graph.t -> outcome
(** Read the tree straight out of the oracle: zero messages. *)
