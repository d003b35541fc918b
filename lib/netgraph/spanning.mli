(** Rooted spanning trees of port-labeled graphs.

    Both oracles in the paper are advice about a spanning tree: Theorem 2.1
    ships each node the ports towards its children, and Theorem 3.1 ships
    each tree edge's weight [w(e) = min port] to one endpoint.  The choice
    of tree drives the oracle size, which is why this module provides BFS,
    DFS and random trees alongside the Claim 3.1 construction whose total
    contribution [Σ #₂(w(e))] is at most [4n]. *)

type t = private {
  root : int;
  parent_node : int array;  (** [parent_node.(v)]: [v]'s parent, [-1] at the root. *)
  parent_port : int array;
      (** [parent_port.(v)]: the port {e at [v]} leading to its parent,
          [-1] at the root. *)
  child_off : int array;
      (** Length [n+1]: the children of [u] occupy slots
          [child_off.(u) … child_off.(u+1) - 1] of the two arrays below. *)
  child_node : int array;  (** Length [n-1]: children, grouped by parent. *)
  child_port : int array;
      (** Length [n-1]: the port at the parent towards the child in the
          same slot.  Within a parent's slots the ports ascend. *)
}
(** A spanning tree as flat int arrays: one parent array, one parent-port
    array and the children in CSR form, in ascending port order — no
    boxed value per node.  The arrays are shared, not copied: callers
    treat them as read-only.  {!parent} and {!children} give boxed
    views. *)

val of_parents : Graph.t -> root:int -> int array -> t
(** Build from a parent array ([-1] for the root), as produced by
    {!Traverse.bfs}.  The array is adopted as [parent_node], not copied:
    the caller must not mutate it afterwards.
    Raises [Invalid_argument] if it is not a spanning tree of the graph
    rooted at [root]. *)

val bfs : Graph.t -> root:int -> t
val dfs : Graph.t -> root:int -> t

val random : Graph.t -> root:int -> Random.State.t -> t
(** Spanning tree from a uniformly shuffled edge order (random Kruskal). *)

val light : Graph.t -> root:int -> t
(** The Claim 3.1 construction.  The paper grows it in Borůvka-style
    phases in which every component of size [< 2^k] selects a
    minimum-weight outgoing edge (weight = [min port]).  With ties broken
    by position in {!Graph.fold_edges} order, each selection is in the
    unique minimum spanning tree for (weight, position), so the phases
    build exactly that tree; this computes it by Kruskal.  Any minimum
    spanning tree under the weight alone has the same contribution, and
    it is at most [4n].  Raises [Invalid_argument] on a disconnected
    graph. *)

val size : t -> int
(** Number of nodes. *)

val parent : t -> int -> (int * int) option
(** [parent t v = Some (u, p)]: [u] is [v]'s parent and [p] the port at
    [v] leading to it; [None] at the root. *)

val children : t -> int -> (int * int) list
(** [(child, port at u towards child)] in increasing port order. *)

val edges : t -> Graph.edge list
(** The [n-1] tree edges, with ports as in the underlying graph, in
    ascending order of each edge's child; each edge lists its smaller
    endpoint as [u]. *)

val check : Graph.t -> t -> (unit, string) result
(** Verify: spans all nodes, is acyclic, parent/children agree, every tree
    edge exists in the graph with those ports. *)

val depth : t -> int array
(** Hop distance from the root along tree edges. *)

val contribution : Graph.t -> Graph.edge list -> int
(** [Σ #₂(w(e))] over the given edges — the quantity Claim 3.1 bounds by
    [4n] for the {!light} tree. *)

val children_ports : t -> int -> int list
(** Ports at a node leading to its children (the Theorem 2.1 advice). *)
