(** Classical traversals over port-labeled graphs. *)

val bfs : Graph.t -> root:int -> int array * int array
(** [bfs g ~root] is [(dist, parent)]: [dist.(v)] is the hop distance from
    [root] ([-1] if unreachable), [parent.(v)] the BFS parent ([-1] for
    the root and unreachable nodes).  Neighbors are explored in port
    order. *)

val dfs_parents : Graph.t -> root:int -> int array
(** DFS tree parents from [root] ([-1] for the root and unreachable
    nodes), ports explored in order.  The walk keeps an explicit stack,
    so a path of any length runs in constant call-stack depth. *)

val components : Graph.t -> int array * int
(** [(comp, k)]: component index per node and the number of components. *)

val eccentricity : Graph.t -> int -> int
(** Largest hop distance from the node.  Raises [Invalid_argument] on a
    disconnected graph. *)

val diameter : Graph.t -> int
(** Largest eccentricity.  Raises [Invalid_argument] on a disconnected
    graph. *)

val distance : Graph.t -> int -> int -> int option
(** Hop distance, [None] if disconnected. *)
