(** Port-labeled networks.

    The paper's model: an undirected connected graph whose nodes carry
    distinct labels, and where the edges incident to a node [v] of degree
    [deg(v)] occupy ports numbered [0 … deg(v)-1] at [v].  Each endpoint of
    an edge has its own port number; [port_u(e)] and [port_v(e)] are
    unrelated.

    Nodes are manipulated through dense indices [0 … n-1]; labels are
    arbitrary distinct integers carried alongside (algorithms in the model
    see labels, experiment plumbing sees indices). *)

type t

type edge = {
  u : int;  (** first endpoint, node index *)
  pu : int;  (** port of the edge at [u] *)
  v : int;  (** second endpoint, node index *)
  pv : int;  (** port of the edge at [v] *)
}

val make : ?labels:int array -> n:int -> edge list -> t
(** [make ~n edges] builds a graph on node indices [0 … n-1].  Port
    assignments must be explicit, within [0 … deg-1] at each endpoint once
    all edges are placed, and pairwise distinct per node.  Default labels
    are [1 … n] (the paper labels nodes from 1).  Raises
    [Invalid_argument] on malformed input: duplicate ports, self-loops,
    duplicate edges, port numbers with gaps, or duplicate labels. *)

val of_port_map : ?labels:int array -> (int * int) array array -> t
(** [of_port_map adj] builds from the explicit port map [adj.(u).(p) =
    (v, q)], flattened into the internal CSR arrays in one O(n + m)
    pass.  All of {!make}'s invariants are checked with no per-edge
    allocation — the fast path for dense generators (a clique builds
    straight from pre-sized rows instead of an [n²]-record edge list).
    Raises [Invalid_argument] on a malformed map (asymmetry, self-loop,
    parallel edge, out-of-range neighbor or port, duplicate label). *)

val of_csr :
  ?labels:int array -> n:int -> off:int array -> nbr:int array -> prt:int array -> unit -> t
(** [of_csr ~n ~off ~nbr ~prt ()] adopts adjacency already in the
    internal CSR form: [off] has length [n+1] with [off.(0) = 0] and
    monotone offsets, and port [p] at node [u] reaches node
    [nbr.(off.(u) + p)] arriving on its port [prt.(off.(u) + p)].  The
    arrays are adopted {e without copying} — the caller hands over
    ownership and must not mutate them afterwards.  Structural
    invariants (mirror symmetry, no self-loops or parallel edges, ranges)
    are checked in O(n + m); [Invalid_argument] on violation.  The
    zero-intermediate path for generators that can emit CSR directly
    (a 10⁷-node path allocates three int arrays and nothing else). *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of edges. *)

val degree : t -> int -> int

val label : t -> int -> int

val labels : t -> int array
(** A fresh copy of the label array. *)

val node_of_label : t -> int -> int
(** Raises [Not_found] for an unknown label. *)

val endpoint : t -> int -> int -> int * int
(** [endpoint g u p] is [(v, q)]: following port [p] out of [u] reaches
    node [v], arriving on [v]'s port [q].  Raises [Invalid_argument] on a
    bad port. *)

val csr_offsets : t -> int array
(** The physical CSR offset array (length [n+1]); see {!of_csr} for the
    layout.  Shared with the graph, {b not} a copy — callers must treat
    it as read-only.  Exposed so per-message inner loops can index
    adjacency with zero function-call or bounds-recheck overhead. *)

val csr_neighbors : t -> int array
(** The physical CSR neighbor array (length [2m]); read-only, see
    {!csr_offsets}. *)

val csr_ports : t -> int array
(** The physical CSR arrival-port array (length [2m]); read-only, see
    {!csr_offsets}. *)

val neighbors : t -> int -> (int * int * int) list
(** [neighbors g u] lists [(port, neighbor, neighbor_port)] in port
    order. *)

val port_to : t -> int -> int -> int option
(** [port_to g u v] is the port at [u] of the edge [{u,v}], if present. *)

val has_edge : t -> int -> int -> bool

val edges : t -> edge list
(** All edges, each listed once with [u < v]. *)

val fold_edges : (edge -> 'a -> 'a) -> t -> 'a -> 'a

val edge_weight : t -> edge -> int
(** The paper's weight [w(e) = min(port_u(e), port_v(e))] (Theorem 3.1). *)

val is_connected : t -> bool

val validate : t -> (unit, string) result
(** Re-checks all structural invariants; [make] establishes them, so this
    is primarily for tests of graph transformations. *)

val equal : t -> t -> bool
(** Same size, labels, and port-labeled adjacency. *)

val pp : Format.formatter -> t -> unit

val to_edge_list_string : t -> string
(** Compact textual dump, stable across runs, for golden tests. *)
