(** Disjoint-set union with union by size and path compression, tracking
    component sizes — the bookkeeping of Kruskal's spanning-tree
    constructions (random and Claim 3.1 trees, minimum spanning trees). *)

type t

val create : int -> t
val find : t -> int -> int
val union : t -> int -> int -> bool
(** [union t a b] merges the two components; returns [false] when they were
    already the same. *)

val size : t -> int -> int
(** Size of the component containing the node. *)

val components : t -> int
(** Number of components. *)

val roots : t -> int list
(** Current representative of each component. *)
