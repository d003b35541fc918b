(** Disjoint-set union with union by size and path compression — the
    bookkeeping of Kruskal's spanning-tree constructions (random and
    Claim 3.1 trees, minimum spanning trees). *)

type t

val create : int -> t
val find : t -> int -> int
val union : t -> int -> int -> bool
(** [union t a b] merges the two components; returns [false] when they were
    already the same. *)

val components : t -> int
(** Number of components. *)
