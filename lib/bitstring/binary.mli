(** Plain binary representations of non-negative integers.

    The paper writes [#₂(w)] for the number of bits of the standard binary
    representation of [w]: [#₂(w) = 1] for [w ≤ 1] and
    [#₂(w) = ⌊log w⌋ + 1] for [w > 1].  The contribution of an edge in
    Claim 3.1 is [#₂(w(e))], and the broadcast oracle of Theorem 3.1 ships
    edge weights in exactly this representation. *)

val bits : int -> int
(** [bits w] is [#₂(w)].  Raises [Invalid_argument] on negative input. *)

val ceil_log2 : int -> int
(** [ceil_log2 n] is [⌈log₂ n⌉] for [n ≥ 1] (so [ceil_log2 1 = 0]).
    Raises [Invalid_argument] for [n < 1]. *)

val floor_log2 : int -> int
(** [floor_log2 n] is [⌊log₂ n⌋] for [n ≥ 1].
    Raises [Invalid_argument] for [n < 1]. *)

val to_bools : int -> bool list
(** The standard binary representation as a list of bits, MSB first. *)

val log2_factorial : int -> float
(** [log2_factorial n] is [log₂ n!], computed by summation (exact enough for
    the counting experiments; no gamma-function dependency). *)

val log2_choose : int -> int -> float
(** [log2_choose n k] is [log₂ C(n, k)]; [neg_infinity] when [k < 0] or
    [k > n]. *)
