(** The auxiliary problem {e edge discovery} and the Lemma 2.1 adversary.

    An instance is a triple [(n, X, Y)]: [X] is a set of labeled special
    edges of [K*ₙ] and [Y] a disjoint set of excluded edges.  A scheme
    knows [n], [|X|] and [Y], probes edges one message at a time, and must
    discover [X] (every special edge together with its label).

    Lemma 2.1: on any uniform family [I] of instances (same [n], [|X|],
    [Y]), an adversary can always answer probes so that at least
    [log₂(|I| / |X|!)] messages are needed.  The adversary here is the
    proof's, implemented over an explicit instance family: on each probe it
    keeps the majority side (special vs regular), and when declaring an
    edge special it keeps the most popular label.  It self-checks the
    proof's invariant [x_{t,r} ≥ |I|·(|X|-r)! / (2^t·|X|!)] after every
    answer. *)

type edge = int * int
(** An edge of [K*ₙ] as an unordered pair of labels with [fst < snd]. *)

val edge : int -> int -> edge
(** Normalise a pair.  Raises [Invalid_argument] if the labels are
    equal or non-positive. *)

type instance = {
  n : int;
  specials : (edge * int) list;  (** [X]: special edges with labels [1…|X|] *)
  excluded : edge list;  (** [Y] *)
}

val make_instance : n:int -> specials:(edge * int) list -> excluded:edge list -> instance
(** Validates: edges within [K*ₙ], [X] and [Y] disjoint, labels a
    permutation of [1…|X|].  Both lists come back sorted, so two
    instances with the same [X] and [Y] are structurally equal and
    [List.sort_uniq compare] dedupes a family. *)

val all_edges : n:int -> edge list
(** The [C(n,2)] edges of [K*ₙ]. *)

val enumerate_instances : n:int -> x_size:int -> excluded:edge list -> instance list
(** Every instance with the given parameters — all ordered choices of
    [x_size] special edges outside [excluded].  Intended for small [n]
    (the count is [C(C(n,2) - |Y|, x) · x!]). *)

val sample_instances :
  n:int -> x_size:int -> excluded:edge list -> count:int -> Random.State.t -> instance list
(** [count] instances sampled uniformly with replacement. *)

(** {1 The adversary} *)

type adversary

type answer = Regular | Special of int

val adversary : instance list -> adversary
(** The family is taken as a set: an instance listed twice counts once,
    in [|I|] and in the bound.  Raises [Invalid_argument] on an empty or
    non-uniform family. *)

val probe : adversary -> edge -> answer
(** Answer a probe, discarding incompatible instances by the majority
    rule.  Probing an excluded edge answers [Regular] without any
    discarding (the scheme already knew).  Re-probing a decided edge
    repeats the recorded answer and still counts as a message.
    Raises [Failure] if the proof's counting invariant is violated
    (impossible if the implementation is correct). *)

val probes : adversary -> int
(** Messages sent so far ([t]). *)

val discovered : adversary -> (edge * int) list
(** Special edges revealed so far, with labels ([r] of them). *)

val active : adversary -> int
(** Number of still-active instances. *)

val solved : adversary -> bool
(** All [|X|] special edges have been revealed. *)

val x_size : adversary -> int

val lower_bound : adversary -> float
(** [log₂(|I| / |X|!)] for the family the adversary started from. *)

(** {1 Discovery strategies} *)

type strategy = {
  strategy_name : string;
  next_probe : n:int -> x_size:int -> excluded:edge list -> history:(edge * answer) list -> edge;
      (** Choose the next edge to probe given everything revealed so far.
          Must return an edge of [K*ₙ]. *)
}

val sequential : strategy
(** Probes edges in lexicographic order, skipping excluded and already
    probed ones. *)

val random_strategy : seed:int -> strategy
(** Probes a uniformly random unprobed, unexcluded edge. *)

type outcome = {
  probes_used : int;
  found : (edge * int) list;
  bound : float;  (** the Lemma 2.1 bound for the family played against *)
}

val play : adversary -> strategy -> outcome
(** Run the strategy against the adversary until all specials are
    discovered.  Raises [Failure] if the strategy stalls (returns an
    already-probed edge twice in a row more than [C(n,2)] times). *)
