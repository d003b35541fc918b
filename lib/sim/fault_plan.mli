(** Declarative, seeded fault plans — the specification half of the
    fault-injection subsystem.

    A plan is pure data: it names the faults an adversarial execution will
    inject, and the seed all injection randomness derives from.  The runner
    ({!Runner.run}'s [?faults]) interprets the message- and node-level
    faults; the advice-level faults are interpreted {e before} the run by
    [Fault.Corrupt], as a pure transform of the oracle's advice assignment.
    Identical plan + seed + scheduler yields a bit-identical event stream
    (the determinism tests in [test/test_obs.ml] assert this).

    Node indices in a plan refer to runner node indices.  Plans are
    graph-independent specs (the stress bench applies one plan across a
    whole grid of networks), so out-of-range node faults are ignored, as
    are node faults naming the source where the fault would make the task
    vacuous (a dead source cannot start a broadcast). *)

type advice_fault =
  | Flip of int  (** flip this many advice bits, at seeded positions *)
  | Truncate of int  (** drop this many final bits from every nonempty advice *)
  | Swap of int * int  (** exchange the advice strings of two nodes *)
  | Garbage of int  (** replace every node's advice with this many seeded random bits *)

type t = {
  seed : int;  (** all injection randomness derives from this *)
  drop : float;  (** iid per-message drop probability, in [0,1) *)
  duplicate : float;  (** iid probability a message is enqueued twice *)
  reorder_every : int;  (** 0 = off; every k-th push flushes the burst reversed *)
  delay : (float * int) option;  (** [(p, max)]: with prob. [p] hold a message back 1..max steps *)
  crashes : (int * int) list;  (** [(node, step)]: crash-stop at the given scheduler step *)
  dead : int list;  (** initially-dead nodes (non-source; never start, never receive) *)
  advice : advice_fault list;  (** applied in order by [Fault.Corrupt.apply] *)
}

val none : t
(** The empty plan: a faultless run. *)

val is_none : t -> bool
(** No faults of any kind (the seed is not compared). *)

val has_network_faults : t -> bool
(** Any message- or node-level fault present (i.e. the runner has work to
    do; advice faults alone leave the network untouched). *)

val to_string : t -> string
(** Canonical spec string, e.g. ["drop=0.1,crash=3@17,seed=7"]; parses back
    with {!of_string}.  The empty plan prints as ["none"]. *)

val of_string : string -> (t, string) result
(** Parse a comma-separated spec: [drop=P], [dup=P], [reorder=K],
    [delay=P:MAX], [crash=NODE@STEP], [dead=NODE], [advice-flip=K],
    [advice-trunc=K], [advice-swap=U:V], [advice-garbage=K], [seed=N].
    [crash], [dead] and advice faults may repeat; probabilities must lie in
    [0,1). *)

val of_string_exn : string -> t
(** Raises [Invalid_argument] where {!of_string} returns [Error]. *)

val builtins : (string * t) list
(** The named plans the robustness tests and the stress bench sweep:
    one plan per fault dimension plus a composite, keyed by their spec
    strings. *)
