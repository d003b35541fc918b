(** What one point of an [oraclesize sweep] grid means: the protocol
    names its grid axis accepts, the journal context that pins the two
    knobs a grid does not carry ([protect] and [retry]), the per-worker
    caches, the run itself and the JSONL row it prints.

    The sweep, [journal ls]/[verify] and every worker (pipe or TCP) go
    through this one module, so a point executed anywhere yields the
    same {!Sim.Journal.entry} and the same row bytes. *)

val protocols : (string * Harness.protocol) list
(** [wakeup] and [broadcast]: the names a grid's protocols axis takes. *)

val parse_grid : string -> (Sim.Sweep.grid, string) result
(** {!Sim.Sweep.of_string}, refusing any protocol not in {!protocols} —
    so {!execute} never meets an unknown name. *)

val context : protect:Bitstring.Ecc.level -> retry:int -> string
(** The journal superblock's extra context (and the worker config
    frame's): ["protect=LEVEL;retry=N"], with the canonical
    {!Bitstring.Ecc.name} and decimal [N]. *)

val parse_context : string -> (Bitstring.Ecc.level * int, string) result
(** The inverse of {!context}, canonical only: it accepts exactly the
    strings {!context} writes and returns [Error] on anything else
    (aliases such as [none], signs, [0x], [_] or spaces in [N]). *)

type caches = {
  graphs : (string * int * int, Netgraph.Graph.t) Sim.Sweep.Cache.t;
      (** keyed by (family name, n, {!Sim.Sweep.graph_seed}) *)
  advice : (string * (string * int * int), Oracles.Advice.t) Sim.Sweep.Cache.t;
      (** keyed by (protocol name, graph key) *)
}
(** One worker's graph and advice caches; not synchronized. *)

val caches : unit -> caches
(** Fresh, empty caches. *)

val execute :
  Sim.Sweep.grid ->
  protect:Bitstring.Ecc.level ->
  retry:int ->
  caches ->
  Sim.Sweep.point ->
  Sim.Journal.entry
(** Run one point of a grid returned by {!parse_grid}: build (or reuse)
    its graph, then {!Harness.cached_entry} under the point's scheduler
    and plan.  A pure function of the point's coordinates and
    [(protect, retry)], which is what lets [journal verify] re-execute a
    point and byte-compare the re-encoded entry. *)

val row : Sim.Sweep.point -> Sim.Journal.entry -> string
(** The point's JSONL row, without the trailing newline.  Built from the
    entry alone, so replayed and fresh points print the same bytes. *)
