(** Pluggable telemetry consumers.

    A sink is where {!Event.t} values go: a counter ({!Counting}), a
    bounded in-memory trace ({!Ring}), a JSONL file ({!Jsonl}), or any
    user function.  Emitters (the simulation runner, protocol wrappers)
    call {!emit} per event; the party that created a sink is responsible
    for calling {!close} on it once no more events will arrive —
    emitters never close sinks they were handed.

    Sinks are {e single-writer}: a sink belongs to the domain that
    created it, and {!emit} fails fast (raises [Failure]) from any other
    domain — the underlying consumers (file buffers, ring cursors,
    counters) are unsynchronized, and interleaved lines from parallel
    workers would corrupt output silently.  Parallel sweeps return rows
    and serialize them in one ordered pass on the owning domain after the
    join (see [Sim.Sweep]); worker-side runs use sinks the worker created
    itself.  {!null} is exempt. *)

type t
(** A telemetry consumer. *)

val make : ?close:(unit -> unit) -> (Event.t -> unit) -> t
(** [make f] is a sink calling [f] on every event.  [close] (default: a
    no-op) runs at most once, when {!close} is called.  The sink is owned
    by the calling domain. *)

val emit : t -> Event.t -> unit
(** Feed one event.  Emitting on a closed sink is a no-op.  Emitting from
    a domain other than the sink's creator raises [Failure] (single-writer
    contract; see the module preamble). *)

val close : t -> unit
(** Flush and release the sink's resources.  Idempotent. *)

val null : t
(** Discards everything. *)

val tee : t list -> t
(** A sink duplicating every event to each sink in the list, in order.
    Closing the tee closes the underlying sinks. *)

val filter : (Event.t -> bool) -> t -> t
(** [filter p s] forwards to [s] only the events satisfying [p].  Closing
    the filter closes [s]. *)

val collect : unit -> t * (unit -> Event.t list)
(** An unbounded in-memory sink and a function returning everything
    collected so far, oldest first.  For tests and small runs; use
    {!Ring} when the trace must stay bounded. *)
