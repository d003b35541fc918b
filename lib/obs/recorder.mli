(** A flat, reusable in-memory event log.

    Recording a run's stream as a list keeps every boxed event alive while
    the run allocates, so the minor collector promotes all of them.  A
    recorder instead packs the kinds a run emits per message or per node —
    [Send], [Deliver], [Wake] and [Advice_read] — into four ints each in
    one growable array; the event records the emitter built die young.
    Every other kind (those carrying strings, and the rare fault and
    recovery events), and a packed kind with a field outside its packed
    range, is kept boxed in a side list.  {!to_list} rebuilds the exact
    stream ([=] to what was pushed) in one pass.

    Packed ranges: [round], [depth], [src] and [dst] in [0, 2{^30});
    [src_port], [dst_port] and [bits] in [0, 2{^21}); [seq], and a
    [Wake]'s or [Advice_read]'s node and bits, verbatim.

    {!Sink.collect} is a recorder behind a sink; {!Fault.Harness.run}
    keeps one per domain and {!clear}s it between runs.  Not
    synchronized: one writer at a time. *)

type t

val create : unit -> t
(** An empty recorder. *)

val push : t -> Event.t -> unit
(** Append one event. *)

val to_list : t -> Event.t list
(** Everything recorded, oldest first; the recorder is unchanged. *)

val clear : t -> unit
(** Forget everything recorded, keeping the buffer for reuse. *)
