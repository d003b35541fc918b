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

    {!Sink.collect} is a recorder behind a sink.  {!Sim.Runner.run}
    appends to one through its [?scratch] argument: with no caller sinks
    it writes [Send], [Deliver], [Wake] and [Advice_read] records with
    the direct appends below, and never builds their events.
    {!Fault.Harness.run} keeps one per domain and {!clear}s it between
    runs.  Not synchronized: one writer at a time. *)

type t

val create : unit -> t
(** An empty recorder. *)

val push : t -> Event.t -> unit
(** Append one event. *)

(** {1 Direct appends}

    Each appends the record {!push} would append for the event its
    arguments describe, without building that event; a field outside
    its packed range boxes the event instead, as {!push} does. *)

val send :
  t ->
  seq:int ->
  round:int ->
  src:int ->
  src_port:int ->
  dst:int ->
  dst_port:int ->
  cls:Event.msg_class ->
  bits:int ->
  informed:bool ->
  depth:int ->
  unit
(** A [Send] event with these fields. *)

val deliver :
  t ->
  seq:int ->
  round:int ->
  src:int ->
  src_port:int ->
  dst:int ->
  dst_port:int ->
  cls:Event.msg_class ->
  bits:int ->
  informed:bool ->
  depth:int ->
  unit
(** A [Deliver] event with these fields. *)

val wake : t -> seq:int -> round:int -> int -> unit
(** [wake t ~seq ~round v] appends [Wake v]. *)

val advice_read : t -> seq:int -> round:int -> int -> bits:int -> unit
(** [advice_read t ~seq ~round v ~bits] appends [Advice_read (v, bits)]. *)

(** {1 Reading} *)

val iter : t -> (Event.t -> unit) -> unit
(** [iter t f] applies [f] to everything recorded, oldest first, building
    each event as it goes; [f] must not append to [t]. *)

val iter_boxed : t -> (Event.t -> unit) -> unit
(** [iter_boxed t f] applies [f] to the boxed events alone, newest
    first: every [Decide], [Fault] and [Recover] event, and each packed
    kind whose fields fell outside their ranges.  It decodes nothing
    and allocates nothing. *)

val uninformed_send : t -> bool
(** Was a [Send] with [informed = false] recorded, packed or boxed?  A
    scan of the packed records' tag and flag bits that decodes nothing
    and allocates nothing. *)

val to_list : t -> Event.t list
(** Everything recorded, oldest first; the recorder is unchanged. *)

val clear : t -> unit
(** Forget everything recorded, keeping the buffer for reuse. *)
