(** The worker half of the distributed sweep protocol.

    A worker process speaks {!Bitstring.Frame} frames over a byte
    stream ({!Transport.io}) — supervisor→worker traffic is config,
    task batches, and shutdown; worker→supervisor is announce,
    heartbeats, and results — and executes tasks handed to it by
    {!Dispatch}.  The stream is a pipe pair when {!Dispatch} forked the
    worker, or a TCP socket for a remote worker started with
    [--connect].  The failure model is crash-stop: a worker that dies,
    hangs, or emits one malformed frame is discarded wholesale and its
    in-flight batch reassigned; nothing retransmits.  A condemned
    {e remote} worker may reconnect and re-handshake as a new peer —
    {!serve_io} returns [`Lost] instead of exiting precisely so its
    caller can loop.  Results are pure functions of task indices, so
    worker identity, placement, and timing are invisible in sweep
    output — the property the chaos determinism tests pin.

    Wire layout (field widths normative, see DESIGN.md §13): both
    [Hello] shapes share a frame kind, so their payloads start with a
    1-bit discriminator.  Announce [Hello] (tag 0) carries the worker
    id in the frame key, then an 8-bit wire version, a 16-bit token
    byte length, and the authentication token bytes; config [Hello]
    (tag 1) carries a {!Journal.context_payload}.  [Task] frames key
    the batch sequence number over a 16-bit count plus 32-bit indices;
    [Result] frames key the task index over one ok bit plus either a
    {!Journal.entry_payload} or a length-prefixed error string;
    [Heartbeat] carries a 32-bit completed-task count; [Shutdown] is
    empty. *)

val wire_version : int
(** The protocol version an announce [Hello] carries: [2] (version 1
    was the unauthenticated pipe-only layout).  A supervisor refuses
    workers announcing anything else. *)

val max_auth_bytes : int
(** Longest encodable authentication token (65535 bytes — the width of
    the token length field). *)

type msg =
  | Hello of { worker : int; wire_version : int; auth : string }
      (** worker→supervisor: first frame after spawn or (re)connect.
          [auth] must equal the supervisor's shared-secret token (both
          default to [""]); a mismatch is condemnation before any task
          frame is sent. *)
  | Config of Journal.context
      (** supervisor→worker: the grid spec and extra context the worker
          must build its executor from *)
  | Task_batch of { seq : int; indices : int array }
      (** supervisor→worker: run these canonical task indices, in order *)
  | Result of { index : int; result : (Journal.entry, string) result }
      (** worker→supervisor: one task's outcome *)
  | Heartbeat of { worker : int; count : int }
      (** worker→supervisor: liveness beacon, sent before each task *)
  | Shutdown  (** supervisor→worker: finish up and exit 0 *)

val encode : msg -> string
(** The message's on-wire bytes — a single {!Bitstring.Frame}. *)

val parse : Bitstring.Frame.t -> (msg, string) result
(** Interpret a decoded frame as a protocol message.  Total: every
    malformed payload (and any journal-kind frame) maps to [Error],
    which a crash-stop peer treats as the sender being dead.  An [Ok]
    message re-encodes to the frame's exact bytes: a config hello or a
    shutdown whose key is not 0 is malformed too. *)

(** Incremental frame reassembly over a byte stream.  Streams deliver
    bytes, not frames — a trickled TCP link delivers one byte per read
    — so [Rx] buffers fed bytes and peels complete frames off the
    front. *)
module Rx : sig
  type t

  val create : unit -> t

  val feed : t -> Bytes.t -> int -> unit
  (** [feed rx buf n] appends the first [n] bytes of [buf]. *)

  val next : t -> (Bitstring.Frame.t option, string) result
  (** The next complete frame, if any.  [Ok None] means the buffered
      bytes are a (possibly empty) prefix of a frame — feed more.  Any
      decode failure other than truncation is [Error]: the stream is
      unrecoverable and the peer should be written off. *)

  val pending : t -> int
  (** Buffered bytes not yet consumed by {!next}. *)
end

val logf : id:int -> ('a, unit, string, unit) format4 -> 'a
(** Worker-attributed stderr logging: each line is prefixed with
    [\[+SECONDS wID\]] — elapsed seconds since this process first
    logged, clamped monotonic within the process — so interleaved
    multi-host [--worker-logs] output stays attributable post-mortem.
    Stamps are not comparable across hosts. *)

type lost = [ `Eof | `Gone ]
(** Why a connection died under the worker: [`Eof] — the supervisor
    closed the stream (or was never there); [`Gone] — a write failed
    ([EPIPE]/[ECONNRESET], typically after condemnation) or the socket
    receive timeout expired behind a partition. *)

type outcome = [ `Exit of int | `Lost of lost ]

val serve_io :
  id:int ->
  ?auth:string ->
  ?chaos:
    (completed:int ->
    [ `Continue | `Kill | `Hang | `Garbage of string | `Partition of float ]) ->
  ?completed:int ref ->
  exec:(Journal.context -> (int -> (Journal.entry, string) result, string) result) ->
  Transport.io ->
  outcome
(** [serve_io ~id ~exec io] runs one protocol session over [io]:
    announce (carrying [auth], default [""]), await config, build the
    task executor with [exec] (failure is [`Exit 3], reported on
    stderr), then heartbeat-execute-respond through task batches until
    [Shutdown] ([`Exit 0]).  Malformed supervisor traffic is [`Exit 2].
    Connection loss is a value, not an exit: [`Lost] tells a TCP
    caller it may reconnect and call [serve_io] again — pass the same
    [completed] counter (tasks completed, fed to [chaos]) across
    sessions so one worker's chaos schedule spans its rejoins.

    [chaos] is the deterministic fault-injection hook, consulted before
    every task: [`Kill] exits abruptly via [Unix._exit] (no flush — a
    simulated crash), [`Hang] sleeps forever so the supervisor's
    heartbeat deadline must fire, [`Garbage s] writes the raw bytes [s]
    mid-stream and exits, [`Partition s] falls silent for [s] seconds
    with the connection open — condemned and rejoining if [s] outlasts
    the supervisor's heartbeat timeout, a mere slow link otherwise.
    {!Fault.Chaos} compiles [--chaos] specs into this hook. *)
