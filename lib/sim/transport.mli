(** Byte transports for the distributed sweep protocol.

    {!Worker} and {!Dispatch} speak CRC-framed messages over "some
    stream of bytes"; this module supplies the streams.  Three kinds:

    - {!fd_io}/{!socket_io} wrap raw file descriptors (the pipe mode
      and TCP sockets) in a uniform blocking {!io} record;
    - {!listen}/{!accept} give the supervisor a nonblocking TCP
      listener whose fd folds into {!Dispatch}'s select loop;
    - {!connect} gives a remote worker a bounded-retry client socket
      with a receive timeout — the worker's half of partition
      detection.

    The {!Shim} degrades a stream's {e delivery} (stalls, byte-by-byte
    trickle) without ever altering its content, which is how network
    chaos schedules stay byte-identity-preserving by construction.
    Transport knows nothing about frames: framing, authentication, and
    crash-stop condemnation live in {!Worker} and {!Dispatch}. *)

type io = {
  read : Bytes.t -> int;
      (** Blocking read into the whole buffer; returns bytes read, [0]
          at EOF.  Restarts on [EINTR]; raises [Unix.Unix_error]
          otherwise (notably [EAGAIN] when a socket receive timeout
          expires). *)
  write : string -> unit;
      (** Write the whole string, restarting on partial writes and
          [EINTR]; raises [Unix.Unix_error] (notably [EPIPE]). *)
  close : unit -> unit;  (** Close the underlying fd(s).  Idempotent. *)
}

val fd_io : input:Unix.file_descr -> output:Unix.file_descr -> io
(** A blocking stream over an fd pair (equal fds are closed once). *)

val socket_io : Unix.file_descr -> io
(** [fd_io] with both directions on one socket. *)

(** Deterministic network-fault state, mutated by
    {!Fault.Chaos.hook}'s [delay]/[slow]/[trickle] directives and
    consumed by {!shimmed}. *)
module Shim : sig
  type state = {
    mutable delay_s : float;
        (** One-shot pre-write stall in seconds; reset to [0.] once
            served.  Models a slow link that recovers. *)
    mutable slow_s : float;
        (** Sticky: every subsequent write stalls this long first.
            Models a persistently degraded machine or link — the
            deterministic straggler the adaptive scheduler is measured
            against. *)
    mutable trickle : bool;
        (** Sticky: every subsequent write goes out one byte at a
            time, exercising the receiver's frame reassembly. *)
  }

  val create : unit -> state
  (** No faults armed. *)
end

val shimmed : Shim.state -> io -> io
(** [shimmed s io] degrades [io]'s writes per [s] (reads untouched).
    Content is never altered — a shimmed stream delivers exactly the
    bytes written to it. *)

(** {1 Supervisor side} *)

type listener

val listen : ?backlog:int -> port:int -> unit -> (listener, string) result
(** Bind [INADDR_ANY:port] ([SO_REUSEADDR]), listen, and set the fd
    nonblocking.  [port = 0] binds an ephemeral port — read it back
    with {!bound_port}. *)

val listener_fd : listener -> Unix.file_descr
(** The nonblocking fd, for select: readable means connections are
    pending. *)

val bound_port : listener -> int

val accept : listener -> (Unix.file_descr * string) option
(** One pending connection, or [None] when the queue is empty.  The
    returned fd is blocking with [TCP_NODELAY] set; the string is the
    peer address, for logs. *)

val close_listener : listener -> unit

(** {1 Worker side} *)

val parse_hostport : string -> (string * int, string) result
(** Split ["HOST:PORT"]; the port must be in 1..65535. *)

val connect :
  ?read_timeout:float ->
  host:string ->
  port:int ->
  attempts:int ->
  retry_delay:float ->
  unit ->
  (Unix.file_descr, string) result
(** Resolve [host] and connect, retrying transient failures
    (connection refused, unreachable, timeout) up to [attempts] times
    [retry_delay] seconds apart — remote workers routinely start
    before their supervisor.  The socket gets [TCP_NODELAY] and a
    [read_timeout]-second receive timeout (default 60; a supervisor
    silent that long fails the worker's read with [EAGAIN] instead of
    wedging it behind a partition forever). *)

(** {1 Shared helpers} *)

val write_all : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** Write the whole range, restarting on partial writes and [EINTR]. *)

