(** Broadcast and wakeup schemes.

    A scheme in the paper is a per-node function from histories to sets of
    [(message, port)] couples to send.  The executable form here is a
    stateful node built by a {!factory} from the node's static knowledge
    [(f(v), s(v), id(v), deg(v))]; the paper's pure form is recovered with
    {!of_pure}.

    A {e wakeup} scheme is a broadcast scheme whose nodes send nothing
    before receiving a message, unless they are the source; {!check_wakeup}
    enforces this at runtime. *)

type send = Message.t * int
(** A message and the local out-port it leaves through. *)

type node = {
  on_start : unit -> send list;
      (** Consulted once, before any message is delivered — the paper's
          scheme applied to the empty history.  This is where broadcast
          schemes may transmit spontaneously. *)
  on_receive : Message.t -> port:int -> send list;
      (** Consulted on each delivery — the scheme applied to the extended
          history. *)
}

type factory = History.static -> node
(** What an algorithm [A] returns for a node: its scheme. *)

val of_pure : (History.t -> send list) -> factory
(** Adapt a paper-style pure scheme (history ↦ couples to send now).  The
    resulting node replays no history; each call sees the full history
    including the new message. *)

val silent : factory
(** Never sends anything. *)

val check_wakeup : factory -> factory
(** Wrap a factory so that a non-source node producing sends from an empty
    history raises [Failure] — the wakeup restriction of Section 1.4. *)

val flood : Message.t -> degree:int -> int option -> send list
(** [flood msg ~degree arrival] sends [msg] on every port in ascending
    order, except the [arrival] port: what a {!flooding} node sends on
    being informed. *)

val flooding : factory
(** The oracle-free baseline: the source starts by sending [Source] on all
    ports; every node forwards [Source] on all other ports upon first
    receipt.  Message complexity Θ(m). *)
