(** The hardened form of a paper scheme.

    The paper's two schemes, the Theorem 2.1 wakeup
    ({!Wakeup.hardened_scheme}) and the Theorem 3.1 Scheme B
    ({!Broadcast.hardened_scheme}), are hardened the same way: each node
    decides once whether to trust its advice, runs the plain scheme on
    advice it trusts and advice-free flooding otherwise, and carries one
    recovery overlay in both modes.  A scheme supplies only its checked
    factory, which validates the advice as it reads it. *)

(** {1 The port rule: every port below the degree, none repeated}

    A checked reader folds {!admit} over the ports as it decodes them,
    on past a rejected port (a decode error anywhere is the reason
    given), then asks {!check}. *)

type ports = private {
  degree : int;
  mutable word : int;  (** ports 0..61 admitted so far, bit [p] for port [p] *)
  mutable over : int list;  (** the others: latest first, ascending after {!check} *)
  mutable ok : bool;  (** no port so far broke the rule *)
}

val ports : degree:int -> ports
val admit : ports -> int -> ports
(** Takes one port, or marks the set unusable; allocates nothing below 62. *)

val check : ports -> (unit, string) result
(** [Error "unusable ports"] when an admitted port broke the rule. *)

(** {1 The hardened scheme} *)

val scheme :
  protect:Bitstring.Ecc.level ->
  hello:bool ->
  ?on_fallback:(int -> string -> unit) ->
  ?on_corrected:(int -> int -> unit) ->
  (Sim.History.static -> (Sim.Scheme.node, string) result) ->
  Sim.Scheme.factory
(** [scheme ~protect ~hello checked] is the plain scheme on validated
    advice, under one recovery overlay.

    - {b Advice trusted.}  The advice passes the [protect] ECC level
      ({!Bitstring.Ecc.unprotect}) and [checked], the scheme's advice
      reader, returns the plain node from the ECC-stripped payload (at
      [Raw], the advice itself): it decodes and obeys the port rule.
    - {b Advice rejected.}  The node runs one node of
      {!Sim.Scheme.flooding}, correct on any connected graph at Θ(m)
      cost.  With [hello], a non-source node also sends "hello" on
      every port at start, so an advised neighbour whose advice omits
      the shared edge still learns it.
    - {b Recovery overlay.}  A link timeout means the neighbour
      crash-stopped, stranding whatever the advised tree routed through
      it.  An informed node that sees one floods the
      {!Sim.Message.reflood} marker away from that port.  A node that
      receives the marker handles it as the source message through the
      same port, then floods it on, at most once per node.  That is at
      most [2m] messages to re-cover the surviving component.  A node
      is informed once it is the source or has received the source
      message, in either mode.

    [on_fallback] is called on a rejected node with its label and the
    ECC error or the [Error] of [checked]; [on_corrected] on a trusted
    node with its label and the corrected-error count, when that count
    is positive.  Both are called when the node is built. *)
