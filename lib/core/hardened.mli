(** The hardened form of a paper scheme.

    The paper's two schemes, the Theorem 2.1 wakeup
    ({!Wakeup.hardened_scheme}) and the Theorem 3.1 Scheme B
    ({!Broadcast.hardened_scheme}), are hardened the same way: each node
    decides once whether to trust its advice, runs the plain scheme on
    advice it trusts and advice-free flooding otherwise, and carries one
    recovery overlay in both modes.  A scheme supplies only its plain
    factory and its non-raising decoder. *)

val scheme :
  protect:Bitstring.Ecc.level ->
  decode:(Bitstring.Bitbuf.t -> (int list, string) result) ->
  hello:bool ->
  ?on_fallback:(int -> string -> unit) ->
  ?on_corrected:(int -> int -> unit) ->
  Sim.Scheme.factory ->
  Sim.Scheme.factory
(** [scheme ~protect ~decode ~hello plain] is [plain] on validated
    advice, under one recovery overlay.

    - {b Advice trusted.}  The advice passes the [protect] ECC level
      ({!Bitstring.Ecc.unprotect}), the payload [decode]s, and the
      ports are distinct and below the node's degree.  The node then
      runs [plain] on the ECC-stripped payload (at [Raw], the advice
      itself).  [plain] decodes that payload again; the check only
      guarantees it names ports the node has.
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
    ECC, decode or validation error; [on_corrected] on a trusted node
    with its label and the corrected-error count, when that count is
    positive.  Both are called when the node is built. *)
