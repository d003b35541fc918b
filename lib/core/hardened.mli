(** The advice-trust policy shared by the hardened schemes.

    The paper hardens two schemes, the Theorem 2.1 wakeup
    ({!Wakeup.hardened_scheme}) and the Theorem 3.1 Scheme B
    ({!Broadcast.hardened_scheme}).  Both decide once per node whether to
    trust its advice, and both recover the same way: by advice-free
    flooding when the advice is rejected, and by a one-shot reflood when
    a link times out.  Each scheme keeps only its own decoder and its own
    informed/degraded state. *)

val advised :
  protect:Bitstring.Ecc.level ->
  decode:(Bitstring.Bitbuf.t -> (int list, string) result) ->
  ?on_fallback:(int -> string -> unit) ->
  ?on_corrected:(int -> int -> unit) ->
  Sim.History.static ->
  int list option
(** [advised ~protect ~decode static] is [Some ports] when the node may
    trust its advice: the advice passes the [protect] ECC level
    ({!Bitstring.Ecc.unprotect}), the payload [decode]s, and the ports
    are distinct and below the node's degree.  Otherwise it is [None]
    and the node must fall back to flooding.  [on_fallback] is called on
    [None] with the node's label and the ECC, decode or validation
    error; [on_corrected] is called on [Some _] with the label and the
    corrected-error count, when that count is positive. *)

val flood : Sim.Message.t -> degree:int -> int option -> (Sim.Message.t * int) list
(** [flood msg ~degree arrival] sends [msg] on every port in ascending
    order, except the [arrival] port: one node of
    {!Sim.Scheme.flooding}. *)

val reflood : degree:int -> int option -> (Sim.Message.t * int) list
(** [reflood ~degree] is one node's recovery overlay.  A link timeout
    means the neighbour crash-stopped, stranding whatever the advised
    tree routed through it; the node that detects it re-disseminates by
    flooding the {!Sim.Message.reflood} marker, and every hardened node
    forwards that marker once.  That is at most [2m] messages to re-cover
    the surviving component.  The first call floods the marker away from
    the given arrival port; every later call sends nothing. *)
