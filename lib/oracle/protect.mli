(** Error-protected oracles.

    [Protect] lifts the ECC layer ({!Bitstring.Ecc}) from single bit
    strings to whole oracles: every node's advice string is encoded
    independently, so corruption of one node's advice never contaminates
    another's, and a node can decode (and correct) on its own at wake-up
    — exactly the locality the paper's model demands.

    Protection is paid for in the oracle-size measure: the protected
    oracle's size on [G] is [Σ_v protected_length level |f(v)|], which
    {!Bitstring.Ecc.protected_length} makes exact.  [Hamming] keeps the
    total within 3× of the raw size on every network (tested); that is
    the price of turning single-bit advice attacks from a Θ(m) flooding
    fallback into a local correction. *)

val advice : Bitstring.Ecc.level -> Advice.t -> Advice.t
(** Encode every node's string; empty strings stay empty.  [Raw]
    returns the assignment itself, every other level a fresh one. *)

val oracle : Bitstring.Ecc.level -> Oracle.t -> Oracle.t
(** The protected oracle: advises [advice level (o.advise g ~source)].
    Its name is [<name>|ecc:<level>] ([Raw] returns the oracle
    unchanged). *)

val size_bits : Bitstring.Ecc.level -> Advice.t -> int
(** Protected total size of a raw assignment, without encoding it:
    [Σ_v protected_length level |f(v)|]. *)
