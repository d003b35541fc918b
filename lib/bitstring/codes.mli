(** Self-delimiting codes used by the oracles.

    Three codes:

    {ul
    {- The paper's Theorem 2.1 code for a list of port numbers: the ports
       are written with a common fixed width [w], and [w] itself is made
       self-delimiting by doubling each bit of its binary representation and
       terminating with the pair [10] (the sequence
       [β = b₁b₁b₂b₂…b_rb_r10] of the paper).  Total length
       [c·w + 2·#₂(w) + 2] bits for [c] ports.  The paper appends β after
       the payload; we emit it first so a one-pass reader suffices — the
       code, and in particular its length, is unchanged.}
    {- The Claim 3.1 "marked-bit" code for a list of weights: every value is
       written as its standard binary representation [#₂(w)] bits, each
       payload bit followed by a flag bit marking whether it ends the
       value.  Total length exactly [2·Σ #₂(wᵢ)], which is what gives the
       [≤ 8n] oracle of Theorem 3.1.}
    {- The classical Elias gamma code.  It is the [Gamma] advice
       encoding of the wakeup and broadcast oracles (the E7 ablation),
       and the integer code of every other advice string and message
       payload in the library, and of the whole-graph codec.}} *)

(** {1 The Theorem 2.1 port-list code} *)

val write_port_list : Bitbuf.t -> width:int -> int list -> unit
(** [write_port_list buf ~width ports] writes the doubled-bit width header
    followed by each port in exactly [width] bits.  [width ≥ 1]; every port
    must fit.  An empty list is written as an empty string (a leaf of the
    spanning tree receives no advice at all, as in the paper). *)

val read_port_list : Bitbuf.reader -> int list
(** Decode a string produced by {!write_port_list}, consuming the reader to
    its end.  An exhausted reader decodes to [[]].
    Raises [Invalid_argument] if the remaining payload length is not a
    multiple of the decoded width, or if the width header exceeds 62. *)

val map_port_list : Bitbuf.reader -> (int -> 'a) -> 'a list
(** [map_port_list r f] is [List.map f (read_port_list r)], built in one
    pass: each port is read and passed to [f] in stream order, and no
    list of ports is built.  {!read_port_list} is [map_port_list r Fun.id];
    same header parser, same errors. *)

val fold_port_list : Bitbuf.reader -> ('a -> int -> 'a) -> 'a -> 'a
(** {!read_port_list} as a fold: same header parser, same errors. *)

val port_list_length : width:int -> count:int -> int
(** Exact encoded size in bits: [0] when [count = 0], otherwise
    [count*width + 2*(#₂ width) + 2]. *)

(** {1 The Claim 3.1 marked-bit code} *)

val write_marked : Bitbuf.t -> int -> unit
(** Append one non-negative integer in marked-bit form: [2·#₂(w)] bits. *)

val read_marked : Bitbuf.reader -> int
(** Decode one marked-bit integer.  Leading zero payload bits are
    accepted; a value above [max_int] raises [Invalid_argument]. *)

val write_marked_list : Bitbuf.t -> int list -> unit

val read_marked_list : Bitbuf.reader -> int list
(** Decode marked-bit integers until the reader is exhausted. *)

val fold_to_end : (Bitbuf.reader -> int) -> Bitbuf.reader -> ('a -> int -> 'a) -> 'a -> 'a
(** Fold over the values [read] decodes until the reader is exhausted. *)

val map_to_end : (Bitbuf.reader -> int) -> Bitbuf.reader -> (int -> 'a) -> 'a list
(** The values [read] decodes until the reader is exhausted, each passed
    to [f] in stream order, in one pass and in constant stack. *)

val marked_length : int list -> int
(** Exact encoded size: [2·Σ #₂(wᵢ)]. *)

(** {1 Non-raising decoders}

    The decoders above assume the oracle wrote the advice and raise on
    malformed input; tampered advice must give a reason instead. *)

val guard : string -> ('a -> ('b, string) result) -> 'a -> ('b, string) result
(** [guard name f x] is [f x] with [Invalid_argument msg] as [Error msg]
    and running out of bits as [Error "Codes.<name>: out of bits"].  The
    hardened schemes' checked readers run under it, named after their
    code's [_result] decoder, so both give the same reasons. *)

(** Total decoders.  No scheme calls them: the tests and the reference
    models of the hardened schemes do. *)

val read_port_list_result : Bitbuf.reader -> (int list, string) result
(** Non-raising {!read_port_list}. *)

val read_marked_list_result : Bitbuf.reader -> (int list, string) result
(** Non-raising {!read_marked_list}. *)

val read_gamma_list_result : Bitbuf.reader -> (int list, string) result
(** Read gamma-coded integers to the end of the reader, non-raising. *)

(** {1 Elias gamma} *)

val write_gamma : Bitbuf.t -> int -> unit
(** Elias gamma of [n ≥ 0] (encodes [n+1] internally): [2⌊log(n+1)⌋+1]
    bits. *)

val read_gamma : Bitbuf.reader -> int
(** Raises [Invalid_argument] on a zero prefix longer than 61 bits, whose
    value would not fit in an [int]. *)

val gamma_length : int -> int
(** Bits used by {!write_gamma}. *)
