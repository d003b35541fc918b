(** Growable buffers of bits, with a sequential reader.

    Oracles in the paper assign a binary string [f(v)] to every node [v];
    the size of an oracle is the total number of bits it assigns.  This
    module is the concrete representation of those strings: an append-only
    bit buffer (MSB-first within each byte) plus a cursor-based reader used
    by the decoding side of each advice scheme. *)

type t
(** A mutable buffer of bits. *)

exception End_of_bits
(** Raised by readers running past the last bit. *)

val create : ?capacity:int -> unit -> t
(** [create ()] is an empty buffer.  [capacity] is a hint in bits. *)

val length : t -> int
(** Number of bits currently in the buffer. *)

val is_empty : t -> bool

val add_bit : t -> bool -> unit
(** Append one bit. *)

val add_bits : t -> bool list -> unit
(** Append bits in list order. *)

val add_int : t -> width:int -> int -> unit
(** [add_int t ~width v] appends the [width] low-order bits of [v],
    most significant first.  Raises [Invalid_argument] if [v] does not fit
    in [width] bits, if [v < 0], or if [width < 0]. *)

val append : t -> t -> unit
(** [append dst src] appends all bits of [src] to [dst]. *)

val get : t -> int -> bool
(** [get t i] is the [i]-th bit (0-based).  Raises [Invalid_argument] when
    out of range. *)

val copy : t -> t

val equal : t -> t -> bool
(** Bitwise equality (same length, same bits). *)

val to_string : t -> string
(** ASCII rendering, e.g. ["01101"]. *)

val of_string : string -> t
(** Inverse of {!to_string}.  Raises [Invalid_argument] on characters other
    than ['0'] and ['1']. *)

val of_bits : bool list -> t

val to_bits : t -> bool list

(** {1 Byte serialization}

    The packed form used by on-disk formats ({!Frame}): bits are laid
    out MSB-first within each byte — bit [i] of the buffer is bit
    [7 - (i mod 8)] of byte [i / 8] — and the final partial byte, if
    any, is padded with zero bits. *)

val byte_length : t -> int
(** [⌈length/8⌉] — the number of bytes {!to_bytes} returns. *)

val to_bytes : t -> Bytes.t
(** The packed bytes.  Pad bits of the last byte are guaranteed zero.
    The result is fresh; mutating it does not affect the buffer. *)

val of_bytes : Bytes.t -> pos:int -> bits:int -> t
(** [of_bytes b ~pos ~bits] reads [bits] bits from the packed bytes
    starting at byte [pos] — the inverse of {!to_bytes} (any nonzero pad
    bits in the source's last byte are ignored).  Raises
    [Invalid_argument] when [bits < 0] or the byte range falls outside
    [b]. *)

val pp : Format.formatter -> t -> unit
(** Prints the {!to_string} rendering. *)

(** {1 Reading} *)

type reader
(** A cursor over a buffer.  The underlying buffer must not be mutated
    while a reader is in use. *)

val reader : t -> reader
(** A fresh reader positioned at bit 0. *)

val read_bit : reader -> bool
(** Consume one bit.  @raise End_of_bits at the end of the buffer. *)

val read_int : reader -> width:int -> int
(** Consume [width] bits as an MSB-first integer.  Raises
    [Invalid_argument] if [width] is negative or above 62, the bits of a
    non-negative OCaml [int].
    @raise End_of_bits if fewer than [width] bits remain. *)

val remaining : reader -> int
(** Bits left to read. *)

val pos : reader -> int
(** Bits consumed so far. *)

val at_end : reader -> bool
