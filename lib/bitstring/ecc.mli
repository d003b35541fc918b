(** Error protection for advice strings.

    The oracle-size measure counts every bit the oracle hands out, so a
    scheme that survives advice corruption by redundancy must pay for that
    redundancy in the measure itself.  This module provides the coding
    layer: a {!level} names a code, {!protect} expands a string into its
    protected form, {!unprotect} inverts it — detecting, and when the code
    allows it correcting, channel errors — and {!protected_length} gives
    the exact protected size so the accounting stays honest.

    The empty string is a fixed point of every level: a leaf that receives
    no advice in the paper still receives none protected (protection must
    not leak bits to nodes the oracle chose to leave silent).

    Codes:
    - [Crc]: an 8-bit CRC (polynomial x⁸+x²+x+1) appended to the payload —
      detection only, constant 8-bit overhead;
    - [Hamming]: a single-error-correcting Hamming code over the whole
      string, parity bits at power-of-two positions — corrects any one
      flipped bit at [⌈log₂⌉]-ish overhead, never more than 2× payload
      (3 total bits for a 1-bit payload is the worst case, so protected
      size ≤ 3× raw always holds);
    - [Repetition k]: every bit repeated [k] times, decoded by majority —
      the classical ablation baseline, corrects [⌊(k-1)/2⌋] errors per
      payload bit at exactly [k]× overhead. *)

type level =
  | Raw  (** no protection: [protect] is the identity *)
  | Crc  (** 8-bit CRC appended — detect, never correct *)
  | Hamming  (** Hamming SEC over the whole string — corrects one bit *)
  | Repetition of int
      (** each bit sent [k ≥ 2] times, majority vote; odd [k] corrects
          [⌊(k-1)/2⌋] errors per bit, even [k] only detects ties *)

val name : level -> string
(** ["raw"], ["crc"], ["hamming"], ["rep3"] — stable, parses back. *)

val of_name : string -> (level, string) result
(** Inverse of {!name}; ["repK"] for any [K ≥ 2]. *)

val all : level list
(** The levels the resilience sweep ablates: raw, crc, hamming, rep3. *)

val protect : level -> Bitbuf.t -> Bitbuf.t
(** Encode.  The input is not mutated; the empty string maps to itself.
    [Raw] returns its input, not a copy, and every other level a fresh
    buffer, so a caller that mutates the result at [Raw] mutates the
    input.  Raises [Invalid_argument] for [Repetition k] with [k < 2]. *)

val unprotect : level -> Bitbuf.t -> (Bitbuf.t * int, string) result
(** Decode, total on arbitrary bit strings: [Ok (payload, corrected)]
    with the number of corrected payload-affecting errors, or [Error]
    when the string cannot be a (possibly singly-corrupted) codeword —
    wrong framing, CRC mismatch, out-of-range Hamming syndrome, or a
    repetition tie.  Never raises.  Corruption beyond the code's power
    may decode to a wrong payload; callers must still validate the
    payload semantically.  At [Raw] the payload is the input itself,
    as with {!protect}. *)

val protected_length : level -> int -> int
(** Exact encoded size in bits for a [len]-bit payload ([0] for [0]). *)

val overhead_bound : level -> float
(** Worst-case [protected/raw] ratio over nonempty payloads ([3.0] for
    [Hamming], [k] for [Repetition k]) — quoted by docs and asserted by
    tests; [Crc]'s constant 8 bits is unbounded as a ratio, reported as
    [9.0] (the 1-bit-payload case). *)

(** {1 The bit-serial CRC engine}

    The shift-register CRC behind the [Crc] level, exposed so other
    on-disk formats ({!Frame}'s 32-bit record trailer in particular)
    compute their checksums through the same code path.  The variant is
    fixed: MSB-first, initial register zero, the message augmented with
    [width] flushing zero bits, no reflection and no final XOR — an
     8-bit/[0x07] instance of this engine is bit-for-bit the advice CRC
    {!protect} appends. *)

val crc_update : poly:int -> width:int -> int -> bool -> int
(** [crc_update ~poly ~width reg b] feeds one message bit into the
    register: shift left, insert [b], and reduce by [poly] when the bit
    shifted off the top was set.  [width] must satisfy
    [0 < width < Sys.int_size - 1]; [poly] is the generator polynomial
    without its leading [x^width] term. *)

val crc_finish : poly:int -> width:int -> int -> int
(** [crc_finish ~poly ~width reg] flushes [width] zero bits through the
    register and returns the final checksum — the remainder of the
    augmented message. *)
