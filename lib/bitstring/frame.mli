(** The bit-packed frame container of the persistent sweep journal and
    the distributed-worker wire protocol.

    A journal file — and a supervisor/worker pipe — is a sequence of
    frames; each frame carries a kind tag, a format version, a 63-bit
    key and an arbitrary bit-string payload, and is protected end-to-end
    by a 32-bit CRC trailer computed through {!Ecc}'s bit-serial engine.
    The byte-level layout — field widths, endianness, CRC variant,
    padding and recovery rules — is specified normatively in
    [docs/JOURNAL_FORMAT.md]; this module is its implementation, and a
    golden-frame test pins the two to each other.

    Frames are byte-aligned on disk (the payload is zero-padded to a
    byte boundary) but bit-packed inside, in the spirit of chamelon's
    littlefs tag layouts.  The encoding is {e canonical}: a valid frame
    is the unique encoding of its content, so [encode] after [decode]
    reproduces the input bytes exactly — the property the journal's
    byte-equality verifier rests on. *)

type kind =
  | Superblock  (** the file-identity frame, first in every journal *)
  | Record  (** one completed grid point *)
  | Hello
      (** wire: worker announce (worker→supervisor; carries the wire
          version and the authentication token) or config
          (supervisor→worker) — a 1-bit payload tag disambiguates the
          two shapes (see {!Sim.Worker} and DESIGN.md §13) *)
  | Task  (** wire: a batch of task indices (supervisor→worker) *)
  | Result  (** wire: one completed task (worker→supervisor) *)
  | Heartbeat  (** wire: liveness beacon (worker→supervisor) *)
  | Shutdown  (** wire: orderly stop (supervisor→worker) *)

type t = {
  kind : kind;
  version : int;  (** format version; this writer emits {!current_version} *)
  key : int;  (** 63-bit non-negative identifier (FNV-1a coordinate hash) *)
  payload : Bitbuf.t;  (** kind-specific bit-packed body *)
}

(** Decode failures, each carrying the byte offset of the offending
    frame.  {!decode} never raises on malformed input: a torn tail is
    the expected input after a crash. *)
type error =
  | Truncated of { offset : int; missing : int }
      (** the buffer ends inside the frame — the torn-write case *)
  | Bad_magic of { offset : int; found : int }
  | Bad_kind of { offset : int; found : int }
  | Unsupported_version of { offset : int; found : int }
  | Nonzero_padding of { offset : int }
      (** set bits in the byte-alignment pad: not a canonical encoding *)
  | Key_out_of_range of { offset : int }
      (** the reserved top bits of the key field are set *)
  | Bad_crc of { offset : int; stored : int; computed : int }

val error_to_string : error -> string

val encode : t -> string
(** The frame's on-disk bytes.  Raises [Invalid_argument] when the key
    is negative, the version does not fit 8 bits, or the payload exceeds
    {!max_payload_bits}. *)

val decode : string -> pos:int -> (t * int, error) result
(** [decode s ~pos] parses one frame starting at byte [pos] and returns
    it with the offset of the next frame.  Total on arbitrary bytes —
    every malformed input maps to an {!error}.  Raises
    [Invalid_argument] only on a negative [pos]. *)

val byte_size : t -> int
(** The exact length of [encode t]: 15 header bytes, the payload padded
    to a byte boundary, and the 4-byte CRC trailer. *)

(** {1 Spec constants}

    Exposed so tests can build spec-derived golden frames by hand and
    compare them against {!encode} byte for byte. *)

val magic : int
(** [0x4F4A] ("OJ"), the first two bytes of every frame. *)

val current_version : int
(** The format version this writer emits: [1]. *)

val header_bytes : int
(** [15] — magic (16 bits), kind (8), version (8), key (64), payload
    length in bits (24). *)

val crc_bytes : int
(** [4] — the 32-bit trailer. *)

val max_payload_bits : int
(** [2²⁴ - 1], the largest payload the 24-bit length field can frame. *)

val max_key : int
(** [max_int]: keys are arbitrary non-negative OCaml ints. *)

val crc32_bytes : Bytes.t -> pos:int -> len:int -> int
(** The spec's CRC-32 over a byte range: generator [0x04C11DB7] fed
    MSB-first through {!Ecc.crc_update} from a zero register, augmented
    with 32 flushing zero bits, no reflection, no final XOR.
    Deliberately {e not} the zlib/IEEE CRC — the journal format defines
    this exact variant. *)
