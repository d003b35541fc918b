(** Append-only, crash-safe on-disk store of completed sweep points.

    A million-job grid must survive restarts: the journal records one
    bit-packed frame per completed grid point, keyed by the point's
    FNV-1a coordinate hash ({!Sweep.derive_seed}'s output, already
    carried by every {!Sweep.point} as its [seed]), so a resumed sweep
    skips exactly the points whose results are already durable.  The
    on-disk format — a superblock frame naming the grid, then record
    frames, each CRC-32-protected via {!Bitstring.Frame} — is specified
    bit-for-bit in [docs/JOURNAL_FORMAT.md]; that document is normative
    and this module implements it.

    Durability contract: {!append} flushes to the OS before returning,
    so a process killed between appends (SIGKILL included) loses
    nothing, and one killed mid-append loses only the torn tail frame,
    which {!open_} detects by CRC/length and truncates away.  The
    encoding is canonical (no timestamps, no randomness), so journal
    bytes are deterministic for a given grid — byte-identical at every
    job count, like the sweep rows themselves.

    Concurrency: a journal handle belongs to one domain, and at most one
    process may append to a file at a time (appends are not locked; the
    sweep engine appends only from the submitting domain, after each
    chunk joins). *)

(** {1 Entries} *)

(** The verdict classification, 2 bits on disk. *)
type verdict_class = Completed | Degraded | Stalled | Violated

val class_name : verdict_class -> string
(** ["completed"], ["degraded"], ["stalled"], ["violated"] — the class
    strings sweep rows print. *)

type entry = {
  n : int;  (** nodes of the built graph (may differ from the requested n) *)
  m : int;  (** edges of the built graph *)
  messages : int;  (** messages sent — the paper's complexity measure *)
  rounds : int;  (** rounds (synchronous) or scheduler steps (asynchronous) *)
  advice_bits : int;  (** oracle bits actually handed out (protection included) *)
  raw_advice_bits : int;  (** oracle bits before protection — the paper's measure *)
  faults : int;  (** adversarial events injected by the fault plan *)
  fallbacks : int;  (** nodes that rejected advice and fell back to flooding *)
  tampered : int;  (** tamper-log length (advice-corruption events) *)
  retransmits : int;  (** recovery-channel retransmissions *)
  corrected_bits : int;  (** advice bits the ECC layer corrected in place *)
  informed : int;  (** nodes informed/awake when the run ended *)
  verdict_class : verdict_class;
  verdict : string;  (** full verdict text, e.g. ["degraded: advice-fallback(3)"] *)
}
(** Everything a sweep needs to re-emit a point's JSONL row without
    re-executing it; field widths on disk are fixed by the spec. *)

val graceful : entry -> bool
(** [true] for the [Completed] and [Degraded] classes — the runs a sweep
    or bench grid counts as graceful. *)

type context = { spec : string; extra : string }
(** The journal's identity, stored in the superblock: the canonical grid
    spec ({!Sweep.to_string}) plus free-form extra context (the CLI puts
    [protect]/[retry] here).  Resuming under a different context is
    refused — a journal only ever answers for the run that wrote it. *)

type stats = {
  replayed : int;  (** records recovered from the existing file *)
  torn_bytes : int;  (** bytes truncated off the torn tail, 0 if clean *)
  duplicates : int;  (** duplicate-key frames ignored during replay *)
}

(** {1 The store} *)

type t

val open_ : ?expect:context -> path:string -> unit -> (t * stats, string) result
(** [open_ ~expect ~path ()] opens [path] for appending.  A missing or
    empty file is created with superblock [expect] (an error when
    [expect] is omitted).  An existing file is scanned: the superblock
    is validated (and compared against [expect] when given — mismatch is
    an error), every decodable record frame is replayed into the
    in-memory index, and the file is truncated after the last valid
    frame when a torn tail is found.  An unreadable superblock with
    [expect] present is the crash-during-creation window: the file is
    reinitialized fresh. *)

val context : t -> context

val path : t -> string

val count : t -> int
(** Distinct keys currently journaled (replayed + appended). *)

val appended : t -> int
(** Records appended through this handle (excludes replayed ones). *)

val mem : t -> int -> bool

val find : t -> int -> entry option

val append : t -> key:int -> entry -> unit
(** Append one record frame and flush it to the OS; on return the record
    survives process death.  Raises [Invalid_argument] on a negative or
    already-journaled key, or after {!close}. *)

val iter : t -> (int -> entry -> unit) -> unit
(** All journaled entries in file order (first occurrence per key). *)

val close : t -> unit
(** Close the append channel.  Idempotent; the in-memory index stays
    readable. *)

val compact : path:string -> unit -> (int * stats, string) result
(** Rewrite the journal as superblock + first occurrence of every key in
    file order — dropping duplicate frames and the torn tail, if any —
    then atomically rename over the original.  Returns the surviving
    record count and the recovery stats of the pre-compaction scan.
    Canonical encoding means an already-clean journal compacts to
    byte-identical contents.  The replacement is fsynced before the
    rename and the containing directory after it, so a crash straight
    after a successful compact cannot resurrect the old journal. *)

(** {1 Codec}

    The frame codecs behind the store, exposed for the byte-equality
    verifier and the format tests.  [encode_entry] is canonical: equal
    entries under equal keys produce equal bytes, which is what lets
    [journal verify] re-execute a point and compare recomputed bytes
    against stored ones. *)

val encode_entry : key:int -> entry -> string
(** The full record frame (header, payload, CRC) for [entry] under
    [key].  Raises [Invalid_argument] when a field exceeds its spec'd
    width (counts 32 bits, volumes 40 bits, verdict ≤ 65535 bytes). *)

val entry_payload : entry -> Bitstring.Bitbuf.t
(** The bare record payload bits of {!encode_entry} — what a worker's
    [Result] wire frame carries ({!Worker}); [decode_payload] inverts
    it. *)

val context_payload : context -> Bitstring.Bitbuf.t
(** The bare superblock payload bits of {!encode_superblock} — what the
    supervisor's config [Hello] wire frame carries; [decode_context]
    inverts it. *)

val decode_payload : Bitstring.Bitbuf.t -> (entry, string) result
(** Decode a record frame's payload bits; rejects payloads whose length
    disagrees with the spec's layout. *)

val encode_superblock : context -> string
(** The superblock frame for a fresh journal. *)

val decode_context : Bitstring.Bitbuf.t -> (context, string) result
(** Decode a superblock frame's payload bits. *)

val fixed_payload_bits : int
(** The spec'd size of a record payload before the verdict bytes: 434
    bits.  Pinned by the format tests. *)
