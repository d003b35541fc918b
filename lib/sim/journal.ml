(* The append-only, crash-safe store of completed sweep points.

   A journal file is a superblock frame (file identity: spec + extra
   context strings) followed by one record frame per completed point,
   all framed by Bitstring.Frame and specified bit-for-bit in
   docs/JOURNAL_FORMAT.md.  Appends go through an OS-level flush before
   [append] returns, so a SIGKILL between appends loses nothing and a
   SIGKILL mid-append loses only the torn tail, which [open_] detects
   (frame CRC/length) and truncates.  Nothing in a journal depends on
   wall clock, job count or submission order, so the file bytes are as
   deterministic as the sweep rows themselves. *)

module Frame = Bitstring.Frame
module Bitbuf = Bitstring.Bitbuf

type verdict_class = Completed | Degraded | Stalled | Violated

let class_name = function
  | Completed -> "completed"
  | Degraded -> "degraded"
  | Stalled -> "stalled"
  | Violated -> "violated"

let class_code = function Completed -> 0 | Degraded -> 1 | Stalled -> 2 | Violated -> 3

let class_of_code = function
  | 0 -> Completed
  | 1 -> Degraded
  | 2 -> Stalled
  | _ -> Violated

type entry = {
  n : int;
  m : int;
  messages : int;
  rounds : int;
  advice_bits : int;
  raw_advice_bits : int;
  faults : int;
  fallbacks : int;
  tampered : int;
  retransmits : int;
  corrected_bits : int;
  informed : int;
  verdict_class : verdict_class;
  verdict : string;
}

let graceful e =
  match e.verdict_class with Completed | Degraded -> true | Stalled | Violated -> false

type context = { spec : string; extra : string }

(* {1 Record payload codec}

   Field widths are normative in JOURNAL_FORMAT.md ("Record payload").
   The fixed part is 434 bits; the verdict text follows as 8-bit bytes.
   Changing any width is a format break: bump Frame.current_version and
   update the spec and the golden test together. *)

let w_count = 32 (* n, m, faults, fallbacks, tampered, retransmits, corrected, informed *)
let w_volume = 40 (* messages, rounds, advice_bits, raw_advice_bits *)
let w_class = 2
let w_verdict_len = 16
let fixed_payload_bits = (8 * w_count) + (4 * w_volume) + w_class + w_verdict_len

let encode_payload e =
  if String.length e.verdict > 0xffff then
    invalid_arg "Journal.encode: verdict string longer than 65535 bytes";
  let b = Bitbuf.create ~capacity:(fixed_payload_bits + (8 * String.length e.verdict)) () in
  let count v = Bitbuf.add_int b ~width:w_count v in
  let volume v = Bitbuf.add_int b ~width:w_volume v in
  count e.n;
  count e.m;
  volume e.messages;
  volume e.rounds;
  volume e.advice_bits;
  volume e.raw_advice_bits;
  count e.faults;
  count e.fallbacks;
  count e.tampered;
  count e.retransmits;
  count e.corrected_bits;
  count e.informed;
  Bitbuf.add_int b ~width:w_class (class_code e.verdict_class);
  Bitbuf.add_int b ~width:w_verdict_len (String.length e.verdict);
  String.iter (fun c -> Bitbuf.add_int b ~width:8 (Char.code c)) e.verdict;
  b

let decode_payload payload =
  if Bitbuf.length payload < fixed_payload_bits then
    Error
      (Printf.sprintf "record payload too short: %d bits < %d fixed bits"
         (Bitbuf.length payload) fixed_payload_bits)
  else begin
    let r = Bitbuf.reader payload in
    let count () = Bitbuf.read_int r ~width:w_count in
    let volume () = Bitbuf.read_int r ~width:w_volume in
    let n = count () in
    let m = count () in
    let messages = volume () in
    let rounds = volume () in
    let advice_bits = volume () in
    let raw_advice_bits = volume () in
    let faults = count () in
    let fallbacks = count () in
    let tampered = count () in
    let retransmits = count () in
    let corrected_bits = count () in
    let informed = count () in
    let verdict_class = class_of_code (Bitbuf.read_int r ~width:w_class) in
    let vlen = Bitbuf.read_int r ~width:w_verdict_len in
    if Bitbuf.remaining r <> 8 * vlen then
      Error
        (Printf.sprintf "record payload length mismatch: %d bits left for a %d-byte verdict"
           (Bitbuf.remaining r) vlen)
    else begin
      let verdict = String.init vlen (fun _ -> Char.chr (Bitbuf.read_int r ~width:8)) in
      Ok
        {
          n;
          m;
          messages;
          rounds;
          advice_bits;
          raw_advice_bits;
          faults;
          fallbacks;
          tampered;
          retransmits;
          corrected_bits;
          informed;
          verdict_class;
          verdict;
        }
    end
  end

let encode_entry ~key e =
  Frame.encode
    { Frame.kind = Frame.Record; version = Frame.current_version; key; payload = encode_payload e }

(* {1 Superblock codec}

   Payload: two length-prefixed byte strings — the grid spec and the
   caller's extra context (protection/retry for CLI sweeps).  The key
   field of a superblock is 0; identity lives in the payload. *)

let w_ctx_len = 16

let encode_context ctx =
  if String.length ctx.spec > 0xffff || String.length ctx.extra > 0xffff then
    invalid_arg "Journal.encode: context string longer than 65535 bytes";
  let b =
    Bitbuf.create
      ~capacity:(2 * w_ctx_len + (8 * (String.length ctx.spec + String.length ctx.extra)))
      ()
  in
  let str s =
    Bitbuf.add_int b ~width:w_ctx_len (String.length s);
    String.iter (fun c -> Bitbuf.add_int b ~width:8 (Char.code c)) s
  in
  str ctx.spec;
  str ctx.extra;
  b

let decode_context payload =
  let r = Bitbuf.reader payload in
  let str () =
    let len = Bitbuf.read_int r ~width:w_ctx_len in
    if Bitbuf.remaining r < 8 * len then failwith "short"
    else String.init len (fun _ -> Char.chr (Bitbuf.read_int r ~width:8))
  in
  match
    let spec = str () in
    let extra = str () in
    if Bitbuf.at_end r then Some { spec; extra } else None
  with
  | Some ctx -> Ok ctx
  | None -> Error "superblock payload has trailing bits"
  | exception _ -> Error "superblock payload too short"

let encode_superblock ctx =
  Frame.encode
    {
      Frame.kind = Frame.Superblock;
      version = Frame.current_version;
      key = 0;
      payload = encode_context ctx;
    }

(* The bare payload codecs, exposed for the worker wire protocol: a
   Result frame carries exactly a record payload, and the supervisor's
   config Hello frame carries exactly a superblock payload. *)
let entry_payload = encode_payload

let context_payload = encode_context

(* {1 The store} *)

type stats = { replayed : int; torn_bytes : int; duplicates : int }

type t = {
  path : string;
  ctx : context;
  index : (int, entry) Hashtbl.t;
  mutable order : int list; (* file order of first occurrences, reversed *)
  mutable oc : out_channel option; (* None once closed *)
  mutable appended : int;
}

let context t = t.ctx

let path t = t.path

let count t = Hashtbl.length t.index

let appended t = t.appended

let mem t key = Hashtbl.mem t.index key

let find t key = Hashtbl.find_opt t.index key

let iter t f = List.iter (fun key -> f key (Hashtbl.find t.index key)) (List.rev t.order)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Scan the file: superblock, then records.  Returns the recovered
   state and the byte length of the valid prefix; everything after the
   first undecodable frame is torn tail (or bit rot — the recovery rule
   is the same: keep the valid prefix, drop the rest). *)
let scan data =
  match Frame.decode data ~pos:0 with
  | Error e -> Error (Printf.sprintf "superblock: %s" (Frame.error_to_string e))
  | Ok ({ Frame.kind = Record; _ }, _) -> Error "superblock: first frame is a record frame"
  | Ok ({ Frame.kind = Hello | Task | Result | Heartbeat | Shutdown; _ }, _) ->
      (* Wire-only kinds are never valid in a journal file. *)
      Error "superblock: first frame is a wire frame, not a superblock"
  | Ok ({ Frame.kind = Superblock; payload; _ }, first) -> (
      match decode_context payload with
      | Error e -> Error (Printf.sprintf "superblock: %s" e)
      | Ok ctx ->
          let index = Hashtbl.create 256 in
          let order = ref [] in
          let duplicates = ref 0 in
          let rec loop pos =
            if pos >= String.length data then pos
            else
              match Frame.decode data ~pos with
              | Error _ -> pos (* torn tail: valid prefix ends here *)
              | Ok ({ Frame.kind = Superblock | Hello | Task | Result | Heartbeat | Shutdown; _ }, _)
                ->
                  pos (* corruption: only record frames may follow the superblock *)
              | Ok ({ Frame.kind = Record; key; payload; _ }, next) -> (
                  match decode_payload payload with
                  | Error _ -> pos
                  | Ok entry ->
                      if Hashtbl.mem index key then incr duplicates
                      else begin
                        Hashtbl.add index key entry;
                        order := key :: !order
                      end;
                      loop next)
          in
          let good = loop first in
          Ok (ctx, index, !order, !duplicates, good))

let open_out_append path = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path

(* Initialise in place rather than with [O_TRUNC]: cut any bytes past
   the new superblock's length, then overwrite.  The file ends up with
   the same bytes, but a non-empty file is never truncated to zero, so
   ext4 does not flush it on close.  A crash in between leaves a prefix
   of the old, unreadable file, which stays unreadable (its first frame
   is unchanged or torn) and is reinitialised again. *)
let fresh ~path ctx =
  let superblock = encode_superblock ctx in
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_binary ] 0o644 path in
  let fd = Unix.descr_of_out_channel oc in
  if (Unix.fstat fd).Unix.st_size > String.length superblock then
    Unix.ftruncate fd (String.length superblock);
  output_string oc superblock;
  flush oc;
  ( {
      path;
      ctx;
      index = Hashtbl.create 256;
      order = [];
      oc = Some oc;
      appended = 0;
    },
    { replayed = 0; torn_bytes = 0; duplicates = 0 } )

let open_ ?expect ~path () =
  let exists = Sys.file_exists path in
  let size = if exists then (Unix.stat path).Unix.st_size else 0 in
  if (not exists) || size = 0 then
    match expect with
    | Some ctx -> Ok (fresh ~path ctx)
    | None -> Error (Printf.sprintf "journal %s does not exist" path)
  else
    let data = read_file path in
    match scan data with
    | Error e -> (
        (* The superblock is unreadable, so nothing in the file can be
           trusted or attributed.  With an expected context this is the
           crash-during-creation window: reinitialize.  Without one
           (ls/verify/compact) report the corruption instead. *)
        match expect with
        | Some ctx -> Ok (fresh ~path ctx)
        | None -> Error (Printf.sprintf "journal %s: %s" path e))
    | Ok (ctx, index, order, duplicates, good) -> (
        match expect with
        | Some want when want <> ctx ->
            Error
              (Printf.sprintf
                 "journal %s was written for a different run: it records spec %S (context %S), \
                  this run is spec %S (context %S)"
                 path ctx.spec ctx.extra want.spec want.extra)
        | _ ->
            let torn = String.length data - good in
            if torn > 0 then Unix.truncate path good;
            let oc = open_out_append path in
            Ok
              ( { path; ctx; index; order; oc = Some oc; appended = 0 },
                { replayed = Hashtbl.length index; torn_bytes = torn; duplicates } ))

let append t ~key entry =
  if key < 0 then invalid_arg "Journal.append: negative key";
  if Hashtbl.mem t.index key then
    invalid_arg (Printf.sprintf "Journal.append: key %d already journaled" key);
  match t.oc with
  | None -> invalid_arg "Journal.append: journal is closed"
  | Some oc ->
      output_string oc (encode_entry ~key entry);
      (* Flush to the OS before reporting success: after this returns
         the record survives SIGKILL (durability against power loss
         would need fsync — see DESIGN.md section 'Persistence model'). *)
      flush oc;
      Hashtbl.add t.index key entry;
      t.order <- key :: t.order;
      t.appended <- t.appended + 1

let close t =
  match t.oc with
  | None -> ()
  | Some oc ->
      t.oc <- None;
      close_out oc

(* {1 Compaction}

   Rewrites the journal as superblock + the first occurrence of every
   key in file order, dropping duplicate frames and any torn tail, then
   atomically renames over the original.  Because the encoding is
   canonical, a journal with no duplicates and no tail compacts to
   byte-identical contents.

   Durability of the rename: the tmp file is fsynced before the rename
   (so the new contents are on disk before the directory entry can
   point at them), and the containing directory is fsynced after it —
   without the directory fsync, a crash right after compact could
   replay the rename away and resurrect the pre-compaction journal
   (docs/JOURNAL_FORMAT.md, 'Durability contract'). *)

let fsync_dir_of path =
  (* Directory fsync is advisory on filesystems that reject it (EINVAL
     on some); failing to harden the rename must not fail the compact. *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let compact ~path () =
  match open_ ~path () with
  | Error e -> Error e
  | Ok (t, stats) ->
      close t;
      let tmp = path ^ ".compact.tmp" in
      let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp in
      (try
         output_string oc (encode_superblock t.ctx);
         iter t (fun key entry -> output_string oc (encode_entry ~key entry));
         flush oc;
         Unix.fsync (Unix.descr_of_out_channel oc);
         close_out oc
       with e ->
         close_out_noerr oc;
         (try Sys.remove tmp with Sys_error _ -> ());
         raise e);
      Sys.rename tmp path;
      fsync_dir_of path;
      Ok (count t, stats)
