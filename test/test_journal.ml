(* The persistent sweep journal: frame codec roundtrips at every field
   boundary, a golden frame built bit-by-bit from the JOURNAL_FORMAT.md
   field table (pinning spec to codec), torn-write recovery at every
   byte offset, resume equivalence at several job counts, duplicate and
   corruption handling, and the byte-equality property the verifier
   rests on. *)

module Bitbuf = Bitstring.Bitbuf
module Frame = Bitstring.Frame
module Journal = Sim.Journal
module Sweep = Sim.Sweep

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tmp_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "oraclesize-test-journal-%d-%d.bin" (Unix.getpid ()) !counter)

let with_tmp f =
  let path = tmp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Overwrites in place, then cuts the file to length.  Truncating a
   non-empty file to zero first (as [open_out] does) makes ext4 flush
   the rewritten data on close, which cost ~50 ms per call: most of the
   every-offset torn-corpus test's wall time. *)
let write_file path data =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_binary ] 0o644 path in
  output_string oc data;
  flush oc;
  Unix.ftruncate (Unix.descr_of_out_channel oc) (String.length data);
  close_out oc

(* {1 Frame roundtrips} *)

let payload_of_bits n = Bitbuf.of_bits (List.init n (fun i -> i mod 3 = 0))

let test_frame_roundtrip () =
  List.iter
    (fun kind ->
      List.iter
        (fun key ->
          List.iter
            (fun bits ->
              let t = { Frame.kind; version = Frame.current_version; key; payload = payload_of_bits bits } in
              let s = Frame.encode t in
              check_int
                (Printf.sprintf "byte_size agrees (bits=%d)" bits)
                (String.length s) (Frame.byte_size t);
              match Frame.decode s ~pos:0 with
              | Error e -> Alcotest.failf "bits=%d key=%d: %s" bits key (Frame.error_to_string e)
              | Ok (t', next) ->
                check_int "next offset is frame end" (String.length s) next;
                check_bool "kind survives" true (t'.Frame.kind = kind);
                check_int "version survives" Frame.current_version t'.Frame.version;
                check_int "key survives" key t'.Frame.key;
                check_bool "payload survives" true (Bitbuf.equal t.Frame.payload t'.Frame.payload);
                check_string "re-encode is canonical" s (Frame.encode t'))
            [ 0; 1; 7; 8; 9; 63; 64; 65 ])
        [ 0; 1; Frame.max_key ])
    [ Frame.Superblock; Frame.Record ]

let test_frame_rejects () =
  let t key = { Frame.kind = Frame.Record; version = Frame.current_version; key; payload = Bitbuf.create () } in
  Alcotest.check_raises "negative key" (Invalid_argument "Frame.encode: negative key")
    (fun () -> ignore (Frame.encode (t (-1))));
  let s = Frame.encode (t 5) in
  (* Bad magic *)
  let bad = Bytes.of_string s in
  Bytes.set bad 0 'X';
  (match Frame.decode (Bytes.to_string bad) ~pos:0 with
  | Error (Frame.Bad_magic _) -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  (* Bad kind *)
  let bad = Bytes.of_string s in
  Bytes.set bad 2 'Z';
  (match Frame.decode (Bytes.to_string bad) ~pos:0 with
  | Error (Frame.Bad_kind _) -> ()
  | _ -> Alcotest.fail "bad kind accepted");
  (* Bad version: breaks before the CRC is even checked *)
  let bad = Bytes.of_string s in
  Bytes.set bad 3 '\x07';
  (match Frame.decode (Bytes.to_string bad) ~pos:0 with
  | Error (Frame.Unsupported_version { found = 7; _ }) -> ()
  | _ -> Alcotest.fail "bad version accepted");
  (* Reserved key bits set *)
  let bad = Bytes.of_string s in
  Bytes.set bad 4 '\x80';
  (match Frame.decode (Bytes.to_string bad) ~pos:0 with
  | Error (Frame.Key_out_of_range _) -> ()
  | _ -> Alcotest.fail "out-of-range key accepted");
  (* Flipped payload-adjacent byte: CRC catches it *)
  let witness = Frame.encode { (t 5) with Frame.payload = payload_of_bits 16 } in
  let bad = Bytes.of_string witness in
  Bytes.set bad 15 (Char.chr (Char.code (Bytes.get bad 15) lxor 0x40));
  (match Frame.decode (Bytes.to_string bad) ~pos:0 with
  | Error (Frame.Bad_crc _) -> ()
  | _ -> Alcotest.fail "bit flip accepted");
  (* Nonzero padding: not a canonical encoding *)
  let odd = Frame.encode { (t 5) with Frame.payload = payload_of_bits 3 } in
  let bad = Bytes.of_string odd in
  let pad_byte = Frame.header_bytes in
  Bytes.set bad pad_byte (Char.chr (Char.code (Bytes.get bad pad_byte) lor 0x01));
  (* ...with the CRC recomputed so only the padding rule can object. *)
  let body = Bytes.sub bad 0 (Bytes.length bad - Frame.crc_bytes) in
  let crc = Frame.crc32_bytes body ~pos:0 ~len:(Bytes.length body) in
  for i = 0 to Frame.crc_bytes - 1 do
    Bytes.set bad
      (Bytes.length body + i)
      (Char.chr ((crc lsr (8 * (Frame.crc_bytes - 1 - i))) land 0xff))
  done;
  (match Frame.decode (Bytes.to_string bad) ~pos:0 with
  | Error (Frame.Nonzero_padding _) -> ()
  | _ -> Alcotest.fail "nonzero padding accepted");
  (* Every strict prefix is Truncated, never an exception *)
  let s = Frame.encode { (t 9) with Frame.payload = payload_of_bits 20 } in
  for len = 0 to String.length s - 1 do
    match Frame.decode (String.sub s 0 len) ~pos:0 with
    | Error (Frame.Truncated _) -> ()
    | Error e -> Alcotest.failf "prefix %d: wrong error %s" len (Frame.error_to_string e)
    | Ok _ -> Alcotest.failf "prefix %d decoded" len
  done

(* {1 Frame header boundaries}

   All zeros, all ones, and every header field at its largest legal
   value and one past it (the pattern of chamelon's littlefs tag
   tests).  Each malformed input must map to the error of the first
   field that objects, never to an exception. *)

let test_frame_header_boundaries () =
  let len = Frame.header_bytes + Frame.crc_bytes in
  let expect name s ok =
    match Frame.decode s ~pos:0 with
    | r when ok r -> ()
    | Ok _ -> Alcotest.failf "%s: decoded" name
    | Error e -> Alcotest.failf "%s: wrong error %s" name (Frame.error_to_string e)
  in
  expect "all zeros" (String.make len '\000') (function
    | Error (Frame.Bad_magic { offset = 0; found = 0 }) -> true
    | _ -> false);
  expect "all ones" (String.make len '\xff') (function
    | Error (Frame.Bad_magic { offset = 0; found = 0xffff }) -> true
    | _ -> false);
  (* A valid prefix, then all ones: each field in turn is the first to
     object. *)
  let ones_after prefix = prefix ^ String.make (len - String.length prefix) '\xff' in
  expect "kind all ones" (ones_after "OJ") (function
    | Error (Frame.Bad_kind { found = 0xff; _ }) -> true
    | _ -> false);
  expect "version all ones" (ones_after "OJR") (function
    | Error (Frame.Unsupported_version { found = 0xff; _ }) -> true
    | _ -> false);
  expect "key all ones" (ones_after "OJR\001") (function
    | Error (Frame.Key_out_of_range _) -> true
    | _ -> false);
  (* The key at its maximum round-trips under every kind; one past it
     (bit 62 of the 64-bit field) is reserved. *)
  List.iter
    (fun kind ->
      let t = { Frame.kind; version = Frame.current_version; key = Frame.max_key; payload = payload_of_bits 9 } in
      let s = Frame.encode t in
      (match Frame.decode s ~pos:0 with
      | Ok (t', _) ->
        check_int "max key survives" Frame.max_key t'.Frame.key;
        check_string "max-key frame re-encodes" s (Frame.encode t')
      | Error e -> Alcotest.failf "max key rejected: %s" (Frame.error_to_string e));
      let past = Bytes.of_string s in
      Bytes.set past 4 '\x40';
      for i = 5 to 11 do
        Bytes.set past i '\000'
      done;
      expect "key max + 1" (Bytes.to_string past) (function
        | Error (Frame.Key_out_of_range _) -> true
        | _ -> false))
    [
      Frame.Superblock; Frame.Record; Frame.Hello; Frame.Task; Frame.Result; Frame.Heartbeat;
      Frame.Shutdown;
    ];
  (* The length field at its maximum frames 2^21 body bytes: a header
     alone is a torn frame missing exactly the rest. *)
  let header = Bytes.of_string (Frame.encode { Frame.kind = Frame.Record; version = 1; key = 0; payload = Bitbuf.create () }) in
  Bytes.blit_string "\xff\xff\xff" 0 header 12 3;
  let body = (Frame.max_payload_bits + 7) / 8 in
  expect "length all ones" (Bytes.sub_string header 0 Frame.header_bytes) (function
    | Error (Frame.Truncated { offset = 0; missing }) -> missing = body + Frame.crc_bytes
    | _ -> false);
  (* One bit past the length field's range is refused at encode. *)
  let over = Bitbuf.of_bytes (Bytes.make (body + 1) '\xff') ~pos:0 ~bits:(Frame.max_payload_bits + 1) in
  Alcotest.check_raises "payload max + 1" (Invalid_argument "Frame.encode: payload too large")
    (fun () ->
      ignore (Frame.encode { Frame.kind = Frame.Record; version = 1; key = 0; payload = over }));
  (* The version field above the writer's is refused at encode too. *)
  Alcotest.check_raises "version max + 1" (Invalid_argument "Frame.encode: version out of range")
    (fun () ->
      ignore
        (Frame.encode { Frame.kind = Frame.Record; version = 0x100; key = 0; payload = Bitbuf.create () }))

(* {1 Entry payload codec: field boundaries} *)

let base_entry =
  {
    Journal.n = 0;
    m = 0;
    messages = 0;
    rounds = 0;
    advice_bits = 0;
    raw_advice_bits = 0;
    faults = 0;
    fallbacks = 0;
    tampered = 0;
    retransmits = 0;
    corrected_bits = 0;
    informed = 0;
    verdict_class = Journal.Completed;
    verdict = "";
  }

let roundtrip_entry ?(key = 12345) e =
  let s = Journal.encode_entry ~key e in
  match Frame.decode s ~pos:0 with
  | Error err -> Alcotest.failf "frame: %s" (Frame.error_to_string err)
  | Ok (t, next) ->
    check_int "no trailing bytes" (String.length s) next;
    check_int "key" key t.Frame.key;
    (match Journal.decode_payload t.Frame.payload with
    | Error msg -> Alcotest.failf "payload: %s" msg
    | Ok e' -> e')

let max_count = 0xffffffff (* 2^32 - 1: the counters' full width *)

let max_volume = 0xffffffffff (* 2^40 - 1: the volume fields' full width *)

let test_entry_field_boundaries () =
  (* Each 32-bit counter at its max, one at a time, the rest zero: a
     shifted-field bug in either codec misplaces the set bits. *)
  let counters =
    [
      (fun e v -> { e with Journal.n = v });
      (fun e v -> { e with Journal.m = v });
      (fun e v -> { e with Journal.faults = v });
      (fun e v -> { e with Journal.fallbacks = v });
      (fun e v -> { e with Journal.tampered = v });
      (fun e v -> { e with Journal.retransmits = v });
      (fun e v -> { e with Journal.corrected_bits = v });
      (fun e v -> { e with Journal.informed = v });
    ]
  in
  List.iteri
    (fun i set ->
      List.iter
        (fun v ->
          let e = set base_entry v in
          check_bool (Printf.sprintf "counter %d at %d" i v) true (roundtrip_entry e = e))
        [ 0; 1; max_count ])
    counters;
  let volumes =
    [
      (fun e v -> { e with Journal.messages = v });
      (fun e v -> { e with Journal.rounds = v });
      (fun e v -> { e with Journal.advice_bits = v });
      (fun e v -> { e with Journal.raw_advice_bits = v });
    ]
  in
  List.iteri
    (fun i set ->
      List.iter
        (fun v ->
          let e = set base_entry v in
          check_bool (Printf.sprintf "volume %d at %d" i v) true (roundtrip_entry e = e))
        [ 0; 1; max_volume ])
    volumes;
  List.iter
    (fun c ->
      let e = { base_entry with Journal.verdict_class = c } in
      check_bool (Journal.class_name c) true (roundtrip_entry e = e))
    [ Journal.Completed; Journal.Degraded; Journal.Stalled; Journal.Violated ];
  (* All fields at max at once: 434 bits of ones except the class. *)
  let all_max =
    {
      Journal.n = max_count;
      m = max_count;
      messages = max_volume;
      rounds = max_volume;
      advice_bits = max_volume;
      raw_advice_bits = max_volume;
      faults = max_count;
      fallbacks = max_count;
      tampered = max_count;
      retransmits = max_count;
      corrected_bits = max_count;
      informed = max_count;
      verdict_class = Journal.Violated;
      verdict = "x";
    }
  in
  check_bool "all fields at max" true (roundtrip_entry all_max = all_max)

let test_entry_verdict_strings () =
  List.iter
    (fun verdict ->
      let e = { base_entry with Journal.verdict } in
      check_bool
        (Printf.sprintf "verdict %d bytes" (String.length verdict))
        true
        (roundtrip_entry e = e))
    [ ""; "x"; String.init 256 Char.chr; String.make 1000 'v' ]

let test_entry_rejects_oversized () =
  List.iter
    (fun e ->
      match Journal.encode_entry ~key:1 e with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "oversized field encoded")
    [
      { base_entry with Journal.n = max_count + 1 };
      { base_entry with Journal.messages = max_volume + 1 };
      { base_entry with Journal.n = -1 };
      { base_entry with Journal.verdict = String.make 65536 'v' };
    ]

let test_payload_length_mismatch () =
  (* A payload whose verdict-length field overruns the actual bits must
     be rejected, not read out of bounds. *)
  let s = Journal.encode_entry ~key:3 { base_entry with Journal.verdict = "ab" } in
  match Frame.decode s ~pos:0 with
  | Error e -> Alcotest.failf "frame: %s" (Frame.error_to_string e)
  | Ok (t, _) ->
    let bits = Bitbuf.to_bits t.Frame.payload in
    let truncated = Bitbuf.of_bits (List.filteri (fun i _ -> i < Journal.fixed_payload_bits + 8) bits) in
    (match Journal.decode_payload truncated with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "short verdict accepted");
    let short = Bitbuf.of_bits (List.filteri (fun i _ -> i < 10) bits) in
    (match Journal.decode_payload short with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "10-bit payload accepted")

(* {1 The golden frame: spec table -> bytes, independently of the codec} *)

(* A bare-hands bit writer, deliberately sharing nothing with Bitbuf. *)
let golden_frame () =
  let bits = ref [] in
  let put ~width v =
    for i = width - 1 downto 0 do
      bits := ((v lsr i) land 1 = 1) :: !bits
    done
  in
  (* Header — JOURNAL_FORMAT.md "Frame layout": magic 16, kind 8,
     version 8, key 64 (two 32-bit halves, top two bits zero), payload
     length in bits 24. *)
  let key = 0x0123456789abcde in
  let verdict = "completed" in
  let payload_bits = 434 + (8 * String.length verdict) in
  put ~width:16 0x4f4a;
  put ~width:8 0x52 (* 'R' *);
  put ~width:8 1;
  put ~width:32 (key lsr 32);
  put ~width:32 (key land 0xffffffff);
  put ~width:24 payload_bits;
  (* Record payload — "Record payload" field table, in order. *)
  put ~width:32 24 (* n *);
  put ~width:32 31 (* m *);
  put ~width:40 107 (* messages *);
  put ~width:40 12 (* rounds *);
  put ~width:40 96 (* advice_bits *);
  put ~width:40 96 (* raw_advice_bits *);
  put ~width:32 0 (* faults *);
  put ~width:32 0 (* fallbacks *);
  put ~width:32 0 (* tampered *);
  put ~width:32 3 (* retransmits *);
  put ~width:32 0 (* corrected_bits *);
  put ~width:32 24 (* informed *);
  put ~width:2 0 (* class: completed *);
  put ~width:16 (String.length verdict);
  String.iter (fun c -> put ~width:8 (Char.code c)) verdict;
  (* Zero padding to a byte boundary. *)
  while List.length !bits mod 8 <> 0 do
    bits := false :: !bits
  done;
  let body = List.rev !bits in
  let body_bytes =
    let n = List.length body / 8 in
    let arr = Array.of_list body in
    Bytes.init n (fun i ->
        let b = ref 0 in
        for j = 0 to 7 do
          b := (!b lsl 1) lor if arr.((8 * i) + j) then 1 else 0
        done;
        Char.chr !b)
  in
  (* CRC-32 trailer — generator 0x04C11DB7, MSB-first, zero init,
     augmented, no reflection, no final XOR — via the exposed engine. *)
  let crc = Frame.crc32_bytes body_bytes ~pos:0 ~len:(Bytes.length body_bytes) in
  let entry =
    {
      Journal.n = 24;
      m = 31;
      messages = 107;
      rounds = 12;
      advice_bits = 96;
      raw_advice_bits = 96;
      faults = 0;
      fallbacks = 0;
      tampered = 0;
      retransmits = 3;
      corrected_bits = 0;
      informed = 24;
      verdict_class = Journal.Completed;
      verdict;
    }
  in
  let frame =
    Bytes.to_string body_bytes
    ^ String.init 4 (fun i -> Char.chr ((crc lsr (8 * (3 - i))) land 0xff))
  in
  (key, entry, frame)

let test_golden_frame () =
  let key, entry, golden = golden_frame () in
  check_int "spec fixed payload is 434 bits" 434 Journal.fixed_payload_bits;
  check_int "spec header is 15 bytes" 15 Frame.header_bytes;
  check_int "spec trailer is 4 bytes" 4 Frame.crc_bytes;
  check_int "spec magic is OJ" 0x4f4a Frame.magic;
  (* encode produces exactly the spec-derived bytes... *)
  check_string "encode_entry matches the spec-built frame" golden
    (Journal.encode_entry ~key entry);
  (* ...and decodes back to the same entry. *)
  match Frame.decode golden ~pos:0 with
  | Error e -> Alcotest.failf "golden frame rejected: %s" (Frame.error_to_string e)
  | Ok (t, next) ->
    check_int "golden frame consumed fully" (String.length golden) next;
    check_int "golden key" key t.Frame.key;
    (match Journal.decode_payload t.Frame.payload with
    | Error msg -> Alcotest.failf "golden payload: %s" msg
    | Ok e' -> check_bool "golden entry" true (e' = entry))

(* {1 The store: create, replay, torn tails, duplicates} *)

let mk_entry i =
  {
    Journal.n = i;
    m = 2 * i;
    messages = (i * 31) + 7;
    rounds = i mod 7;
    advice_bits = i * 3;
    raw_advice_bits = i * 2;
    faults = i mod 5;
    fallbacks = i mod 3;
    tampered = i mod 2;
    retransmits = i;
    corrected_bits = i / 2;
    informed = i;
    verdict_class =
      (match i mod 4 with
      | 0 -> Journal.Completed
      | 1 -> Journal.Degraded
      | 2 -> Journal.Stalled
      | _ -> Journal.Violated);
    verdict = Printf.sprintf "verdict-%d" i;
  }

let mk_key i = Sweep.derive_seed 9 [ "test-journal"; string_of_int i ]

let ctx = { Journal.spec = "test-spec"; extra = "test-extra" }

let fill_journal path n =
  match Journal.open_ ~expect:ctx ~path () with
  | Error e -> Alcotest.failf "open fresh: %s" e
  | Ok (j, _) ->
    for i = 0 to n - 1 do
      Journal.append j ~key:(mk_key i) (mk_entry i)
    done;
    Journal.close j

let test_store_basic () =
  with_tmp (fun path ->
      fill_journal path 10;
      match Journal.open_ ~expect:ctx ~path () with
      | Error e -> Alcotest.failf "reopen: %s" e
      | Ok (j, stats) ->
        check_int "replayed" 10 stats.Journal.replayed;
        check_int "no torn bytes" 0 stats.Journal.torn_bytes;
        check_int "no duplicates" 0 stats.Journal.duplicates;
        check_int "count" 10 (Journal.count j);
        check_int "appended through this handle" 0 (Journal.appended j);
        for i = 0 to 9 do
          check_bool "mem" true (Journal.mem j (mk_key i));
          match Journal.find j (mk_key i) with
          | Some e -> check_bool (Printf.sprintf "entry %d" i) true (e = mk_entry i)
          | None -> Alcotest.failf "entry %d missing" i
        done;
        (* iter replays file order *)
        let seen = ref [] in
        Journal.iter j (fun key _ -> seen := key :: !seen);
        check_bool "iter in file order" true
          (List.rev !seen = List.init 10 mk_key);
        (* appending a journaled key is refused *)
        (match Journal.append j ~key:(mk_key 3) (mk_entry 3) with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "duplicate append accepted");
        Journal.close j;
        Journal.close j (* idempotent *))

let test_store_context_mismatch () =
  with_tmp (fun path ->
      fill_journal path 3;
      match Journal.open_ ~expect:{ ctx with Journal.extra = "other" } ~path () with
      | Error msg ->
        check_bool "mentions the mismatch" true
          (String.length msg > 0 && String.sub msg 0 7 = "journal")
      | Ok _ -> Alcotest.fail "context mismatch accepted")

let test_store_missing_without_expect () =
  with_tmp (fun path ->
      match Journal.open_ ~path () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "opened a journal that does not exist")

(* The torn-write corpus: truncate a valid journal at EVERY byte offset;
   open must recover the longest valid frame prefix, never raise, and
   leave the file appendable. *)
let test_torn_corpus () =
  with_tmp (fun path ->
      fill_journal path 5;
      let data = read_file path in
      let frame_ends =
        (* Byte offsets at which a frame ends: superblock, then records. *)
        let rec loop pos acc =
          if pos >= String.length data then List.rev acc
          else
            match Frame.decode data ~pos with
            | Ok (_, next) -> loop next (next :: acc)
            | Error _ -> List.rev acc
        in
        loop 0 []
      in
      check_int "corpus has 6 frames" 6 (List.length frame_ends);
      for cut = 0 to String.length data do
        write_file path (String.sub data 0 cut);
        let expected_records =
          (* Complete record frames fully inside the cut (the superblock
             is frame 1, so subtract it). *)
          max 0 (List.length (List.filter (fun e -> e <= cut) frame_ends) - 1)
        in
        match Journal.open_ ~expect:ctx ~path () with
        | Error e -> Alcotest.failf "cut=%d: open failed: %s" cut e
        | Ok (j, stats) ->
          check_int (Printf.sprintf "cut=%d replayed" cut) expected_records stats.Journal.replayed;
          (* Recovery truncated the file back to the valid prefix (or
             reinitialized it when the superblock itself was torn). *)
          let good_prefix =
            List.fold_left (fun acc e -> if e <= cut then e else acc) 0 frame_ends
          in
          if good_prefix > 0 then begin
            check_int
              (Printf.sprintf "cut=%d torn bytes" cut)
              (cut - good_prefix) stats.Journal.torn_bytes;
            check_int
              (Printf.sprintf "cut=%d file truncated" cut)
              good_prefix
              (String.length (read_file path))
          end;
          (* The recovered journal accepts appends. *)
          Journal.append j ~key:(mk_key 1000) (mk_entry 40);
          Journal.close j;
          (match Journal.open_ ~expect:ctx ~path () with
          | Error e -> Alcotest.failf "cut=%d: reopen failed: %s" cut e
          | Ok (j2, stats2) ->
            check_int
              (Printf.sprintf "cut=%d after append" cut)
              (expected_records + 1) stats2.Journal.replayed;
            check_bool "appended entry survived" true
              (Journal.find j2 (mk_key 1000) = Some (mk_entry 40));
            Journal.close j2)
      done)

let test_duplicate_frames_first_wins () =
  with_tmp (fun path ->
      fill_journal path 4;
      (* Forge a duplicate frame for key 2 with different content, and a
         re-encoding of key 3, by appending raw bytes. *)
      let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
      output_string oc (Journal.encode_entry ~key:(mk_key 2) (mk_entry 77));
      output_string oc (Journal.encode_entry ~key:(mk_key 3) (mk_entry 3));
      close_out oc;
      (match Journal.open_ ~expect:ctx ~path () with
      | Error e -> Alcotest.failf "open: %s" e
      | Ok (j, stats) ->
        check_int "replayed distinct keys" 4 stats.Journal.replayed;
        check_int "duplicates counted" 2 stats.Journal.duplicates;
        check_bool "first occurrence wins" true (Journal.find j (mk_key 2) = Some (mk_entry 2));
        Journal.close j);
      (* Compaction drops the duplicate frames and the file shrinks back
         to the canonical bytes. *)
      match Journal.compact ~path () with
      | Error e -> Alcotest.failf "compact: %s" e
      | Ok (kept, stats) ->
        check_int "kept" 4 kept;
        check_int "compact saw duplicates" 2 stats.Journal.duplicates;
        let recompacted = read_file path in
        (match Journal.compact ~path () with
        | Error e -> Alcotest.failf "recompact: %s" e
        | Ok _ -> ());
        check_string "compaction is idempotent" recompacted (read_file path))

let test_bit_flip_truncates () =
  with_tmp (fun path ->
      fill_journal path 5;
      let data = read_file path in
      (* Find the start of the third record frame and flip a bit in it:
         recovery keeps the two records before it, drops it and
         everything after. *)
      let rec nth_end n pos =
        if n = 0 then pos
        else
          match Frame.decode data ~pos with
          | Ok (_, next) -> nth_end (n - 1) next
          | Error _ -> Alcotest.fail "corpus shorter than expected"
      in
      let third = nth_end 3 0 (* superblock + 2 records *) in
      let bad = Bytes.of_string data in
      Bytes.set bad (third + 20) (Char.chr (Char.code (Bytes.get bad (third + 20)) lxor 0x10));
      write_file path (Bytes.to_string bad);
      match Journal.open_ ~expect:ctx ~path () with
      | Error e -> Alcotest.failf "open: %s" e
      | Ok (j, stats) ->
        check_int "records before the flip survive" 2 stats.Journal.replayed;
        check_bool "torn tail includes the flipped frame" true (stats.Journal.torn_bytes > 0);
        check_int "file truncated to the valid prefix" third (String.length (read_file path));
        Journal.close j)

let test_rewritten_record_caught_by_byte_compare () =
  (* A consistently-rewritten record (valid CRC, wrong content) passes
     replay — only the verifier's byte-equality against re-execution can
     catch it.  Model both halves here. *)
  with_tmp (fun path ->
      fill_journal path 3;
      let data = read_file path in
      let truth = mk_entry 1 in
      let lie = { truth with Journal.messages = truth.Journal.messages + 1 } in
      let original = Journal.encode_entry ~key:(mk_key 1) truth in
      let forged = Journal.encode_entry ~key:(mk_key 1) lie in
      check_int "forgery has the original's length" (String.length original)
        (String.length forged);
      (* Splice the forged frame over the original. *)
      let idx =
        let rec find pos =
          if pos + String.length original > String.length data then
            Alcotest.fail "original frame not found"
          else if String.sub data pos (String.length original) = original then pos
          else find (pos + 1)
        in
        find 0
      in
      write_file path
        (String.sub data 0 idx
        ^ forged
        ^ String.sub data
            (idx + String.length original)
            (String.length data - idx - String.length original));
      match Journal.open_ ~expect:ctx ~path () with
      | Error e -> Alcotest.failf "open: %s" e
      | Ok (j, stats) ->
        (* Replay does NOT catch it... *)
        check_int "forged journal replays fully" 3 stats.Journal.replayed;
        check_int "no torn bytes" 0 stats.Journal.torn_bytes;
        let stored = match Journal.find j (mk_key 1) with Some e -> e | None -> assert false in
        (* ...byte equality against re-execution does. *)
        check_bool "verifier's byte-compare detects the rewrite" false
          (Journal.encode_entry ~key:(mk_key 1) stored
          = Journal.encode_entry ~key:(mk_key 1) truth);
        Journal.close j)

(* [Journal.decode_context], through [open_], on all-zero and all-one
   superblock payloads.  Two zero length fields over exactly their 32
   bits are the empty context, canonically encoded; a longer zero
   payload has trailing bits; a shorter one, or an all-ones length field
   over any short payload, is too short.  Each is a value or an error,
   never an exception. *)
let test_superblock_payload_boundaries () =
  let superblock fill bits =
    Frame.encode
      {
        Frame.kind = Frame.Superblock;
        version = Frame.current_version;
        key = 0;
        payload = Bitbuf.of_bits (List.init bits (fun _ -> fill));
      }
  in
  let open_data name data =
    with_tmp (fun path ->
        write_file path data;
        match Journal.open_ ~path () with
        | exception e -> Alcotest.failf "%s: open_ raised %s" name (Printexc.to_string e)
        | Ok (j, _) ->
          Journal.close j;
          Ok (Journal.context j)
        | Error e -> Error e)
  in
  let empty = { Journal.spec = ""; extra = "" } in
  check_string "32 zero bits are the canonical empty superblock"
    (Journal.encode_superblock empty) (superblock false 32);
  (match open_data "zeros, 32 bits" (superblock false 32) with
  | Ok ctx -> check_bool "empty context" true (ctx = empty)
  | Error e -> Alcotest.failf "all-zero superblock refused: %s" e);
  List.iter
    (fun (name, data, why) ->
      match open_data name data with
      | Ok _ -> Alcotest.failf "%s: opened" name
      | Error e ->
        check_bool (Printf.sprintf "%s: %s (got %S)" name why e) true (String.ends_with ~suffix:why e))
    [
      ("zeros, 33 bits", superblock false 33, "superblock payload has trailing bits");
      ("zeros, 0 bits", superblock false 0, "superblock payload too short");
      ("zeros, 16 bits", superblock false 16, "superblock payload too short");
      ("ones, 32 bits", superblock true 32, "superblock payload too short");
      ("ones, 1024 bits", superblock true 1024, "superblock payload too short");
    ]

let test_superblock_reinit_window () =
  with_tmp (fun path ->
      (* A file holding half a superblock is the crash-during-creation
         window: with an expected context, open reinitializes. *)
      write_file path "\x4f\x4a\x53";
      (match Journal.open_ ~expect:ctx ~path () with
      | Error e -> Alcotest.failf "reinit: %s" e
      | Ok (j, stats) ->
        check_int "nothing replayed" 0 stats.Journal.replayed;
        Journal.append j ~key:5 (mk_entry 5);
        Journal.close j);
      (* Without an expectation the same file is an error, not a wipe. *)
      write_file path "\x4f\x4a\x53";
      (match Journal.open_ ~path () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "corrupt superblock accepted without expect");
      (* A damaged superblock in front of intact records: reinit leaves
         exactly a fresh journal's bytes, none of the old records. *)
      Sys.remove path;
      fill_journal path 0;
      let fresh_bytes = read_file path in
      fill_journal path 5;
      let damaged = Bytes.of_string (read_file path) in
      check_bool "records follow the superblock" true
        (Bytes.length damaged > String.length fresh_bytes);
      Bytes.set damaged 0 (Char.chr (Char.code (Bytes.get damaged 0) lxor 0xff));
      write_file path (Bytes.to_string damaged);
      match Journal.open_ ~expect:ctx ~path () with
      | Error e -> Alcotest.failf "reinit over records: %s" e
      | Ok (j, stats) ->
        Journal.close j;
        check_int "nothing replayed" 0 stats.Journal.replayed;
        check_string "file is a fresh superblock" fresh_bytes (read_file path))

(* {1 Journaled execution: resume equivalence at every job count} *)

let synth_tasks = Array.init 100 (fun i -> i)

let synth_key i = Sweep.derive_seed 7 [ "synth"; string_of_int i ]

let synth_ctx = { Journal.spec = "synth-grid"; extra = "" }

let run_synth ?journal ~jobs () =
  let emitted = ref [] in
  let result =
    Sweep.map_journaled ~jobs ?journal ~chunk:8 ~key:synth_key
      ~local:(fun () -> ())
      ~f:(fun () _i t -> mk_entry t)
      ~emit:(fun i t e -> emitted := (i, t, e) :: !emitted)
      synth_tasks
  in
  (result, List.rev !emitted)

let test_map_journaled_without_journal () =
  let result, emitted = run_synth ~jobs:3 () in
  match result with
  | Error e -> Alcotest.failf "unexpected error: %s" e
  | Ok stats ->
    check_int "total" 100 stats.Sweep.total;
    check_int "executed" 100 stats.Sweep.executed;
    check_int "skipped" 0 stats.Sweep.skipped;
    check_bool "no recovery stats" true (stats.Sweep.recovery = None);
    check_int "all emitted" 100 (List.length emitted);
    List.iteri
      (fun idx (i, t, e) ->
        check_int "emit order" idx i;
        check_bool "entry matches task" true (e = mk_entry t))
      emitted

let test_resume_equivalence () =
  with_tmp (fun cold_path ->
      (* The cold run: jobs=1, straight through. *)
      let cold_result, cold_emitted = run_synth ~journal:(cold_path, synth_ctx) ~jobs:1 () in
      (match cold_result with
      | Error e -> Alcotest.failf "cold: %s" e
      | Ok stats -> check_int "cold executed all" 100 stats.Sweep.executed);
      let cold_bytes = read_file cold_path in
      List.iter
        (fun jobs ->
          with_tmp (fun path ->
              (* Interrupted run: journal holds a torn prefix of the
                 work (cut mid-frame at 60% of the file). *)
              write_file path (String.sub cold_bytes 0 (String.length cold_bytes * 6 / 10));
              let result, emitted = run_synth ~journal:(path, synth_ctx) ~jobs () in
              match result with
              | Error e -> Alcotest.failf "jobs=%d resume: %s" jobs e
              | Ok stats ->
                check_bool
                  (Printf.sprintf "jobs=%d: some points were replayed" jobs)
                  true (stats.Sweep.skipped > 0);
                check_int
                  (Printf.sprintf "jobs=%d: replay + execution covers the grid" jobs)
                  100
                  (stats.Sweep.skipped + stats.Sweep.executed);
                (* The headline guarantee, both halves: the emission
                   stream and the final journal bytes are identical to
                   the uninterrupted jobs=1 run. *)
                check_bool
                  (Printf.sprintf "jobs=%d: emission identical to cold run" jobs)
                  true (emitted = cold_emitted);
                check_string
                  (Printf.sprintf "jobs=%d: journal bytes identical to cold run" jobs)
                  cold_bytes (read_file path)))
        [ 1; 2; 7 ])

let test_map_journaled_validation () =
  (match run_synth ~jobs:0 () with
  | exception Invalid_argument _ -> Alcotest.fail "jobs=0 should clamp, not raise"
  | _ -> ());
  (match
     Sweep.map_journaled ~jobs:1 ~chunk:0 ~key:synth_key
       ~local:(fun () -> ())
       ~f:(fun () _ t -> mk_entry t)
       ~emit:(fun _ _ _ -> ())
       synth_tasks
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "chunk=0 accepted");
  (match
     Sweep.map_journaled ~jobs:1
       ~key:(fun _ -> 42)
       ~local:(fun () -> ())
       ~f:(fun () _ t -> mk_entry t)
       ~emit:(fun _ _ _ -> ())
       synth_tasks
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "colliding keys accepted");
  match
    Sweep.map_journaled ~jobs:1
      ~key:(fun t -> t - 50)
      ~local:(fun () -> ())
      ~f:(fun () _ t -> mk_entry t)
      ~emit:(fun _ _ _ -> ())
      synth_tasks
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative key accepted"

let test_map_journaled_failures_not_journaled () =
  with_tmp (fun path ->
      let run () =
        let emitted = ref 0 in
        let result =
          Sweep.map_journaled ~jobs:2 ~journal:(path, synth_ctx) ~chunk:4 ~key:synth_key
            ~local:(fun () -> ())
            ~f:(fun () _i t -> if t mod 10 = 3 then failwith "unlucky" else mk_entry t)
            ~emit:(fun _ _ _ -> incr emitted)
            synth_tasks
        in
        (result, !emitted)
      in
      (match run () with
      | Error e, _ -> Alcotest.failf "run: %s" e
      | Ok stats, emitted ->
        check_int "failures collected" 10 (List.length stats.Sweep.failed);
        check_int "successes executed" 90 stats.Sweep.executed;
        check_int "only successes emitted" 90 emitted;
        List.iter
          (fun (i, msg) ->
            check_int "failed index is the unlucky one" 3 (synth_tasks.(i) mod 10);
            check_bool "message captured" true (msg = "Failure(\"unlucky\")" || msg <> ""))
          stats.Sweep.failed);
      (* Failed points were not journaled: a second run retries exactly
         those and only those. *)
      match run () with
      | Error e, _ -> Alcotest.failf "second run: %s" e
      | Ok stats, _ ->
        check_int "second run replays the 90" 90 stats.Sweep.skipped;
        check_int "second run retries the 10" 10 (List.length stats.Sweep.failed))

let test_on_append_counts () =
  with_tmp (fun path ->
      let counts = ref [] in
      let result =
        Sweep.map_journaled ~jobs:3 ~journal:(path, synth_ctx) ~chunk:8 ~key:synth_key
          ~on_append:(fun n -> counts := n :: !counts)
          ~local:(fun () -> ())
          ~f:(fun () _i t -> mk_entry t)
          ~emit:(fun _ _ _ -> ())
          synth_tasks
      in
      (match result with Error e -> Alcotest.failf "run: %s" e | Ok _ -> ());
      check_bool "on_append saw 1..100 in order" true
        (List.rev !counts = List.init 100 (fun i -> i + 1)))

let suite =
  [
    Alcotest.test_case "frame roundtrips: kinds x keys x payload widths" `Quick
      test_frame_roundtrip;
    Alcotest.test_case "frame rejects malformed input totally" `Quick test_frame_rejects;
    Alcotest.test_case "frame header: zeros, ones, every field at its maximum" `Quick
      test_frame_header_boundaries;
    Alcotest.test_case "entry fields roundtrip at every boundary" `Quick
      test_entry_field_boundaries;
    Alcotest.test_case "verdict strings: empty, binary, long" `Quick test_entry_verdict_strings;
    Alcotest.test_case "oversized fields are rejected at encode" `Quick
      test_entry_rejects_oversized;
    Alcotest.test_case "payload length mismatches are rejected" `Quick
      test_payload_length_mismatch;
    Alcotest.test_case "golden frame: spec table bytes == codec bytes" `Quick test_golden_frame;
    Alcotest.test_case "store: create, replay, find, iter, dup append" `Quick test_store_basic;
    Alcotest.test_case "store: context mismatch refused" `Quick test_store_context_mismatch;
    Alcotest.test_case "store: missing file without expect is an error" `Quick
      test_store_missing_without_expect;
    Alcotest.test_case "torn corpus: recovery at every byte offset" `Quick test_torn_corpus;
    Alcotest.test_case "duplicate frames: first wins, compact drops them" `Quick
      test_duplicate_frames_first_wins;
    Alcotest.test_case "bit flip truncates at the damaged frame" `Quick test_bit_flip_truncates;
    Alcotest.test_case "rewritten record: replay passes, byte-compare catches" `Quick
      test_rewritten_record_caught_by_byte_compare;
    Alcotest.test_case "superblock reinit window" `Quick test_superblock_reinit_window;
    Alcotest.test_case "superblock payload: all zeros, all ones" `Quick
      test_superblock_payload_boundaries;
    Alcotest.test_case "map_journaled without journal = map" `Quick
      test_map_journaled_without_journal;
    Alcotest.test_case "resume equivalence at jobs 1, 2, 7" `Quick test_resume_equivalence;
    Alcotest.test_case "map_journaled validates chunk and keys" `Quick
      test_map_journaled_validation;
    Alcotest.test_case "failed points are not journaled, retried on resume" `Quick
      test_map_journaled_failures_not_journaled;
    Alcotest.test_case "on_append reports cumulative durable records" `Quick
      test_on_append_counts;
  ]
