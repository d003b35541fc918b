(* The distributed worker protocol: wire codec round-trips, frame
   reassembly over real pipes, truncation totality at every byte
   boundary, garbage detection, chaos spec round-trips, supervisor
   degradation when workers cannot spawn, CLI-edge validation of job
   counts, and the headline guarantee — sweep output is byte-identical
   at every worker count and under every chaos schedule, kills, hangs
   and corrupted streams included.  The end-to-end tests drive the real
   oraclesize binary (declared as a test dep), so real processes die. *)

module Frame = Bitstring.Frame
module Worker = Sim.Worker
module Journal = Sim.Journal
module Chaos = Fault.Chaos

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Relative to the test cwd (_build/default/test). *)
let exe = "../bin/oraclesize.exe"

let sample_entry =
  {
    Journal.n = 24;
    m = 31;
    messages = 120;
    rounds = 17;
    advice_bits = 96;
    raw_advice_bits = 48;
    faults = 2;
    fallbacks = 1;
    tampered = 0;
    retransmits = 3;
    corrected_bits = 0;
    informed = 24;
    verdict_class = Journal.Degraded;
    verdict = "degraded: advice-fallback(1)";
  }

let decode_one s =
  match Frame.decode s ~pos:0 with
  | Ok (f, next) ->
    check_int "frame consumed exactly" (String.length s) next;
    f
  | Error e -> Alcotest.failf "decode failed: %s" (Frame.error_to_string e)

let roundtrip msg = Worker.parse (decode_one (Worker.encode msg))

(* {1 Wire codec} *)

let test_codec_roundtrips () =
  (match roundtrip (Worker.Hello { worker = 3; wire_version = Worker.wire_version; auth = "" }) with
  | Ok (Worker.Hello { worker = 3; wire_version = v; auth = "" }) ->
    check_int "hello version" Worker.wire_version v
  | _ -> Alcotest.fail "hello did not round-trip");
  (match roundtrip (Worker.Hello { worker = 9; wire_version = Worker.wire_version; auth = "s3cret\x00tok" }) with
  | Ok (Worker.Hello { worker = 9; wire_version = _; auth }) ->
    check_string "auth token survives byte-for-byte" "s3cret\x00tok" auth
  | _ -> Alcotest.fail "authenticated hello did not round-trip");
  (match roundtrip (Worker.Config { Journal.spec = "ns=16;reps=2"; extra = "protect=raw;retry=0" })
   with
  | Ok (Worker.Config ctx) ->
    check_string "config spec" "ns=16;reps=2" ctx.Journal.spec;
    check_string "config extra" "protect=raw;retry=0" ctx.Journal.extra
  | _ -> Alcotest.fail "config did not round-trip");
  (match roundtrip (Worker.Task_batch { seq = 7; indices = [| 5; 0; 4099 |] }) with
  | Ok (Worker.Task_batch { seq = 7; indices }) ->
    Alcotest.(check (array int)) "batch indices" [| 5; 0; 4099 |] indices
  | _ -> Alcotest.fail "task batch did not round-trip");
  (match roundtrip (Worker.Result { index = 11; result = Ok sample_entry }) with
  | Ok (Worker.Result { index = 11; result = Ok e }) ->
    check_bool "entry fields survive" true (e = sample_entry)
  | _ -> Alcotest.fail "ok result did not round-trip");
  (match roundtrip (Worker.Result { index = 2; result = Error "task blew up" }) with
  | Ok (Worker.Result { index = 2; result = Error m }) ->
    check_string "error text" "task blew up" m
  | _ -> Alcotest.fail "error result did not round-trip");
  (match roundtrip (Worker.Heartbeat { worker = 1; count = 42 }) with
  | Ok (Worker.Heartbeat { worker = 1; count = 42 }) -> ()
  | _ -> Alcotest.fail "heartbeat did not round-trip");
  match roundtrip Worker.Shutdown with
  | Ok Worker.Shutdown -> ()
  | _ -> Alcotest.fail "shutdown did not round-trip"

let test_parse_rejects_malformed () =
  let reject name f =
    match Worker.parse f with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s should not parse" name
  in
  (* Journal kinds never belong on the wire. *)
  reject "record frame"
    {
      Frame.kind = Frame.Record;
      version = Frame.current_version;
      key = 1;
      payload = Journal.entry_payload sample_entry;
    };
  reject "superblock frame"
    {
      Frame.kind = Frame.Superblock;
      version = Frame.current_version;
      key = 0;
      payload = Journal.context_payload { Journal.spec = "x"; extra = "" };
    };
  (* Payload widths are exact, not minimums. *)
  let bits n =
    let b = Bitstring.Bitbuf.create () in
    for _ = 1 to n do
      Bitstring.Bitbuf.add_bit b false
    done;
    b
  in
  reject "heartbeat with 31-bit payload"
    { Frame.kind = Frame.Heartbeat; version = Frame.current_version; key = 0; payload = bits 31 };
  reject "shutdown with payload"
    { Frame.kind = Frame.Shutdown; version = Frame.current_version; key = 0; payload = bits 1 };
  (* A task batch whose count disagrees with its payload length. *)
  let b = Bitstring.Bitbuf.create () in
  Bitstring.Bitbuf.add_int b ~width:16 3;
  Bitstring.Bitbuf.add_int b ~width:32 9;
  reject "task count 3 with one index"
    { Frame.kind = Frame.Task; version = Frame.current_version; key = 0; payload = b };
  reject "empty result payload"
    { Frame.kind = Frame.Result; version = Frame.current_version; key = 0; payload = bits 0 }

(* {1 Field boundaries}

   Every length and count field of the wire codec at 0, at its maximum
   and overrunning a short payload, and every fixed-width integer at its
   maximum (chamelon's boundary pattern).  [parse] must answer [Error],
   or a message that re-encodes to the frame's exact bytes; it must
   never raise. *)

let payload fields =
  let b = Bitstring.Bitbuf.create () in
  List.iter (fun (width, v) -> Bitstring.Bitbuf.add_int b ~width v) fields;
  b

let bytes_field n c = List.init n (fun _ -> (8, c))

let parse_fields name kind ?(key = 0) fields =
  let f = { Frame.kind; version = Frame.current_version; key; payload = payload fields } in
  match Worker.parse f with
  | exception e -> Alcotest.failf "%s: parse raised %s" name (Printexc.to_string e)
  | Error _ -> None
  | Ok msg ->
    check_bool (name ^ ": exact round trip") true (Worker.encode msg = Frame.encode f);
    Some msg

let test_parse_field_boundaries () =
  let ok name kind ?key fields =
    match parse_fields name kind ?key fields with
    | Some msg -> msg
    | None -> Alcotest.failf "%s: rejected" name
  in
  let error name kind ?key fields =
    if parse_fields name kind ?key fields <> None then Alcotest.failf "%s: parsed" name
  in
  (* Announce hello: tag 0, version, token length, token bytes. *)
  (match
     ok "announce, 0xffff-byte token" Frame.Hello ~key:3
       ([ (1, 0); (8, Worker.wire_version); (16, 0xffff) ] @ bytes_field 0xffff 0xff)
   with
  | Worker.Hello { worker = 3; auth; _ } ->
    check_bool "longest token survives" true (auth = String.make 0xffff '\xff')
  | _ -> Alcotest.fail "announce hello parsed as another message");
  error "announce, length 0xffff over 3 bytes" Frame.Hello
    ([ (1, 0); (8, Worker.wire_version); (16, 0xffff) ] @ bytes_field 3 0xff);
  error "announce, length 1 over no bytes" Frame.Hello [ (1, 0); (8, Worker.wire_version); (16, 1) ];
  (* Task batches: count 0 and 0xffff, indices 0 and 2^32 - 1. *)
  (match ok "task, count 0" Frame.Task ~key:7 [ (16, 0) ] with
  | Worker.Task_batch { seq = 7; indices = [||] } -> ()
  | _ -> Alcotest.fail "empty task batch parsed as another message");
  let extremes = Array.init 0xffff (fun i -> if i mod 2 = 0 then 0 else 0xffffffff) in
  (match
     ok "task, count 0xffff" Frame.Task
       ((16, 0xffff) :: Array.to_list (Array.map (fun i -> (32, i)) extremes))
   with
  | Worker.Task_batch { indices; _ } -> check_bool "0 and 2^32-1 survive" true (indices = extremes)
  | _ -> Alcotest.fail "full task batch parsed as another message");
  error "task, count 0xffff over one index" Frame.Task [ (16, 0xffff); (32, 0xffffffff) ];
  (* Heartbeat: the count at 2^32 - 1. *)
  (match ok "heartbeat, count 2^32-1" Frame.Heartbeat ~key:1 [ (32, 0xffffffff) ] with
  | Worker.Heartbeat { worker = 1; count } -> check_int "largest count" 0xffffffff count
  | _ -> Alcotest.fail "heartbeat parsed as another message");
  (* Error result: tag 0, a 16-bit length, the bytes. *)
  (match ok "error result, 0xffff bytes" Frame.Result ~key:2 ([ (1, 0); (16, 0xffff) ] @ bytes_field 0xffff 0x7a) with
  | Worker.Result { index = 2; result = Error msg } ->
    check_int "longest error text" 0xffff (String.length msg)
  | _ -> Alcotest.fail "error result parsed as another message");
  error "error result, length 0xffff over 2 bytes" Frame.Result
    ([ (1, 0); (16, 0xffff) ] @ bytes_field 2 0x7a);
  (* Config hello: tag 1, then spec and extra, each a 16-bit length and
     its bytes. *)
  (match ok "config, empty spec and extra" Frame.Hello [ (1, 1); (16, 0); (16, 0) ] with
  | Worker.Config ctx -> check_bool "empty context" true (ctx = { Journal.spec = ""; extra = "" })
  | _ -> Alcotest.fail "empty config parsed as another message");
  (match
     ok "config, 0xffff-byte spec and extra" Frame.Hello
       (((1, 1) :: (16, 0xffff) :: bytes_field 0xffff 0x41) @ ((16, 0xffff) :: bytes_field 0xffff 0x42))
   with
  | Worker.Config ctx ->
    check_bool "longest context" true
      (ctx = { Journal.spec = String.make 0xffff 'A'; extra = String.make 0xffff 'B' })
  | _ -> Alcotest.fail "full config parsed as another message");
  error "config, all ones over 41 bits" Frame.Hello [ (1, 1); (16, 0xffff); (16, 0xffff); (8, 0xff) ];
  error "config, spec length 0xffff over 3 bytes" Frame.Hello
    ((1, 1) :: (16, 0xffff) :: bytes_field 3 0x41);
  error "config, extra length missing" Frame.Hello [ (1, 1); (16, 0) ];
  (* Config and shutdown frames are keyed 0 by layout. *)
  error "config, keyed 5" Frame.Hello ~key:5 [ (1, 1); (16, 0); (16, 0) ];
  error "shutdown, keyed 9" Frame.Shutdown ~key:9 []

(* {1 Rx at header extremes}

   A header whose payload-length field is at its maximum asks for more
   bytes; a header of all zeros or all ones is not a frame at all. *)

let test_rx_header_extremes () =
  let header ~length =
    let b = Bitstring.Bitbuf.create () in
    List.iter
      (fun (width, v) -> Bitstring.Bitbuf.add_int b ~width v)
      [ (16, Frame.magic); (8, Char.code 'H'); (8, Frame.current_version); (32, 0); (32, 0); (24, length) ];
    Bitstring.Bitbuf.to_bytes b
  in
  let fed bytes =
    let rx = Worker.Rx.create () in
    Worker.Rx.feed rx bytes (Bytes.length bytes);
    rx
  in
  let longest = header ~length:Frame.max_payload_bits in
  check_int "header is 15 bytes" Frame.header_bytes (Bytes.length longest);
  let rx = fed longest in
  (match Worker.Rx.next rx with
  | Ok None -> check_int "the header stays pending" 15 (Worker.Rx.pending rx)
  | Ok (Some _) -> Alcotest.fail "a 2^24-1-bit payload header produced a frame"
  | Error e -> Alcotest.failf "a 2^24-1-bit payload header was rejected: %s" e
  | exception e -> Alcotest.failf "Rx raised %s" (Printexc.to_string e));
  List.iter
    (fun (name, c) ->
      match Worker.Rx.next (fed (Bytes.make Frame.header_bytes c)) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "an all-%s header was not rejected" name
      | exception e -> Alcotest.failf "all-%s header: Rx raised %s" name (Printexc.to_string e))
    [ ("zero", '\x00'); ("0xFF", '\xff') ]

(* {1 Truncation totality}

   A crashed worker tears its last frame at an arbitrary byte.  Decoding
   any strict prefix of a heartbeat or result frame must yield Truncated
   — never an exception, never a bogus success — and Rx must answer
   "feed me more" for every such prefix. *)

let test_truncation_every_boundary () =
  List.iter
    (fun (name, msg) ->
      let s = Worker.encode msg in
      for cut = 0 to String.length s - 1 do
        (match Frame.decode (String.sub s 0 cut) ~pos:0 with
        | Error (Frame.Truncated _) -> ()
        | Error e ->
          Alcotest.failf "%s cut at %d: expected Truncated, got %s" name cut
            (Frame.error_to_string e)
        | Ok _ -> Alcotest.failf "%s cut at %d decoded successfully" name cut);
        let rx = Worker.Rx.create () in
        Worker.Rx.feed rx (Bytes.of_string (String.sub s 0 cut)) cut;
        match Worker.Rx.next rx with
        | Ok None -> ()
        | Ok (Some _) -> Alcotest.failf "%s cut at %d: Rx produced a frame" name cut
        | Error e -> Alcotest.failf "%s cut at %d: Rx errored: %s" name cut e
      done)
    [
      ("heartbeat", Worker.Heartbeat { worker = 2; count = 9 });
      ("result", Worker.Result { index = 5; result = Ok sample_entry });
      ("error-result", Worker.Result { index = 1; result = Error "boom" });
    ]

(* {1 Reassembly over a real pipe}

   Frames pushed through an OS pipe in deliberately awkward slices must
   come out whole and in order, whatever the read/write boundaries. *)

let test_rx_interleaved_pipe_reads () =
  let msgs =
    [
      Worker.Hello { worker = 0; wire_version = Worker.wire_version; auth = "tok" };
      Worker.Heartbeat { worker = 0; count = 0 };
      Worker.Result { index = 3; result = Ok sample_entry };
      Worker.Heartbeat { worker = 0; count = 1 };
      Worker.Result { index = 4; result = Error "x" };
    ]
  in
  let stream = String.concat "" (List.map Worker.encode msgs) in
  let r, w = Unix.pipe () in
  (* Write in prime-sized slices so frame boundaries never align with
     write boundaries; the stream is far below pipe capacity, so
     single-threaded write-then-read cannot block. *)
  let pos = ref 0 in
  let slice = ref 1 in
  while !pos < String.length stream do
    let len = min !slice (String.length stream - !pos) in
    let n = Unix.write_substring w stream !pos len in
    pos := !pos + n;
    slice := (!slice mod 7) + 3
  done;
  Unix.close w;
  let rx = Worker.Rx.create () in
  let buf = Bytes.create 3 in
  let out = ref [] in
  let rec drain () =
    match Worker.Rx.next rx with
    | Ok (Some f) ->
      (match Worker.parse f with
      | Ok m -> out := m :: !out
      | Error e -> Alcotest.failf "parse mid-stream: %s" e);
      drain ()
    | Ok None -> ()
    | Error e -> Alcotest.failf "Rx error mid-stream: %s" e
  in
  let rec pump () =
    let n = Unix.read r buf 0 3 in
    if n > 0 then begin
      Worker.Rx.feed rx buf n;
      drain ();
      pump ()
    end
  in
  pump ();
  Unix.close r;
  check_int "all frames reassembled" (List.length msgs) (List.length !out);
  check_bool "in order and intact" true (List.rev !out = msgs);
  check_int "no leftover bytes" 0 (Worker.Rx.pending rx)

let test_rx_garbage_is_fatal () =
  let rx = Worker.Rx.create () in
  let good = Worker.encode (Worker.Heartbeat { worker = 1; count = 0 }) in
  let junk = Chaos.garbage_bytes { Chaos.directives = []; seed = 9 } ~worker:1 in
  check_bool "garbage dodges the frame magic" true (junk.[0] <> '\x4f');
  let stream = good ^ junk in
  Worker.Rx.feed rx (Bytes.of_string stream) (String.length stream);
  (match Worker.Rx.next rx with
  | Ok (Some { Frame.kind = Frame.Heartbeat; _ }) -> ()
  | _ -> Alcotest.fail "valid frame before the garbage was lost");
  match Worker.Rx.next rx with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage after a valid frame must be a fatal stream error"

(* {1 Chaos specs} *)

let test_chaos_spec_roundtrip () =
  List.iter
    (fun spec ->
      match Chaos.of_string spec with
      | Error e -> Alcotest.failf "%S: %s" spec e
      | Ok c -> check_string spec spec (Chaos.to_string c))
    [
      "kill:worker=2,after=5";
      "kill:worker=2,after=5;hang:worker=0,after=9";
      "garbage:worker=1,after=3;seed=7";
      "partition:worker=0,after=2,for=1500";
      "delay:worker=0,after=1,ms=50";
      "slow:worker=1,after=0,ms=40";
      "trickle:worker=1,after=0";
      "partition:worker=0,after=2,for=3000;trickle:worker=1,after=0;kill:worker=2,after=4";
      "none";
    ];
  (* Defaulted arguments are printed explicitly in the canonical form. *)
  check_string "partition defaults for=3000" "partition:worker=1,after=0,for=3000"
    (Chaos.to_string (Chaos.of_string_exn "partition:worker=1,after=0"));
  check_string "delay defaults ms=25" "delay:worker=1,after=0,ms=25"
    (Chaos.to_string (Chaos.of_string_exn "delay:worker=1,after=0"));
  check_string "slow defaults ms=25" "slow:worker=1,after=0,ms=25"
    (Chaos.to_string (Chaos.of_string_exn "slow:worker=1,after=0"));
  List.iter
    (fun spec ->
      match Chaos.of_string spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" spec)
    [
      "explode:worker=1,after=2";
      "kill:worker=1";
      "kill:after=2";
      "kill:worker=-1,after=2";
      "kill worker=1";
      "kill:worker=1,after=2,for=500";
      "delay:worker=0,after=1,for=5";
      "slow:worker=0,after=1,for=5";
      "partition:worker=0,after=1,ms=5";
      "trickle:worker=1,after=0,ms=9";
      "partition:worker=0,after=1,for=-5";
    ];
  check_bool "empty spec is none" true (Chaos.of_string "" = Ok Chaos.none)

let test_chaos_hook_fires_by_count () =
  let c = Chaos.of_string_exn "kill:worker=1,after=3;garbage:worker=0,after=0;seed=5" in
  let h1 = Chaos.hook c ~worker:1 in
  check_bool "before threshold" true (h1 ~completed:2 = `Continue);
  check_bool "at threshold" true (h1 ~completed:3 = `Kill);
  check_bool "past threshold" true (h1 ~completed:7 = `Kill);
  (match Chaos.hook c ~worker:0 ~completed:0 with
  | `Garbage g ->
    check_int "garbage is 64 bytes" 64 (String.length g);
    check_string "garbage is seeded deterministically" g (Chaos.garbage_bytes c ~worker:0)
  | _ -> Alcotest.fail "worker 0 should emit garbage immediately");
  check_bool "untargeted worker untouched" true (Chaos.hook c ~worker:5 ~completed:100 = `Continue)

(* {1 Dispatch degradation}

   A dispatch whose workers all fail to start (bogus argv: exec fails in
   the child, which exits at once) must finish the run in-process via
   the fallback — no hang, no error, every index answered. *)

let test_dispatch_degrades_to_fallback () =
  let d =
    Sim.Dispatch.create ~workers:2 ~heartbeat_timeout:5.0
      ~command:(fun ~id:_ -> [| "/nonexistent/oracle-size-worker"; "worker" |])
      ~context:{ Journal.spec = "ns=16"; extra = "protect=raw;retry=0" }
      ~fallback:(fun i -> Ok { sample_entry with Journal.n = i })
      ()
  in
  Fun.protect
    ~finally:(fun () -> Sim.Dispatch.shutdown d)
    (fun () ->
      let results = Sim.Dispatch.run d [| 0; 1; 2; 3; 4 |] in
      check_int "all indices answered" 5 (Array.length results);
      Array.iteri
        (fun i r ->
          match r with
          | Ok e -> check_int (Printf.sprintf "slot %d from fallback" i) i e.Journal.n
          | Error m -> Alcotest.failf "slot %d errored: %s" i m)
        results;
      let s = Sim.Dispatch.stats d in
      check_int "all tasks ran inline" 5 s.Sim.Dispatch.inline_tasks;
      check_int "no survivors" 0 (Sim.Dispatch.live_workers d))

(* {1 End-to-end: the real binary} *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let sh cmd =
  match Unix.system cmd with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n

let temp_out name = Filename.temp_file ("oracle-worker-" ^ name) ".out"

(* Small but non-trivial: 8 points, two sizes, two reps. *)
let e2e_grid = "protocols=wakeup,broadcast;ns=16,24;reps=2;seed=7"

let test_cli_rejects_bad_jobs () =
  let cases =
    [
      ("-j 0", Printf.sprintf "%s sweep -j 0 %S" exe e2e_grid);
      ("-j -2", Printf.sprintf "%s sweep -j=-2 %S" exe e2e_grid);
      ("ORACLE_SIZE_JOBS=banana", Printf.sprintf "ORACLE_SIZE_JOBS=banana %s sweep %S" exe e2e_grid);
      ("ORACLE_SIZE_JOBS=0", Printf.sprintf "ORACLE_SIZE_JOBS=0 %s sweep %S" exe e2e_grid);
    ]
  in
  List.iter
    (fun (name, cmd) ->
      check_int (name ^ " is a CLI error (124)") 124 (sh (cmd ^ " >/dev/null 2>/dev/null")))
    cases;
  (* A valid env value must still work. *)
  check_int "ORACLE_SIZE_JOBS=2 accepted" 0
    (sh (Printf.sprintf "ORACLE_SIZE_JOBS=2 %s sweep %S >/dev/null 2>/dev/null" exe e2e_grid))

let test_cli_rejects_chaos_without_workers () =
  check_int "--chaos without --workers" 2
    (sh
       (Printf.sprintf "%s sweep --chaos 'kill:worker=0,after=1' %S >/dev/null 2>/dev/null" exe
          e2e_grid));
  check_int "malformed --chaos is a CLI error" 124
    (sh
       (Printf.sprintf "%s sweep --workers 2 --chaos 'explode:worker=0' %S >/dev/null 2>/dev/null"
          exe e2e_grid))

(* The headline invariant: sweep bytes are identical across worker
   counts and chaos schedules.  Every schedule here provably fires (the
   stderr log must name a dead worker) and the output must still match
   the in-process baseline byte for byte. *)
let test_chaos_determinism_grid () =
  let base = temp_out "base" in
  check_int "baseline sweep" 0
    (sh (Printf.sprintf "%s sweep %S --out %s 2>/dev/null" exe e2e_grid base));
  let baseline = read_file base in
  check_bool "baseline is non-empty" true (String.length baseline > 0);
  let scenarios =
    [
      (1, "none", false);
      (2, "none", false);
      (7, "none", false);
      (* Death-asserted schedules use after=0 (or a single worker):
         the handshake barrier guarantees every worker receives its
         first batch, so such faults provably fire; an after>0 fault
         on one of several workers races against siblings draining
         the queue first and may legitimately never trigger. *)
      (1, "kill:worker=0,after=1", true);
      (2, "kill:worker=1,after=0", true);
      (7, "kill:worker=2,after=0;kill:worker=5,after=0", true);
      (2, "garbage:worker=0,after=0;seed=9", true);
      (2, "hang:worker=0,after=0", true);
    ]
  in
  List.iter
    (fun (workers, chaos, expect_death) ->
      let name = Printf.sprintf "workers=%d chaos=%s" workers chaos in
      let out = temp_out "chaos" in
      let errf = temp_out "chaos-err" in
      let chaos_flag = if chaos = "none" then "" else Printf.sprintf "--chaos '%s'" chaos in
      let cmd =
        Printf.sprintf "%s sweep %S --out %s --workers %d --batch 1 --heartbeat-timeout 1 %s 2>%s"
          exe e2e_grid out workers chaos_flag errf
      in
      check_int (name ^ " exits 0") 0 (sh cmd);
      check_bool (name ^ " bytes match baseline") true (read_file out = baseline);
      let err = read_file errf in
      let mentions_death =
        let re = "dead:" in
        let n = String.length err and m = String.length re in
        let rec scan i = i + m <= n && (String.sub err i m = re || scan (i + 1)) in
        scan 0
      in
      if expect_death then check_bool (name ^ " killed at least one worker") true mentions_death;
      Sys.remove out;
      Sys.remove errf)
    scenarios;
  Sys.remove base

(* Worker deaths composed with supervisor SIGKILL and journal resume:
   the crashed distributed run leaves a canonical-prefix journal, and
   the resumed run completes it to bytes identical to an uninterrupted
   in-process journal. *)
let test_chaos_composes_with_journal_resume () =
  let dir = Filename.temp_file "oracle-worker-resume" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let p f = Filename.concat dir f in
  check_int "uninterrupted journaled sweep" 0
    (sh
       (Printf.sprintf "%s sweep %S --out %s --journal %s 2>/dev/null" exe e2e_grid
          (p "base.jsonl") (p "base.journal")));
  let crash =
    sh
      (Printf.sprintf
         "%s sweep %S --out %s --journal %s --workers 2 --batch 1 --chaos \
          'kill:worker=1,after=0' --crash-after 3 2>/dev/null"
         exe e2e_grid (p "d.jsonl") (p "d.journal"))
  in
  check_int "supervisor died by SIGKILL" 137 crash;
  check_int "resume completes" 0
    (sh
       (Printf.sprintf "%s sweep %S --out %s --journal %s --workers 2 --batch 1 2>/dev/null" exe
          e2e_grid (p "d2.jsonl") (p "d.journal")));
  check_bool "resumed rows match uninterrupted rows" true
    (read_file (p "d2.jsonl") = read_file (p "base.jsonl"));
  check_bool "journal bytes match uninterrupted journal" true
    (read_file (p "d.journal") = read_file (p "base.journal"));
  check_int "journal verify accepts the composed journal" 0
    (sh (Printf.sprintf "%s journal verify %s >/dev/null 2>/dev/null" exe (p "d.journal")));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* [journal ls] labels every record of a journaled sweep by its grid
   point and finds no orphan. *)
let test_journal_ls () =
  let grid = "protocols=wakeup,broadcast;ns=16;scheds=sync;reps=2;seed=3" in
  let journal = temp_out "ls-journal" and out = temp_out "ls" in
  Sys.remove journal;
  check_int "journaled sweep" 0
    (sh (Printf.sprintf "%s sweep %S --journal %s >/dev/null 2>/dev/null" exe grid journal));
  check_int "journal ls exits 0" 0
    (sh (Printf.sprintf "%s journal ls %s >%s 2>/dev/null" exe journal out));
  let lines = String.split_on_char '\n' (read_file out) in
  let starts prefix = List.filter (String.starts_with ~prefix) lines in
  check_int "one records line" 1 (List.length (starts "records:  4 "));
  (match Sim.Sweep.of_string grid with
  | Ok g ->
    let pts = Sim.Sweep.points g in
    check_int "four points" 4 (Array.length pts);
    Array.iter
      (fun p ->
        let label = Sim.Sweep.point_label p in
        check_int (label ^ " listed once") 1 (List.length (starts (label ^ " "))))
      pts
  | Error e -> Alcotest.failf "grid: %s" e);
  check_int "no orphan rows" 0
    (List.length (List.filter (fun l -> String.starts_with ~prefix:"<orphan key" l) lines));
  Sys.remove journal;
  Sys.remove out

let suite =
  [
    Alcotest.test_case "wire codec round-trips every message kind" `Quick test_codec_roundtrips;
    Alcotest.test_case "parse rejects malformed and journal-kind frames" `Quick
      test_parse_rejects_malformed;
    Alcotest.test_case "truncation at every byte boundary is Truncated" `Quick
      test_truncation_every_boundary;
    Alcotest.test_case "Rx reassembles frames across pipe read boundaries" `Quick
      test_rx_interleaved_pipe_reads;
    Alcotest.test_case "garbage mid-stream is a fatal Rx error" `Quick test_rx_garbage_is_fatal;
    Alcotest.test_case "chaos specs round-trip and reject junk" `Quick test_chaos_spec_roundtrip;
    Alcotest.test_case "chaos hook fires by completed-task count" `Quick
      test_chaos_hook_fires_by_count;
    Alcotest.test_case "dispatch degrades to in-process fallback" `Quick
      test_dispatch_degrades_to_fallback;
    Alcotest.test_case "CLI rejects -j 0 and bad ORACLE_SIZE_JOBS" `Slow test_cli_rejects_bad_jobs;
    Alcotest.test_case "CLI gates --chaos behind --workers" `Slow
      test_cli_rejects_chaos_without_workers;
    Alcotest.test_case "bytes identical across workers and chaos schedules" `Slow
      test_chaos_determinism_grid;
    Alcotest.test_case "worker kills compose with crash-after and resume" `Slow
      test_chaos_composes_with_journal_resume;
    Alcotest.test_case "journal ls labels every record" `Slow test_journal_ls;
    Alcotest.test_case "parse at every field boundary" `Quick
      test_parse_field_boundaries;
    Alcotest.test_case "Rx at header extremes" `Quick test_rx_header_extremes;
  ]
