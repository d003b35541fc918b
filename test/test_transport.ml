(* The TCP transport under the distributed sweep protocol: host:port
   parsing, the listener/connect pair over real loopback sockets, frame
   reassembly under 1-byte reads and mid-CRC splits, the network-chaos
   shim (delay one-shot, trickle sticky, content never altered), the
   chaos hook's network-directive semantics, and the authentication
   guarantee — a peer announcing the wrong token is condemned before a
   single frame is sent to it.  The end-to-end tests drive the real
   oraclesize binary with --listen/--connect and assert the headline
   invariant: sweep bytes are identical at any local/remote worker mix,
   under partitions, trickles, and kills. *)

module Transport = Sim.Transport
module Worker = Sim.Worker
module Journal = Sim.Journal
module Chaos = Fault.Chaos

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* {1 Helpers} *)

let listen_or_fail () =
  match Transport.listen ~port:0 () with
  | Ok l -> l
  | Error e -> Alcotest.failf "listen: %s" e

let connect_or_fail port =
  match
    Transport.connect ~read_timeout:10. ~host:"127.0.0.1" ~port ~attempts:20 ~retry_delay:0.1 ()
  with
  | Ok fd -> fd
  | Error e -> Alcotest.failf "connect: %s" e

(* The listener fd is nonblocking; poll it briefly — the connect above
   has already completed the TCP handshake, so the queue is non-empty
   or about to be. *)
let accept_or_fail l =
  let deadline = Unix.gettimeofday () +. 5. in
  let rec go () =
    match Transport.accept l with
    | Some (fd, _) -> fd
    | None ->
      if Unix.gettimeofday () > deadline then Alcotest.fail "accept timed out";
      ignore (Unix.select [ Transport.listener_fd l ] [] [] 0.2);
      go ()
  in
  go ()

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

let context = { Journal.spec = "ns=16"; extra = "protect=raw;retry=0" }

(* {1 parse_hostport} *)

let test_parse_hostport () =
  (match Transport.parse_hostport "127.0.0.1:9000" with
  | Ok ("127.0.0.1", 9000) -> ()
  | Ok (h, p) -> Alcotest.failf "parsed as %s:%d" h p
  | Error e -> Alcotest.fail e);
  (match Transport.parse_hostport "sweep-host.example:1" with
  | Ok ("sweep-host.example", 1) -> ()
  | _ -> Alcotest.fail "hostname:1 should parse");
  (match Transport.parse_hostport "h:65535" with
  | Ok (_, 65535) -> ()
  | _ -> Alcotest.fail "port 65535 should parse");
  List.iter
    (fun s ->
      match Transport.parse_hostport s with
      | Error _ -> ()
      | Ok (h, p) -> Alcotest.failf "%S should not parse (got %s:%d)" s h p)
    [ "nohost"; ":80"; "h:"; "h:0"; "h:65536"; "h:-1"; "h:banana"; "" ]

(* {1 The shim} *)

(* A delayed write stalls once, then the shim disarms itself; content
   arrives bit-for-bit regardless. *)
let test_shim_delay_one_shot () =
  let s = Transport.Shim.create () in
  let r, w = Unix.pipe () in
  let io = Transport.shimmed s (Transport.fd_io ~input:r ~output:w) in
  s.Transport.Shim.delay_s <- 0.05;
  let t0 = Unix.gettimeofday () in
  io.Transport.write "hello";
  let dt = Unix.gettimeofday () -. t0 in
  check_bool "delayed write stalled" true (dt >= 0.04);
  check_bool "delay disarmed after one write" true (s.Transport.Shim.delay_s = 0.);
  io.Transport.write " world";
  check_bool "delay stayed disarmed" true (s.Transport.Shim.delay_s = 0.);
  let buf = Bytes.create 64 in
  let rec read_exactly acc want =
    if String.length acc >= want then acc
    else
      let n = io.Transport.read buf in
      read_exactly (acc ^ Bytes.sub_string buf 0 n) want
  in
  check_string "content unaltered" "hello world" (read_exactly "" 11);
  io.Transport.close ();
  io.Transport.close () (* idempotent *)

(* {1 Loopback sockets and frame reassembly} *)

(* A trickled client writes every frame one byte at a time over real
   TCP; a 1-byte-buffer reader reassembles them via Rx.  Every message
   must survive byte-for-byte (re-encoding the parse equals the
   original encoding). *)
let test_rx_trickled_loopback_one_byte_reads () =
  let l = listen_or_fail () in
  let cfd = connect_or_fail (Transport.bound_port l) in
  let sfd = accept_or_fail l in
  Transport.close_listener l;
  let shim = Transport.Shim.create () in
  shim.Transport.Shim.trickle <- true;
  let cio = Transport.shimmed shim (Transport.socket_io cfd) in
  let sio = Transport.socket_io sfd in
  let msgs =
    [
      Worker.Hello { worker = 1; wire_version = Worker.wire_version; auth = "tok" };
      Worker.Heartbeat { worker = 1; count = 3 };
      Worker.Result { index = 5; result = Ok sample_entry };
      Worker.Result { index = 6; result = Error "task blew up" };
      Worker.Shutdown;
    ]
  in
  List.iter (fun m -> cio.Transport.write (Worker.encode m)) msgs;
  let rx = Worker.Rx.create () in
  let buf = Bytes.create 1 in
  let rec collect acc remaining =
    if remaining = 0 then List.rev acc
    else
      match Worker.Rx.next rx with
      | Error e -> Alcotest.failf "rx: %s" e
      | Ok (Some f) -> (
        match Worker.parse f with
        | Ok m -> collect (m :: acc) (remaining - 1)
        | Error e -> Alcotest.failf "parse: %s" e)
      | Ok None ->
        let n = sio.Transport.read buf in
        check_int "one byte per read" 1 n;
        Worker.Rx.feed rx buf n;
        collect acc remaining
  in
  let got = collect [] (List.length msgs) in
  List.iter2
    (fun sent received ->
      check_string "message survives the trickle byte-for-byte" (Worker.encode sent)
        (Worker.encode received))
    msgs got;
  cio.Transport.close ();
  sio.Transport.close ()

(* A frame cut two bytes into its 4-byte CRC trailer must read as "feed
   me more", never as an error — and complete cleanly once the rest
   arrives. *)
let test_rx_split_mid_crc_trailer () =
  let l = listen_or_fail () in
  let cfd = connect_or_fail (Transport.bound_port l) in
  let sfd = accept_or_fail l in
  Transport.close_listener l;
  let cio = Transport.socket_io cfd in
  let sio = Transport.socket_io sfd in
  let wire = Worker.encode (Worker.Result { index = 9; result = Ok sample_entry }) in
  let cut = String.length wire - 2 in
  cio.Transport.write (String.sub wire 0 cut);
  let rx = Worker.Rx.create () in
  let buf = Bytes.create 4096 in
  let rec pump want =
    if want > 0 then begin
      let n = sio.Transport.read buf in
      Worker.Rx.feed rx buf n;
      pump (want - n)
    end
  in
  pump cut;
  (match Worker.Rx.next rx with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "truncated frame decoded"
  | Error e -> Alcotest.failf "mid-CRC split is an error: %s" e);
  check_int "all fed bytes still pending" cut (Worker.Rx.pending rx);
  cio.Transport.write (String.sub wire cut 2);
  pump 2;
  (match Worker.Rx.next rx with
  | Ok (Some f) -> (
    match Worker.parse f with
    | Ok (Worker.Result { index = 9; result = Ok e }) ->
      check_bool "entry intact" true (e = sample_entry)
    | _ -> Alcotest.fail "completed frame did not parse")
  | Ok None -> Alcotest.fail "frame still incomplete after final bytes"
  | Error e -> Alcotest.failf "rx: %s" e);
  check_int "nothing left over" 0 (Worker.Rx.pending rx);
  cio.Transport.close ();
  sio.Transport.close ()

(* {1 Chaos hook network semantics} *)

let test_hook_network_directives () =
  let shim = Transport.Shim.create () in
  let c =
    Chaos.of_string_exn
      "delay:worker=0,after=1,ms=50;trickle:worker=0,after=2;partition:worker=0,after=3,for=250;kill:worker=0,after=5"
  in
  let h = Chaos.hook ~net:shim c ~worker:0 in
  check_bool "nothing due yet" true (h ~completed:0 = `Continue);
  check_bool "shim untouched" true
    (shim.Transport.Shim.delay_s = 0. && not shim.Transport.Shim.trickle);
  check_bool "due delay continues" true (h ~completed:1 = `Continue);
  check_bool "delay armed" true (shim.Transport.Shim.delay_s = 0.05);
  shim.Transport.Shim.delay_s <- 0.;
  check_bool "second consult continues" true (h ~completed:1 = `Continue);
  check_bool "delay consumed, not re-armed" true (shim.Transport.Shim.delay_s = 0.);
  check_bool "due trickle continues" true (h ~completed:2 = `Continue);
  check_bool "trickle armed" true shim.Transport.Shim.trickle;
  (match h ~completed:3 with
  | `Partition s -> check_bool "partition duration in seconds" true (abs_float (s -. 0.25) < 1e-9)
  | _ -> Alcotest.fail "due partition should fire");
  check_bool "partition consumed" true (h ~completed:4 = `Continue);
  check_bool "kill fires" true (h ~completed:5 = `Kill);
  check_bool "kill stays armed" true (h ~completed:9 = `Kill);
  (* Without a shim, network directives are consumed silently. *)
  let h2 = Chaos.hook c ~worker:0 in
  check_bool "no shim: delay/trickle are no-ops" true (h2 ~completed:2 = `Continue)

(* {1 Authentication at the dispatch} *)

(* A raw TCP client announcing the wrong token must be condemned before
   the supervisor sends it anything at all — zero bytes received, not
   even the config frame — and the sweep must still complete through
   the in-process fallback. *)
let test_auth_failure_condemned_before_any_frame () =
  let l = listen_or_fail () in
  let port = Transport.bound_port l in
  let logs = Buffer.create 256 in
  let d =
    Sim.Dispatch.create ~workers:0 ~heartbeat_timeout:0.5 ~join_grace:2.0 ~token:"sekrit"
      ~listener:l ~expect_remote:1
      ~log:(fun m -> Buffer.add_string logs (m ^ "\n"))
      ~command:(fun ~id:_ -> [| "/nonexistent" |])
      ~context
      ~fallback:(fun i -> Ok { sample_entry with Journal.n = i })
      ()
  in
  let client =
    Domain.spawn (fun () ->
        match
          Transport.connect ~read_timeout:10. ~host:"127.0.0.1" ~port ~attempts:20
            ~retry_delay:0.1 ()
        with
        | Error e -> Error e
        | Ok fd ->
          let io = Transport.socket_io fd in
          io.Transport.write
            (Worker.encode
               (Worker.Hello { worker = 9; wire_version = Worker.wire_version; auth = "wrong" }));
          let buf = Bytes.create 4096 in
          let rec drain n =
            match io.Transport.read buf with
            | 0 -> n
            | k -> drain (n + k)
            | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> n
          in
          let n = drain 0 in
          io.Transport.close ();
          Ok n)
  in
  Fun.protect
    ~finally:(fun () -> Sim.Dispatch.shutdown d)
    (fun () ->
      let results = Sim.Dispatch.run d [| 0; 1; 2; 3 |] in
      check_int "all indices answered" 4 (Array.length results);
      Array.iteri
        (fun i r ->
          match r with
          | Ok e -> check_int "fallback entry" i e.Journal.n
          | Error m -> Alcotest.failf "slot %d errored: %s" i m)
        results;
      (match Domain.join client with
      | Ok 0 -> ()
      | Ok n -> Alcotest.failf "unauthenticated peer received %d bytes" n
      | Error e -> Alcotest.failf "client: %s" e);
      let s = Sim.Dispatch.stats d in
      check_bool "auth failure counted" true (s.Sim.Dispatch.auth_failures >= 1);
      check_bool "connection counted" true (s.Sim.Dispatch.connected >= 1);
      check_int "sweep completed inline" 4 s.Sim.Dispatch.inline_tasks;
      let mentions needle hay =
        let n = String.length hay and m = String.length needle in
        let rec scan i = i + m <= n && (String.sub hay i m = needle || scan (i + 1)) in
        scan 0
      in
      check_bool "condemnation logged" true
        (mentions "authentication failed" (Buffer.contents logs)))

(* The mirror image: the right token is answered with the config frame
   before anything else. *)
let test_auth_success_receives_config_first () =
  let l = listen_or_fail () in
  let port = Transport.bound_port l in
  let d =
    Sim.Dispatch.create ~workers:0 ~heartbeat_timeout:0.5 ~join_grace:2.0 ~token:"sekrit"
      ~listener:l ~expect_remote:1
      ~log:(fun _ -> ())
      ~command:(fun ~id:_ -> [| "/nonexistent" |])
      ~context
      ~fallback:(fun i -> Ok { sample_entry with Journal.n = i })
      ()
  in
  let client =
    Domain.spawn (fun () ->
        match
          Transport.connect ~read_timeout:10. ~host:"127.0.0.1" ~port ~attempts:20
            ~retry_delay:0.1 ()
        with
        | Error e -> Error e
        | Ok fd ->
          let io = Transport.socket_io fd in
          io.Transport.write
            (Worker.encode
               (Worker.Hello { worker = 9; wire_version = Worker.wire_version; auth = "sekrit" }));
          let rx = Worker.Rx.create () in
          let buf = Bytes.create 4096 in
          let rec first_frame () =
            match Worker.Rx.next rx with
            | Ok (Some f) -> Worker.parse f
            | Ok None ->
              let n = io.Transport.read buf in
              if n = 0 then Error "eof before any frame"
              else begin
                Worker.Rx.feed rx buf n;
                first_frame ()
              end
            | Error e -> Error e
          in
          let r = first_frame () in
          (* Hang up without serving: the supervisor must condemn us and
             finish through the fallback. *)
          io.Transport.close ();
          r)
  in
  Fun.protect
    ~finally:(fun () -> Sim.Dispatch.shutdown d)
    (fun () ->
      let results = Sim.Dispatch.run d [| 0; 1; 2 |] in
      check_int "all indices answered despite the defector" 3 (Array.length results);
      Array.iter
        (function Ok _ -> () | Error m -> Alcotest.failf "errored: %s" m)
        results;
      match Domain.join client with
      | Ok (Worker.Config ctx) ->
        check_string "config spec matches" context.Journal.spec ctx.Journal.spec;
        check_string "config extra matches" context.Journal.extra ctx.Journal.extra
      | Ok _ -> Alcotest.fail "first frame after auth was not the config"
      | Error e -> Alcotest.failf "client: %s" e)

(* {1 End-to-end: the real binary over loopback TCP} *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let sh cmd =
  match Unix.system cmd with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n

let temp_out name = Filename.temp_file ("oracle-transport-" ^ name) ".out"

let exe = "../bin/oraclesize.exe"
let e2e_grid = "protocols=wakeup,broadcast;ns=16,24;reps=2;seed=7"

(* An ephemeral port, released immediately for the supervisor to bind.
   Workers racing ahead of the bind just retry ECONNREFUSED. *)
let free_port () =
  let l = listen_or_fail () in
  let p = Transport.bound_port l in
  Transport.close_listener l;
  p

let mentions needle hay =
  let n = String.length hay and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub hay i m = needle || scan (i + 1)) in
  scan 0

(* The headline invariant, over real sockets: sweep bytes are identical
   at any local/remote worker mix, under partitions, trickles, and
   kills — and the supervisor's log proves each death-bearing schedule
   actually condemned someone. *)
let test_tcp_determinism_grid () =
  let base = temp_out "base" in
  check_int "baseline sweep" 0
    (sh (Printf.sprintf "%s sweep %S --out %s 2>/dev/null" exe e2e_grid base));
  let baseline = read_file base in
  check_bool "baseline is non-empty" true (String.length baseline > 0);
  (* (local workers, [(remote id, remote chaos)], supervisor chaos,
     expect a condemnation in the log) *)
  let scenarios =
    [
      (0, [ (10, "") ], "", false);
      (0, [ (10, "trickle:worker=10,after=0"); (11, "") ], "", false);
      (1, [ (10, "trickle:worker=10,after=0") ], "", false);
      ( 2,
        [ (10, "partition:worker=10,after=0,for=1500"); (11, "trickle:worker=11,after=0") ],
        "kill:worker=1,after=0",
        true );
      (7, [ (10, "trickle:worker=10,after=0") ], "", false);
    ]
  in
  List.iter
    (fun (locals, remotes, sup_chaos, expect_death) ->
      let name =
        Printf.sprintf "locals=%d remotes=%d chaos=%s" locals (List.length remotes) sup_chaos
      in
      let port = free_port () in
      let out = temp_out "tcp" in
      let errf = temp_out "tcp-err" in
      List.iter
        (fun (id, chaos) ->
          let chaos_flag = if chaos = "" then "" else Printf.sprintf "--chaos '%s'" chaos in
          check_int (name ^ ": worker launches") 0
            (sh
               (Printf.sprintf "%s worker --connect 127.0.0.1:%d --id %d --token tcptest %s 2>>%s &"
                  exe port id chaos_flag errf)))
        remotes;
      let chaos_flag = if sup_chaos = "" then "" else Printf.sprintf "--chaos '%s'" sup_chaos in
      let cmd =
        Printf.sprintf
          "%s sweep %S --out %s --workers %d --listen %d --expect-remote %d --token tcptest \
           --batch 1 --heartbeat-timeout 1 %s 2>>%s"
          exe e2e_grid out locals port (List.length remotes) chaos_flag errf
      in
      check_int (name ^ " exits 0") 0 (sh cmd);
      check_bool (name ^ " bytes match the in-process baseline") true
        (read_file out = baseline);
      let err = read_file errf in
      check_bool (name ^ " handshook every remote") true (mentions "joined from" err);
      if expect_death then
        check_bool (name ^ " condemned at least one worker") true (mentions "dead:" err);
      Sys.remove out;
      Sys.remove errf)
    scenarios;
  Sys.remove base

(* A worker with the wrong token never taints the sweep: the supervisor
   condemns every announce, eventually degrades, and still produces the
   baseline bytes in-process. *)
let test_tcp_auth_rejection_e2e () =
  let base = temp_out "auth-base" in
  check_int "baseline sweep" 0
    (sh (Printf.sprintf "%s sweep %S --out %s 2>/dev/null" exe e2e_grid base));
  let baseline = read_file base in
  let port = free_port () in
  let out = temp_out "auth" in
  let errf = temp_out "auth-err" in
  check_int "impostor worker launches" 0
    (sh
       (Printf.sprintf "%s worker --connect 127.0.0.1:%d --id 10 --token wrongpass 2>>%s &" exe
          port errf));
  check_int "sweep still exits 0" 0
    (sh
       (Printf.sprintf
          "%s sweep %S --out %s --workers 0 --listen %d --expect-remote 1 --token sekrit \
           --heartbeat-timeout 1 2>>%s"
          exe e2e_grid out port errf));
  check_bool "bytes match the in-process baseline" true (read_file out = baseline);
  let err = read_file errf in
  check_bool "authentication failure logged" true (mentions "authentication failed" err);
  Sys.remove base;
  Sys.remove out;
  Sys.remove errf

(* {1 CLI validation of the transport flags} *)

let test_cli_validation () =
  let cli_error name cmd =
    check_int (name ^ " is a CLI error (124)") 124 (sh (cmd ^ " >/dev/null 2>/dev/null"))
  in
  let usage_error name cmd =
    check_int (name ^ " is a usage error (2)") 2 (sh (cmd ^ " >/dev/null 2>/dev/null"))
  in
  let sweep flags = Printf.sprintf "%s sweep %s %S" exe flags e2e_grid in
  cli_error "--listen 0" (sweep "--listen 0");
  cli_error "--listen 70000" (sweep "--listen 70000");
  cli_error "--listen banana" (sweep "--listen banana");
  cli_error "--batch 0" (sweep "--workers 1 --batch 0");
  cli_error "--heartbeat-timeout 0" (sweep "--workers 1 --heartbeat-timeout 0");
  cli_error "--heartbeat-timeout -1" (sweep "--workers 1 --heartbeat-timeout=-1");
  cli_error "--backoff-cap 0" (sweep "--workers 1 --backoff-cap 0");
  cli_error "--expect-remote -1" (sweep "--listen 29999 --expect-remote=-1");
  cli_error "empty --token" (sweep "--listen 29999 --token ''");
  usage_error "--token without --listen" (sweep "--token sekrit");
  usage_error "--expect-remote without --listen" (sweep "--expect-remote 1");
  cli_error "worker --id -1" (Printf.sprintf "%s worker --id=-1" exe);
  cli_error "worker --connect without port" (Printf.sprintf "%s worker --connect 127.0.0.1" exe);
  cli_error "worker --connect port 0" (Printf.sprintf "%s worker --connect 127.0.0.1:0" exe);
  cli_error "worker empty --token" (Printf.sprintf "%s worker --token ''" exe);
  (* The front end's exit-code table: 124 for a bad flag value (every
     value check lives in its converter), 2 for a flag combination or a
     source outside the built graph, 0 for a worker whose stdin closes at
     once.  No case may die with an uncaught exception (125). *)
  let journal = temp_out "crash-after" in
  let cmd args = Printf.sprintf "%s %s" exe args in
  List.iter
    (fun (name, cmdline, expect) ->
      let code = sh (cmdline ^ " >/dev/null 2>/dev/null") in
      check_bool (name ^ " does not crash (125)") true (code <> 125);
      check_int (name ^ " exits " ^ string_of_int expect) expect code)
    [
      ("--retry=-1 without --fault", cmd "wakeup -n 16 --retry=-1", 124);
      ("--retry=-1 with --fault", cmd "wakeup -n 16 --fault drop=0.1 --retry=-1", 124);
      ( "--retry=-1 with --fault --suite",
        cmd "broadcast -n 16 --fault drop=0.1 --suite --retry=-1",
        124 );
      ("sweep --retry=-1", sweep "--retry=-1", 124);
      ("sweep --workers=-1", sweep "--workers=-1", 124);
      ("sweep --batch-min 0", sweep "--workers 1 --batch auto --batch-min 0", 124);
      ("sweep --crash-after 0", sweep (Printf.sprintf "--journal %s --crash-after 0" journal), 124);
      ("sweep unknown protocol", cmd "sweep 'protocols=gossip;ns=16'", 124);
      ("spanner --stretch 0", cmd "spanner --stretch 0", 124);
      ("adversary --sample=-1", cmd "adversary --sample=-1", 124);
      ("journal verify --sample=-1", cmd "journal verify no-such.journal --sample=-1", 124);
      ("adversary --strategy bogus", cmd "adversary --strategy bogus", 124);
      ("adversary --strategy random:x", cmd "adversary --strategy random:x", 124);
      ("explore --program bogus", cmd "explore --program bogus", 124);
      ("explore --program random:abc", cmd "explore --program random:abc", 124);
      ("radio --protocol decay:zz", cmd "radio --protocol decay:zz", 124);
      ("perf --protocol bogus", cmd "perf --protocol bogus", 124);
      ("wakeup --source past n", cmd "wakeup -n 64 --source 100", 2);
      ("broadcast --source = n", cmd "broadcast -n 64 --source 64", 2);
      ("gossip --source past n", cmd "gossip -n 64 --source 99", 2);
      ("explore --source past n", cmd "explore -n 16 --source 40", 2);
      ("radio --source=-1", cmd "radio -n 16 --source=-1", 2);
      ("perf --source = n", cmd "perf -n 16 --source 16", 2);
      ( "empty ORACLE_SIZE_TOKEN is the empty token",
        "ORACLE_SIZE_TOKEN= " ^ cmd "worker --id 0 </dev/null",
        0 );
      ( "main help does not list worker",
        cmd "--help=plain | grep -qE '^ +worker( |$)'; test $? -eq 1",
        0 );
    ];
  if Sys.file_exists journal then Sys.remove journal

let suite =
  [
    Alcotest.test_case "parse_hostport accepts and rejects" `Quick test_parse_hostport;
    Alcotest.test_case "shim delay is one-shot and content-preserving" `Quick
      test_shim_delay_one_shot;
    Alcotest.test_case "Rx reassembles trickled frames from 1-byte socket reads" `Quick
      test_rx_trickled_loopback_one_byte_reads;
    Alcotest.test_case "Rx survives a split mid-CRC-trailer" `Quick test_rx_split_mid_crc_trailer;
    Alcotest.test_case "chaos hook arms and consumes network directives" `Quick
      test_hook_network_directives;
    Alcotest.test_case "wrong token is condemned before any frame is sent" `Quick
      test_auth_failure_condemned_before_any_frame;
    Alcotest.test_case "right token receives the config frame first" `Quick
      test_auth_success_receives_config_first;
    Alcotest.test_case "bytes identical at any local/remote mix under network chaos" `Slow
      test_tcp_determinism_grid;
    Alcotest.test_case "wrong-token worker cannot taint an end-to-end sweep" `Slow
      test_tcp_auth_rejection_e2e;
    Alcotest.test_case "CLI validates transport flags" `Slow test_cli_validation;
  ]
