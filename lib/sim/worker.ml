(* The worker half of the distributed sweep protocol.  A worker is a
   process that speaks length-prefixed, CRC-checked Bitstring.Frame
   frames over a byte stream (Transport.io): pipes when spawned by
   Dispatch via the hidden [oraclesize worker] subcommand, or a TCP
   socket when started by hand with [--connect HOST:PORT].  The
   supervisor→worker direction carries config Hello, Task batches, and
   Shutdown; worker→supervisor carries announce Hello, Heartbeats, and
   Results.  stderr is the worker's free-form log and never carries
   frames.

   Failure model: crash-stop with (for sockets) rejoin.  A worker that
   dies, hangs past the heartbeat deadline, or emits a single malformed
   frame is written off wholesale by the supervisor — there is no
   per-frame retransmission.  A condemned *remote* worker may, however,
   reconnect and re-handshake as a brand-new peer; the serve loop
   surfaces connection loss as a value ([`Lost]) instead of an exit
   code precisely so its caller can loop.  That is why the codec below
   can afford to be unforgiving: any parse failure is an Error, and
   Dispatch's reaction to an Error is to condemn the peer and reassign
   its batch.

   Determinism: a Result's payload is a pure function of the task index
   (the [exec]-built closure derives everything from grid coordinates),
   so which worker computed it, and when, is invisible to the journal
   and the emitted rows. *)

module Frame = Bitstring.Frame
module Bitbuf = Bitstring.Bitbuf

(* Version 2: the Hello payload grew a discriminator bit and an
   authentication token (see the codec note below).  Version 1 was the
   pipe-only protocol without authentication. *)
let wire_version = 2

type msg =
  | Hello of { worker : int; wire_version : int; auth : string }
  | Config of Journal.context
  | Task_batch of { seq : int; indices : int array }
  | Result of { index : int; result : (Journal.entry, string) result }
  | Heartbeat of { worker : int; count : int }
  | Shutdown

(* {1 Codec}

   Field widths are part of the wire contract (DESIGN.md §13).  Both
   Hello shapes share a frame kind, so their payloads begin with a
   1-bit discriminator (version 1 told them apart by payload length,
   which stopped being injective once announce hellos carried a
   variable-length token):
   - announce Hello (tag 0): key = worker id, then an 8-bit wire
     version, a 16-bit token byte length, and the token bytes;
   - config Hello (tag 1): key = 0, then a journal superblock payload
     (Journal.context_payload);
   - Task: key = batch sequence number, payload = 16-bit count then
     [count] 32-bit task indices;
   - Result: key = task index, payload = 1 ok bit, then either a record
     payload (Journal.entry_payload) or a 16-bit byte length plus error
     bytes;
   - Heartbeat: key = worker id, payload = 32-bit tasks-completed count;
   - Shutdown: key = 0, empty payload. *)

let max_auth_bytes = 0xffff

let frame kind key payload = { Frame.kind; version = Frame.current_version; key; payload }

let frame_of_msg = function
  | Hello { worker; wire_version = v; auth } ->
    if String.length auth > max_auth_bytes then invalid_arg "Worker.encode: auth token too long";
    let b = Bitbuf.create ~capacity:(25 + (8 * String.length auth)) () in
    Bitbuf.add_bit b false;
    Bitbuf.add_int b ~width:8 v;
    Bitbuf.add_int b ~width:16 (String.length auth);
    String.iter (fun c -> Bitbuf.add_int b ~width:8 (Char.code c)) auth;
    frame Frame.Hello worker b
  | Config ctx ->
    let ctx_bits = Journal.context_payload ctx in
    let b = Bitbuf.create ~capacity:(1 + Bitbuf.length ctx_bits) () in
    Bitbuf.add_bit b true;
    Bitbuf.append b ctx_bits;
    frame Frame.Hello 0 b
  | Task_batch { seq; indices } ->
    if Array.length indices > 0xffff then invalid_arg "Worker.encode: batch too large";
    let b = Bitbuf.create ~capacity:(16 + (32 * Array.length indices)) () in
    Bitbuf.add_int b ~width:16 (Array.length indices);
    Array.iter (fun i -> Bitbuf.add_int b ~width:32 i) indices;
    frame Frame.Task seq b
  | Result { index; result } ->
    let b = Bitbuf.create () in
    (match result with
    | Ok entry ->
      Bitbuf.add_bit b true;
      Bitbuf.append b (Journal.entry_payload entry)
    | Error msg ->
      let msg =
        if String.length msg > 0xffff then String.sub msg 0 0xffff else msg
      in
      Bitbuf.add_bit b false;
      Bitbuf.add_int b ~width:16 (String.length msg);
      String.iter (fun c -> Bitbuf.add_int b ~width:8 (Char.code c)) msg);
    frame Frame.Result index b
  | Heartbeat { worker; count } ->
    let b = Bitbuf.create ~capacity:32 () in
    Bitbuf.add_int b ~width:32 (count land 0xffffffff);
    frame Frame.Heartbeat worker b
  | Shutdown -> frame Frame.Shutdown 0 (Bitbuf.create ())

let encode msg = Frame.encode (frame_of_msg msg)

(* Re-pack the unread remainder of [r] so downstream decoders see a
   payload of exactly the embedded value's length. *)
let repack r ~bits =
  let rest = Bitbuf.create ~capacity:bits () in
  while not (Bitbuf.at_end r) do
    Bitbuf.add_bit rest (Bitbuf.read_bit r)
  done;
  rest

let parse (f : Frame.t) =
  let bits = Bitbuf.length f.payload in
  match f.kind with
  | Frame.Hello ->
    if bits < 1 then Error "hello: empty payload"
    else
      let r = Bitbuf.reader f.payload in
      if Bitbuf.read_bit r then
        if f.key <> 0 then Error "config hello: key is not 0"
        else (
          match Journal.decode_context (repack r ~bits:(bits - 1)) with
          | Ok ctx -> Ok (Config ctx)
          | Error e -> Error (Printf.sprintf "config hello: %s" e))
      else if bits < 25 then Error "announce hello: payload shorter than its fixed fields"
      else
        let v = Bitbuf.read_int r ~width:8 in
        let len = Bitbuf.read_int r ~width:16 in
        if bits <> 25 + (8 * len) then
          Error "announce hello: token length disagrees with payload"
        else
          let auth = String.init len (fun _ -> Char.chr (Bitbuf.read_int r ~width:8)) in
          Ok (Hello { worker = f.key; wire_version = v; auth })
  | Frame.Task ->
    let r = Bitbuf.reader f.payload in
    if bits < 16 then Error "task batch: payload shorter than the count field"
    else
      let count = Bitbuf.read_int r ~width:16 in
      if bits <> 16 + (32 * count) then
        Error
          (Printf.sprintf "task batch: %d indices need %d payload bits, frame has %d" count
             (16 + (32 * count)) bits)
      else Ok (Task_batch { seq = f.key; indices = Array.init count (fun _ -> Bitbuf.read_int r ~width:32) })
  | Frame.Result ->
    if bits < 1 then Error "result: empty payload"
    else
      let r = Bitbuf.reader f.payload in
      if Bitbuf.read_bit r then begin
        match Journal.decode_payload (repack r ~bits:(bits - 1)) with
        | Ok entry -> Ok (Result { index = f.key; result = Ok entry })
        | Error e -> Error (Printf.sprintf "result: %s" e)
      end
      else if bits < 17 then Error "result: error payload shorter than its length field"
      else
        let len = Bitbuf.read_int r ~width:16 in
        if bits <> 17 + (8 * len) then Error "result: error length disagrees with payload"
        else
          let msg = String.init len (fun _ -> Char.chr (Bitbuf.read_int r ~width:8)) in
          Ok (Result { index = f.key; result = Error msg })
  | Frame.Heartbeat ->
    if bits <> 32 then Error "heartbeat: payload is not 32 bits"
    else
      let r = Bitbuf.reader f.payload in
      Ok (Heartbeat { worker = f.key; count = Bitbuf.read_int r ~width:32 })
  | Frame.Shutdown ->
    if bits <> 0 then Error "shutdown: nonempty payload"
    else if f.key <> 0 then Error "shutdown: key is not 0"
    else Ok Shutdown
  | Frame.Superblock | Frame.Record -> Error "journal frame on the wire"

(* {1 Incremental frame reader}

   Streams deliver bytes, not frames: a read can end mid-header, mid-
   payload, or with three frames and a half in one gulp — and a
   trickled TCP link delivers one byte per read.  Rx buffers fed bytes
   and peels complete frames off the front; Truncated means "feed me
   more", every other decode error is fatal for the stream (crash-stop:
   one bad byte writes the peer off). *)

module Rx = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 4096; len = 0 }

  let pending t = t.len

  let feed t src n =
    if n < 0 || n > Bytes.length src then invalid_arg "Worker.Rx.feed";
    if t.len + n > Bytes.length t.buf then begin
      let cap = ref (2 * Bytes.length t.buf) in
      while t.len + n > !cap do
        cap := 2 * !cap
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end;
    Bytes.blit src 0 t.buf t.len n;
    t.len <- t.len + n

  let next t =
    if t.len = 0 then Ok None
    else
      match Frame.decode (Bytes.sub_string t.buf 0 t.len) ~pos:0 with
      | Error (Frame.Truncated _) -> Ok None
      | Error e -> Error (Frame.error_to_string e)
      | Ok (f, consumed) ->
        Bytes.blit t.buf consumed t.buf 0 (t.len - consumed);
        t.len <- t.len - consumed;
        Ok (Some f)
end

(* {1 Worker-attributed logging}

   Multi-host sweeps interleave worker stderr from several machines;
   every line therefore carries the worker id and a per-process elapsed
   timestamp.  The stamp is monotonic within one worker process (a
   wall-clock step backwards is clamped forward), which is what
   post-mortem ordering of one worker's own lines needs; stamps are not
   comparable across hosts. *)

let log_t0 = ref nan
let log_last = ref 0.

let logf ~id fmt =
  let now = Unix.gettimeofday () in
  if Float.is_nan !log_t0 then log_t0 := now;
  let t = now -. !log_t0 in
  let t = if t > !log_last then t else !log_last in
  log_last := t;
  Printf.ksprintf (fun m -> Printf.eprintf "[+%09.3f w%d] %s\n%!" t id m) fmt

(* {1 The serve loop} *)

exception Protocol of string

type lost = [ `Eof | `Gone ]
type outcome = [ `Exit of int | `Lost of lost ]

let serve_io ~id ?(auth = "") ?(chaos = fun ~completed:_ -> `Continue)
    ?(completed = ref 0) ~exec (io : Transport.io) =
  (* A dying supervisor must not take the worker down with SIGPIPE;
     EPIPE from write is the signal to leave quietly. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let send msg = io.Transport.write (encode msg) in
  let rx = Rx.create () in
  let rbuf = Bytes.create 65536 in
  (* Next complete message, blocking; None on supervisor EOF. *)
  let rec recv () =
    match Rx.next rx with
    | Error e -> raise (Protocol ("malformed frame from supervisor: " ^ e))
    | Ok (Some f) -> (
      match parse f with
      | Ok m -> Some m
      | Error e -> raise (Protocol ("unparseable frame from supervisor: " ^ e)))
    | Ok None ->
      let n = io.Transport.read rbuf in
      if n = 0 then None
      else begin
        Rx.feed rx rbuf n;
        recv ()
      end
  in
  try
    send (Hello { worker = id; wire_version; auth });
    match recv () with
    | None -> `Lost `Eof (* supervisor went away before configuring us *)
    | Some (Config ctx) -> (
      match exec ctx with
      | Error e ->
        logf ~id "cannot build executor: %s" e;
        `Exit 3
      | Ok run_task ->
        let rec loop () =
          match recv () with
          | None -> `Lost `Eof
          | Some Shutdown -> `Exit 0
          | Some (Task_batch { seq = _; indices }) ->
            let count = Array.length indices in
            let rec step k =
              if k >= count then loop ()
              else
                match chaos ~completed:!completed with
                | `Kill ->
                  (* Crash-stop: no flush, no at_exit — the closest a
                     cooperative process gets to SIGKILLing itself. *)
                  Unix._exit 137
                | `Hang ->
                  while true do
                    Unix.sleep 3600
                  done;
                  assert false
                | `Garbage g ->
                  io.Transport.write g;
                  Unix._exit 98
                | `Partition s ->
                  (* Fall silent: no heartbeats, no results, socket left
                     open.  If [s] exceeds the supervisor's heartbeat
                     timeout it condemns us and our next write fails
                     (EPIPE/RST) → [`Lost `Gone] → the caller rejoins.
                     If [s] is shorter, the link was merely slow and the
                     batch resumes unnoticed — the dead-peer/slow-link
                     distinction, end to end. *)
                  logf ~id "chaos: partition, silent for %.1fs after %d tasks" s !completed;
                  Unix.sleepf s;
                  step k
                | `Continue ->
                  send (Heartbeat { worker = id; count = !completed });
                  send (Result { index = indices.(k); result = run_task indices.(k) });
                  incr completed;
                  step (k + 1)
            in
            step 0
          | Some _ -> raise (Protocol "unexpected message kind from supervisor")
        in
        loop ())
    | Some _ -> raise (Protocol "first message was not a config hello")
  with
  | Protocol e ->
    logf ~id "%s" e;
    `Exit 2
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
    (* Supervisor is gone — or, over TCP, has condemned this worker and
       closed the connection.  The caller decides whether to rejoin. *)
    `Lost `Gone
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
    (* The socket receive timeout expired: a partition outlasted the
       worker's patience. *)
    logf ~id "supervisor silent past the socket read timeout";
    `Lost `Gone
