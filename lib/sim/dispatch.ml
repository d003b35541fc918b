(* The supervisor half of the distributed sweep protocol.

   Dispatch owns a fleet of workers — subprocesses it spawned itself
   (pipes on their stdin/stdout) and, when given a Transport.listener,
   remote processes that connected over TCP — hands them batches of
   task indices, and collects Result frames.  The failure model is
   crash-stop with reassignment: a worker that EOFs, misses its
   heartbeat deadline, announces the wrong wire version or a bad
   authentication token, or sends one undecodable byte is condemned
   (local: SIGKILL + reap; remote: connection closed) and written off;
   whatever of its in-flight batch lacks results is requeued at the
   front of the work queue with a capped exponential backoff.  Local
   workers are never respawned, but a condemned *remote* worker may
   reconnect, re-handshake, and resume pulling tasks as a brand-new
   peer — that is the partition story: a link that goes silent past
   the heartbeat deadline costs a condemnation and a rejoin, a link
   that is merely slow costs nothing.  A sweep finishes on the
   survivors; when none survive and no rejoin arrives within the
   grace window, the remaining tasks run in-process through the
   caller's [fallback].

   Scheduling: batches are carved on demand from a cursor over the
   fresh indices.  Under [Fixed n] every carve is [n] indices — the
   classic fixed-batch mode.  Under [Auto] the carve size is steered
   per worker by an EWMA of its observed task throughput (result
   arrivals, monotonic-clock timestamped), clamped to
   [min_batch, max_batch]: fast workers absorb large batches, slow or
   degraded ones small probes, so one straggling machine holds few
   indices hostage at any instant.  When the queue runs dry with
   batches still in flight, an idle worker speculatively re-executes
   the slowest busy worker's outstanding indices (one copy per batch):
   results are pure functions of indices and the first result per
   index wins, so the duplicate is harmless and the tail no longer
   waits on the straggler.

   Authentication: every announce hello carries a shared-secret token
   (--token; default empty).  A mismatch condemns the peer before any
   config or task frame is sent — an unauthenticated connection learns
   nothing about the sweep beyond the fact that something is listening.
   Accepts are additionally rate-limited per peer address by a token
   bucket, checked before the bounded-rejoin accept budget is touched,
   so one misconfigured reconnect loop can neither burn the budget nor
   starve other addresses.

   Determinism: results are pure functions of task indices and the
   supervisor records the first result it sees per index (duplicates
   from a reassigned or speculated batch carry identical bytes), so
   worker count, local/remote mix, batch sizing, speculation, death
   and rejoin schedule, and timing are all invisible in the value
   [run] returns.  Ordering is the caller's business
   (Sweep.map_journaled_via appends and emits in canonical order). *)

(* {1 Throughput accounting} *)

(* Exponentially weighted moving average of an event rate observed at
   irregular intervals.  The irregular-interval form weights each
   observation by how much wall time it spans:
     rate <- (1 - e^(-dt/tau)) * (k/dt)  +  e^(-dt/tau) * rate
   so a burst of k results after a long silence moves the estimate by
   the right amount regardless of how the burst was framed. *)
module Ewma = struct
  type t = {
    tau : float;
    mutable rate : float;
    mutable last : float option;  (* timestamp of the last folded observation *)
    mutable pending : int;  (* events seen at dt <= 0, folded into the next interval *)
    mutable total : int;
  }

  let default_tau = 3.0

  let create ?(tau = default_tau) () =
    if tau <= 0. then invalid_arg "Ewma.create: tau <= 0";
    { tau; rate = 0.; last = None; pending = 0; total = 0 }

  (* Timestamps must be monotone for the decay math; events carried by
     a non-advancing clock are held [pending] and credited to the next
     real interval rather than dropped, so counts are conserved. *)
  let observe t ~now ~tasks =
    if tasks < 0 then invalid_arg "Ewma.observe: negative tasks";
    t.total <- t.total + tasks;
    match t.last with
    | None ->
      t.last <- Some now;
      t.pending <- t.pending + tasks
    | Some last ->
      let dt = now -. last in
      if dt <= 0. then t.pending <- t.pending + tasks
      else begin
        let k = float_of_int (tasks + t.pending) in
        t.pending <- 0;
        let decay = exp (-.dt /. t.tau) in
        t.rate <- ((1. -. decay) *. (k /. dt)) +. (decay *. t.rate);
        t.last <- Some now
      end

  let rate t = t.rate
  let total t = t.total
end

type batching = Fixed of int | Auto of { min_batch : int; max_batch : int }

let default_batch = 16
let default_min_batch = 1
let default_max_batch = 64

(* How much work, in seconds at the worker's estimated rate, one
   adaptive batch should hold.  Small enough that a newly slow worker
   is re-probed quickly; large enough that a fast worker is not
   throttled by per-batch round trips. *)
let auto_horizon = 0.25

let batch_for batching ~rate =
  match batching with
  | Fixed n -> n
  | Auto { min_batch; max_batch } ->
    if rate <= 0. then min_batch  (* no estimate yet: probe small *)
    else max min_batch (min max_batch (int_of_float (ceil (rate *. auto_horizon))))

(* Per-worker-id accounting.  Keyed by announced worker id, not
   connection, so a remote worker that is condemned and rejoins
   inherits its own history (throughput estimate, failure streak). *)
type acct = {
  ewma : Ewma.t;
  mutable results : int;  (* Result frames received *)
  mutable wins : int;  (* results that were first for their index *)
  mutable spec_wins : int;  (* wins delivered by a speculative copy *)
  mutable batches : int;  (* batches assigned *)
  mutable speculative : int;  (* of which speculative copies *)
  mutable reported : int;  (* latest heartbeat completed-task counter *)
  mutable streak : int;  (* consecutive condemnations since the last completed batch *)
}

type worker_stat = {
  worker : int;
  tasks : int;
  wins : int;
  rate : float;
  batches : int;
  speculative : int;
  spec_wins : int;
  reported : int;
}

type batch = {
  seq : int;
  indices : int array;
  attempt : int;  (* prior failed assignments of (a superset of) these indices *)
  not_before : float;  (* backoff release time; 0. for fresh batches *)
  speculative : bool;  (* a duplicate of another worker's in-flight batch *)
  mutable speculated : bool;  (* a speculative copy of this batch exists (or it is one) *)
}

type wstate =
  | Awaiting_hello
  | Ready
  | Busy of { batch : batch; outstanding : (int, unit) Hashtbl.t }

type peer = Child of int  (* pid *) | Remote of string  (* peer address, for logs *)

type wrk = {
  uid : int;  (* unique per connection — remote rejoins get fresh ones *)
  mutable wid : int;  (* spawn id for children; announced id for remotes (-1 until hello) *)
  peer : peer;
  to_w : Unix.file_descr;
  from_w : Unix.file_descr;  (* equal to to_w for sockets *)
  rx : Worker.Rx.t;
  mutable state : wstate;
  mutable deadline : float;  (* absolute; infinity = disarmed *)
}

type stats = {
  mutable spawned : int;
  mutable spawn_failures : int;
  mutable connected : int;  (* remote connections accepted *)
  mutable auth_failures : int;  (* peers condemned for a bad token *)
  mutable rate_limited : int;  (* connections closed by the per-address token bucket *)
  mutable died : int;
  mutable reassigned : int;  (* batches requeued after a death *)
  mutable inline_tasks : int;  (* tasks run through [fallback] *)
}

type bucket = { mutable tokens : float; mutable stamp : float }

type t = {
  context : Journal.context;
  batching : batching;
  heartbeat_timeout : float;
  token : string;
  listener : Transport.listener option;
  expect_remote : int;
  accept_rate : float;  (* token-bucket refill, accepts per second per address *)
  accept_burst : float;  (* token-bucket capacity per address *)
  buckets : (string, bucket) Hashtbl.t;
  fallback : int -> (Journal.entry, string) result;
  accounts : (int, acct) Hashtbl.t;  (* keyed by worker id *)
  mutable mono : float;  (* monotonic clamp over gettimeofday, for EWMA stamps *)
  mutable accepts_left : int;  (* bounded rejoin: remaining accept budget *)
  mutable remote_seen : int;
      (* remote peers that completed (or failed) their first handshake —
         what the barrier counts against [expect_remote] *)
  mutable barrier_deadline : float;
      (* give expected remotes this long to show up before the barrier
         proceeds without them *)
  mutable rejoin_deadline : float;
      (* with zero live workers, wait for a (re)connection until this
         instant before degrading to in-process execution *)
  mutable degraded : bool;  (* listener closed; all further work inline *)
  mutable live : wrk list;  (* spawn order, so assignment prefers low ids *)
  mutable handshook : bool;
      (* all spawned workers have announced or been condemned, and the
         expected remotes have joined (or the barrier grace expired);
         until then no batch is assigned, so which worker executes
         which batch does not depend on hello arrival order — that is
         what makes a chaos schedule's fault placement reproducible *)
  mutable next_seq : int;
  stats : stats;
  log : string -> unit;
}

let default_heartbeat_timeout = 10.
let default_backoff_cap = 1.0
let default_max_rejoin = 16
let default_accept_rate = 4.0
let default_accept_burst = 32
let backoff_base = 0.05

let backoff_delay ~base ~cap ~attempt =
  if attempt < 1 then 0. else min cap (base *. (2. ** float_of_int (attempt - 1)))

(* Clamped-monotone view of the wall clock: never goes backwards even
   if gettimeofday does (NTP step), so EWMA intervals stay sane. *)
let mono t now =
  if now > t.mono then t.mono <- now;
  t.mono

let acct_for t wid =
  match Hashtbl.find_opt t.accounts wid with
  | Some a -> a
  | None ->
    let a =
      {
        ewma = Ewma.create ();
        results = 0;
        wins = 0;
        spec_wins = 0;
        batches = 0;
        speculative = 0;
        reported = 0;
        streak = 0;
      }
    in
    Hashtbl.add t.accounts wid a;
    a

let stats t =
  (* flat copy so callers can't mutate the live counters *)
  let s = t.stats in
  {
    spawned = s.spawned;
    spawn_failures = s.spawn_failures;
    connected = s.connected;
    auth_failures = s.auth_failures;
    rate_limited = s.rate_limited;
    died = s.died;
    reassigned = s.reassigned;
    inline_tasks = s.inline_tasks;
  }

let worker_stats t =
  Hashtbl.fold
    (fun wid (a : acct) acc ->
      {
        worker = wid;
        tasks = a.results;
        wins = a.wins;
        rate = Ewma.rate a.ewma;
        batches = a.batches;
        speculative = a.speculative;
        spec_wins = a.spec_wins;
        reported = a.reported;
      }
      :: acc)
    t.accounts []
  |> List.sort (fun a b -> compare a.worker b.worker)

let live_workers t = List.length t.live

let describe w =
  match w.peer with
  | Child pid -> Printf.sprintf "worker %d (pid %d)" w.wid pid
  | Remote addr ->
    if w.wid < 0 then Printf.sprintf "remote peer %s" addr
    else Printf.sprintf "worker %d (%s)" w.wid addr

(* {1 Spawning} *)

let next_uid = ref 0

let fresh_uid () =
  incr next_uid;
  !next_uid

let spawn ~command ~stderr_dir ~log wid =
  let cleanup fds = List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds in
  match
    let child_in, to_w = Unix.pipe () in
    let from_w, child_out = Unix.pipe () in
    (* The parent keeps [to_w]/[from_w]; mark them close-on-exec so they
       never leak into workers spawned after this one (a leaked write
       end would keep a dead worker's pipe readable forever). *)
    Unix.set_close_on_exec to_w;
    Unix.set_close_on_exec from_w;
    let stderr_fd =
      match stderr_dir with
      | None -> None
      | Some dir ->
        Some
          (Unix.openfile
             (Filename.concat dir (Printf.sprintf "worker-%d.log" wid))
             [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
             0o644)
    in
    let argv = command ~id:wid in
    let pid =
      try
        Unix.create_process argv.(0) argv child_in child_out
          (Option.value stderr_fd ~default:Unix.stderr)
      with e ->
        cleanup (child_in :: child_out :: to_w :: from_w :: Option.to_list stderr_fd);
        raise e
    in
    cleanup (child_in :: child_out :: Option.to_list stderr_fd);
    {
      uid = fresh_uid ();
      wid;
      peer = Child pid;
      to_w;
      from_w;
      rx = Worker.Rx.create ();
      state = Awaiting_hello;
      deadline = infinity;
    }
  with
  | w -> Some w
  | exception e ->
    log (Printf.sprintf "worker %d: spawn failed: %s" wid (Printexc.to_string e));
    None

let create ~workers ?(batching = Fixed default_batch)
    ?(heartbeat_timeout = default_heartbeat_timeout) ?(token = "") ?listener ?(expect_remote = 0)
    ?(max_rejoin = default_max_rejoin) ?(accept_rate = default_accept_rate)
    ?(accept_burst = default_accept_burst) ?join_grace ?stderr_dir ?(log = fun _ -> ()) ~command
    ~context ~fallback () =
  if workers < 0 then invalid_arg "Dispatch.create: negative workers";
  (match batching with
  | Fixed n -> if n < 1 then invalid_arg "Dispatch.create: batch < 1"
  | Auto { min_batch; max_batch } ->
    if min_batch < 1 then invalid_arg "Dispatch.create: min_batch < 1";
    if max_batch < min_batch then invalid_arg "Dispatch.create: max_batch < min_batch");
  if heartbeat_timeout <= 0. then invalid_arg "Dispatch.create: heartbeat_timeout <= 0";
  if expect_remote < 0 then invalid_arg "Dispatch.create: negative expect_remote";
  if max_rejoin < 0 then invalid_arg "Dispatch.create: negative max_rejoin";
  if accept_rate <= 0. then invalid_arg "Dispatch.create: accept_rate <= 0";
  if accept_burst < 1 then invalid_arg "Dispatch.create: accept_burst < 1";
  if expect_remote > 0 && listener = None then
    invalid_arg "Dispatch.create: expect_remote without a listener";
  if String.length token > Worker.max_auth_bytes then
    invalid_arg "Dispatch.create: token too long";
  (* A worker dying mid-write must cost us an EPIPE, not a SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let stats =
    {
      spawned = 0;
      spawn_failures = 0;
      connected = 0;
      auth_failures = 0;
      rate_limited = 0;
      died = 0;
      reassigned = 0;
      inline_tasks = 0;
    }
  in
  let live = ref [] in
  for wid = 0 to workers - 1 do
    match spawn ~command ~stderr_dir ~log wid with
    | Some w ->
      (* A worker that never even announces must not stall the sweep:
         its hello is due within one heartbeat window.  (If it did
         announce, the frame sits in the pipe and is processed before
         any deadline check fires.) *)
      w.deadline <- Unix.gettimeofday () +. heartbeat_timeout;
      stats.spawned <- stats.spawned + 1;
      live := w :: !live
    | None -> stats.spawn_failures <- stats.spawn_failures + 1
  done;
  (* Remote workers are separate processes on possibly separate
     machines; give them a few heartbeat windows to find us before the
     barrier (and, with no local workers at all, the degradation
     clock) stops waiting. *)
  let join_grace =
    match join_grace with Some g -> max g 0.01 | None -> 3. *. heartbeat_timeout
  in
  let now = Unix.gettimeofday () in
  {
    context;
    batching;
    heartbeat_timeout;
    token;
    listener;
    expect_remote;
    accept_rate;
    accept_burst = float_of_int accept_burst;
    buckets = Hashtbl.create 8;
    fallback;
    accounts = Hashtbl.create 8;
    mono = now;
    accepts_left = (match listener with None -> 0 | Some _ -> expect_remote + max_rejoin);
    remote_seen = 0;
    barrier_deadline = (if expect_remote > 0 then now +. join_grace else now);
    rejoin_deadline = (match listener with None -> now | Some _ -> now +. join_grace);
    degraded = false;
    live = List.rev !live;
    handshook = false;
    next_seq = 0;
    stats;
    log;
  }

(* {1 Worker lifecycle} *)

let send_msg w msg =
  let s = Worker.encode msg in
  Worker.write_all w.to_w (Bytes.unsafe_of_string s) 0 (String.length s)

let reap pid =
  (* SIGKILL makes exit prompt; a bounded WNOHANG poll keeps a
     pathological unkillable child from wedging the supervisor. *)
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  let rec poll tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if tries > 0 then begin
        ignore (Unix.select [] [] [] 0.01);
        poll (tries - 1)
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll tries
    | exception Unix.Unix_error _ -> ()
  in
  poll 200

(* Mark [w] dead: sever it (kill + reap for children, close for
   remotes), drop it from the live list, and requeue whatever of its
   batch still lacks a result.  A severed remote may reconnect later —
   as a brand-new peer drawing on the accept budget.

   The requeue backoff is keyed to the dead worker's consecutive-
   failure streak, not to the batch lineage alone: a worker that has
   completed a batch since its last condemnation starts over at the
   base delay, so one early crash does not permanently tax a recovered
   (rejoined) worker with the capped backoff, while a worker that dies
   again and again — same wid, rejoining in a loop — still backs off
   exponentially. *)
let bury t ~requeue ~now ~results w reason =
  t.log (Printf.sprintf "%s dead: %s" (describe w) reason);
  t.stats.died <- t.stats.died + 1;
  (match w.peer with
  | Child pid ->
    reap pid;
    (try Unix.close w.to_w with Unix.Unix_error _ -> ());
    (try Unix.close w.from_w with Unix.Unix_error _ -> ())
  | Remote _ ->
    (* One socket, one close. *)
    (try Unix.close w.to_w with Unix.Unix_error _ -> ()));
  (* A remote that never handshook (bad token, silent connection) still
     counts as "seen" so the barrier cannot wait forever on it. *)
  (match (w.peer, w.state) with
  | Remote _, Awaiting_hello -> t.remote_seen <- t.remote_seen + 1
  | _ -> ());
  t.live <- List.filter (fun x -> x.uid <> w.uid) t.live;
  (* Losing the last worker starts the rejoin clock: a listener-backed
     dispatch holds the degradation decision open one more heartbeat
     window for a reconnection. *)
  if t.live = [] && t.listener <> None && not t.degraded then
    t.rejoin_deadline <- Float.max t.rejoin_deadline (now +. t.heartbeat_timeout);
  let streak =
    if w.wid >= 0 then begin
      let a = acct_for t w.wid in
      a.streak <- a.streak + 1;
      a.streak
    end
    else 0
  in
  match w.state with
  | Awaiting_hello | Ready -> ()
  | Busy { batch = b; outstanding = _ } ->
    if not b.speculative then begin
      (* A speculative copy's indices are still covered by the original
         batch (or its requeue), so the copy itself is never requeued. *)
      let undone =
        Array.of_list (List.filter (fun i -> not (Hashtbl.mem results i)) (Array.to_list b.indices))
      in
      if Array.length undone > 0 then begin
        let attempt = b.attempt + 1 in
        let delay =
          backoff_delay ~base:backoff_base ~cap:default_backoff_cap
            ~attempt:(if streak > 0 then streak else attempt)
        in
        t.stats.reassigned <- t.stats.reassigned + 1;
        requeue
          {
            seq = b.seq;
            indices = undone;
            attempt;
            not_before = now +. delay;
            speculative = false;
            speculated = false;
          }
      end
    end

(* Per-address token bucket, consulted before any byte is read from a
   new connection and before the accept budget is decremented. *)
let rate_limit_ok t ~now addr =
  let ip =
    match String.rindex_opt addr ':' with Some i -> String.sub addr 0 i | None -> addr
  in
  let b =
    match Hashtbl.find_opt t.buckets ip with
    | Some b -> b
    | None ->
      let b = { tokens = t.accept_burst; stamp = now } in
      Hashtbl.add t.buckets ip b;
      b
  in
  if now > b.stamp then begin
    b.tokens <- Float.min t.accept_burst (b.tokens +. ((now -. b.stamp) *. t.accept_rate));
    b.stamp <- now
  end;
  if b.tokens >= 1. then begin
    b.tokens <- b.tokens -. 1.;
    true
  end
  else false

(* Drain the listener's pending connections into Awaiting_hello peers.
   The accept budget bounds rejoin: a flapping or adversarial peer
   cannot make the supervisor accept forever.  The per-address rate
   limit runs first: an over-limit connection is closed before any
   byte is read and does not touch the accept budget. *)
let accept_pending t ~now =
  match t.listener with
  | None -> ()
  | Some l when not t.degraded ->
    let rec go () =
      match Transport.accept l with
      | None -> ()
      | Some (fd, addr) ->
        if not (rate_limit_ok t ~now:(mono t now) addr) then begin
          t.stats.rate_limited <- t.stats.rate_limited + 1;
          t.log (Printf.sprintf "refusing connection from %s: over per-address rate limit" addr);
          (try Unix.close fd with Unix.Unix_error _ -> ());
          go ()
        end
        else if t.accepts_left <= 0 then begin
          t.log (Printf.sprintf "refusing connection from %s: accept budget exhausted" addr);
          (try Unix.close fd with Unix.Unix_error _ -> ());
          go ()
        end
        else begin
          t.accepts_left <- t.accepts_left - 1;
          t.stats.connected <- t.stats.connected + 1;
          let w =
            {
              uid = fresh_uid ();
              wid = -1;
              peer = Remote addr;
              to_w = fd;
              from_w = fd;
              rx = Worker.Rx.create ();
              state = Awaiting_hello;
              deadline = now +. t.heartbeat_timeout;
            }
          in
          t.live <- t.live @ [ w ];
          t.log (Printf.sprintf "accepted connection from %s" addr);
          go ()
        end
    in
    go ()
  | Some _ -> ()

(* {1 The run loop} *)

let run t indices =
  let n = Array.length indices in
  let wanted = Hashtbl.create (2 * n) in
  Array.iter (fun i -> Hashtbl.replace wanted i ()) indices;
  let results : (int, (Journal.entry, string) result) Hashtbl.t = Hashtbl.create (2 * n) in
  (* First write wins; results for indices outside this run (a confused
     worker) are dropped rather than corrupting the completion count. *)
  let record i r =
    if Hashtbl.mem wanted i && not (Hashtbl.mem results i) then Hashtbl.add results i r
  in
  let inline i =
    t.stats.inline_tasks <- t.stats.inline_tasks + 1;
    record i (t.fallback i)
  in
  (* Work queue: requeued batches at the front; fresh work is carved on
     demand from a cursor so the carve size can adapt per assignment.
     Under Fixed the carves replay the classic pre-chunked schedule
     exactly (same seqs, same contents, same order). *)
  let front = ref [] in
  let requeue b = front := b :: !front in
  let cursor = ref 0 in
  let fresh_left () = n - !cursor in
  let carve size =
    let size = max 1 (min size (fresh_left ())) in
    let b =
      {
        seq = t.next_seq;
        indices = Array.sub indices !cursor size;
        attempt = 0;
        not_before = 0.;
        speculative = false;
        speculated = false;
      }
    in
    t.next_seq <- t.next_seq + 1;
    cursor := !cursor + size;
    b
  in
  let pop_released now ~size =
    let rec pick acc = function
      | [] -> (None, List.rev acc)
      | b :: rest when b.not_before <= now -> (Some b, List.rev_append acc rest)
      | b :: rest -> pick (b :: acc) rest
    in
    match pick [] !front with
    | Some b, rest ->
      front := rest;
      Some b
    | None, _ -> if fresh_left () > 0 then Some (carve size) else None
  in
  let queued () = List.length !front in
  let earliest_release () =
    List.fold_left (fun acc b -> min acc b.not_before) infinity !front
  in
  let done_ () = Hashtbl.length results >= Hashtbl.length wanted in
  (* One decoded message from worker [w].  Any protocol surprise is a
     death sentence (crash-stop) — and authentication is checked here,
     before the config reply, so a peer with the wrong token never sees
     a single frame of sweep state. *)
  let handle_msg ~now w = function
    | Worker.Hello { worker = wid; wire_version = v; auth } ->
      if v <> Worker.wire_version then
        Error (Printf.sprintf "wire version %d, expected %d" v Worker.wire_version)
      else if not (String.equal auth t.token) then begin
        t.stats.auth_failures <- t.stats.auth_failures + 1;
        Error "authentication failed (wrong or missing token)"
      end
      else (
        match send_msg w (Worker.Config t.context) with
        | () ->
          (match w.state with
          | Awaiting_hello ->
            w.wid <- wid;
            w.state <- Ready;
            (* Stamp the throughput epoch so the first result measures
               a real interval. *)
            Ewma.observe (acct_for t wid).ewma ~now:(mono t now) ~tasks:0;
            (match w.peer with
            | Remote addr ->
              t.remote_seen <- t.remote_seen + 1;
              t.log (Printf.sprintf "worker %d joined from %s" wid addr)
            | Child _ -> ())
          | Ready | Busy _ -> ());
          w.deadline <- infinity;
          Ok ()
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF | Unix.ECONNRESET), _, _) ->
          Error "EPIPE sending config")
    | Worker.Heartbeat { worker = _; count } ->
      if w.wid >= 0 then begin
        let a = acct_for t w.wid in
        if count > a.reported then a.reported <- count
      end;
      w.deadline <- now +. t.heartbeat_timeout;
      Ok ()
    | Worker.Result { index; result } ->
      let fresh = Hashtbl.mem wanted index && not (Hashtbl.mem results index) in
      record index result;
      w.deadline <- now +. t.heartbeat_timeout;
      if w.wid >= 0 then begin
        let a = acct_for t w.wid in
        a.results <- a.results + 1;
        Ewma.observe a.ewma ~now:(mono t now) ~tasks:1;
        if fresh then begin
          a.wins <- a.wins + 1;
          match w.state with
          | Busy { batch; outstanding } when batch.speculative && Hashtbl.mem outstanding index
            ->
            a.spec_wins <- a.spec_wins + 1
          | _ -> ()
        end
      end;
      (match w.state with
      | Busy { batch = _; outstanding } when Hashtbl.mem outstanding index ->
        Hashtbl.remove outstanding index;
        if Hashtbl.length outstanding = 0 then begin
          (* A completed batch clears the worker's failure streak — the
             next condemnation backs off from the base again. *)
          if w.wid >= 0 then (acct_for t w.wid).streak <- 0;
          w.state <- Ready;
          w.deadline <- infinity
        end
      | _ -> ());
      Ok ()
    | Worker.Config _ | Worker.Task_batch _ | Worker.Shutdown ->
      Error "worker sent a supervisor-only message"
  in
  let drain_rx ~now w =
    let rec go () =
      match Worker.Rx.next w.rx with
      | Ok None -> Ok ()
      | Error e -> Error ("undecodable frame: " ^ e)
      | Ok (Some f) -> (
        match Worker.parse f with
        | Error e -> Error ("unparseable frame: " ^ e)
        | Ok m -> ( match handle_msg ~now w m with Ok () -> go () | Error e -> Error e))
    in
    go ()
  in
  (* With zero live workers, is a (re)connection still worth waiting
     for?  Only a non-degraded listener with accept budget left, and
     only until the rejoin deadline. *)
  let may_wait_for_peers now =
    t.listener <> None && not t.degraded && t.accepts_left > 0 && now < t.rejoin_deadline
  in
  let rbuf = Bytes.create 65536 in
  while not (done_ ()) do
    let now = Unix.gettimeofday () in
    accept_pending t ~now;
    (* Handshake barrier: hold all work until every spawned worker has
       announced or been condemned and the expected remote peers have
       joined (or the barrier grace expired), so batch placement is a
       function of worker ids, not of hello or connection arrival
       order. *)
    if not t.handshook then begin
      let locals_announced =
        List.for_all
          (fun w -> match w.peer with Child _ -> w.state <> Awaiting_hello | Remote _ -> true)
          t.live
      in
      let remotes_ok =
        t.remote_seen >= t.expect_remote
        ||
        if now >= t.barrier_deadline then begin
          t.log
            (Printf.sprintf
               "handshake barrier: %d of %d expected remote workers joined in time; \
                proceeding without the rest"
               t.remote_seen t.expect_remote);
          true
        end
        else false
      in
      t.handshook <- locals_announced && remotes_ok
    end;
    let rate_of w = if w.wid >= 0 then Ewma.rate (acct_for t w.wid).ewma else 0. in
    let note_assignment w b =
      if w.wid >= 0 then begin
        let a = acct_for t w.wid in
        a.batches <- a.batches + 1;
        if b.speculative then a.speculative <- a.speculative + 1
      end
    in
    (* Tail-end speculation (Auto mode only): with the queue dry but
       batches still in flight, hand the slowest busy worker's
       outstanding indices to idle worker [w].  First-result-wins makes
       the duplicate harmless; one copy per batch bounds the waste. *)
    let speculate w =
      match t.batching with
      | Fixed _ -> false
      | Auto _ -> (
        let victims =
          List.filter_map
            (fun v ->
              match v.state with
              | Busy { batch; outstanding }
                when (not batch.speculated) && Hashtbl.length outstanding > 0 && v.uid <> w.uid
                ->
                Some (v, batch, outstanding)
              | _ -> None)
            t.live
        in
        match victims with
        | [] -> false
        | first :: rest ->
          let slowest =
            List.fold_left
              (fun ((bv, _, _) as best) ((cv, _, _) as cand) ->
                if (rate_of cv, cv.wid) < (rate_of bv, bv.wid) then cand else best)
              first rest
          in
          let v, vb, outs = slowest in
          let idx = List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) outs []) in
          let b =
            {
              seq = t.next_seq;
              indices = Array.of_list idx;
              attempt = vb.attempt;
              not_before = 0.;
              speculative = true;
              speculated = true;
            }
          in
          t.next_seq <- t.next_seq + 1;
          match send_msg w (Worker.Task_batch { seq = b.seq; indices = b.indices }) with
          | () ->
            vb.speculated <- true;
            w.state <- Busy { batch = b; outstanding = Hashtbl.copy outs };
            w.deadline <- now +. t.heartbeat_timeout;
            note_assignment w b;
            t.log
              (Printf.sprintf "%s speculating on %s's batch %d (%d tasks)" (describe w)
                 (describe v) vb.seq (Array.length b.indices));
            true
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF | Unix.ECONNRESET), _, _) ->
            bury t ~requeue ~now ~results w "EPIPE on task send";
            true)
    in
    (* Assign released work to idle workers (lowest id first); batch
       size follows the worker's throughput estimate under Auto. *)
    let rec assign () =
      if not t.handshook then ()
      else
        match List.find_opt (fun w -> w.state = Ready) t.live with
        | None -> ()
        | Some w -> (
          let size = batch_for t.batching ~rate:(rate_of w) in
          match pop_released now ~size with
          | None -> if speculate w then assign ()
          | Some b -> (
            let outstanding = Hashtbl.create (Array.length b.indices) in
            Array.iter
              (fun i -> if not (Hashtbl.mem results i) then Hashtbl.replace outstanding i ())
              b.indices;
            if Hashtbl.length outstanding = 0 then assign ()
            else
              match send_msg w (Worker.Task_batch { seq = b.seq; indices = b.indices }) with
              | () ->
                w.state <- Busy { batch = b; outstanding };
                w.deadline <- now +. t.heartbeat_timeout;
                note_assignment w b;
                assign ()
              | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF | Unix.ECONNRESET), _, _)
                ->
                bury t ~requeue ~now ~results w "EPIPE on task send";
                requeue b;
                assign ()))
    in
    assign ();
    if t.live = [] && not (may_wait_for_peers now) then begin
      (* No survivors and no prospect of a rejoin: graceful degradation
         — finish in-process.  Sticky: once degraded, later chunks run
         inline immediately instead of re-waiting a grace window. *)
      if t.listener <> None && not t.degraded then begin
        t.degraded <- true;
        Option.iter Transport.close_listener t.listener;
        t.log "no live workers and no rejoin in time; degrading to in-process execution"
      end;
      Array.iter (fun i -> if not (Hashtbl.mem results i) then inline i) indices
    end
    else if not (done_ ()) then begin
      let deadline =
        List.fold_left (fun acc w -> min acc w.deadline) infinity t.live
      in
      let wake = min deadline (if queued () > 0 then earliest_release () else infinity) in
      let wake = if t.handshook then wake else min wake t.barrier_deadline in
      let wake = if t.live = [] then min wake t.rejoin_deadline else wake in
      let timeout =
        if wake = infinity then 1.0 else max 0.005 (min 1.0 (wake -. now))
      in
      let fds = List.map (fun w -> w.from_w) t.live in
      let fds =
        match t.listener with
        | Some l when not t.degraded -> Transport.listener_fd l :: fds
        | _ -> fds
      in
      let readable, _, _ =
        try Unix.select fds [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      let now = Unix.gettimeofday () in
      List.iter
        (fun fd ->
          (* The listener fd falls through find_opt; accept_pending
             drains it on the next loop iteration. *)
          match List.find_opt (fun w -> w.from_w = fd) t.live with
          | None -> ()
          | Some w -> (
            match Unix.read w.from_w rbuf 0 (Bytes.length rbuf) with
            | 0 -> bury t ~requeue ~now ~results w "EOF"
            | len -> (
              Worker.Rx.feed w.rx rbuf len;
              match drain_rx ~now w with
              | Ok () -> ()
              | Error e -> bury t ~requeue ~now ~results w e)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception Unix.Unix_error (e, _, _) ->
              bury t ~requeue ~now ~results w (Unix.error_message e)))
        readable;
      (* Heartbeat deadlines: a busy (or never-announced) worker that
         stayed silent past its deadline is treated as crashed even
         though the process may still be running (hung or behind a
         partition).  Iterate a snapshot — bury edits t.live. *)
      List.iter
        (fun w ->
          bury t ~requeue ~now ~results w
            (Printf.sprintf "heartbeat deadline exceeded (%.1fs)" t.heartbeat_timeout))
        (List.filter (fun w -> w.deadline < now) t.live)
    end
  done;
  Array.map (fun i -> match Hashtbl.find_opt results i with Some r -> r | None -> assert false) indices

let shutdown t =
  List.iter
    (fun w ->
      (try send_msg w Worker.Shutdown with Unix.Unix_error _ -> ());
      match w.peer with
      | Child _ -> ( try Unix.close w.to_w with Unix.Unix_error _ -> ())
      | Remote _ ->
        (* Half-close: the Shutdown frame flushes ahead of the FIN, the
           remote reads it, exits 0, and closes its end. *)
        (try Unix.shutdown w.to_w Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()))
    t.live;
  (* Bounded grace, then the axe. *)
  let deadline = Unix.gettimeofday () +. 2.0 in
  List.iter
    (fun w ->
      (match w.peer with
      | Remote _ -> ()
      | Child pid ->
        let rec wait () =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
            if Unix.gettimeofday () < deadline then begin
              ignore (Unix.select [] [] [] 0.02);
              wait ()
            end
            else reap pid
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
          | exception Unix.Unix_error _ -> ()
        in
        wait ());
      try Unix.close w.from_w with Unix.Unix_error _ -> ())
    t.live;
  Option.iter Transport.close_listener t.listener;
  t.live <- []
