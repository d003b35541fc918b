module Graph = Netgraph.Graph

type result = {
  stats : Obs.Counting.summary;
  informed : bool array;
  all_informed : bool;
  quiescent : bool;
  per_node_sent : int array;
}

(* A message taken off the fast path: the scheduler queue itself is a
   struct-of-arrays ring buffer (see [run]) and never materialises these;
   records exist only while a message sits in the fault machinery — the
   reorder stage, the delay wheel, or the retransmit wheel. *)
type in_flight = {
  f_src : int;
  f_src_port : int;
  f_dst : int;
  f_dst_port : int;
  f_msg : Message.t;
  f_informed : bool;
  f_seq : int;
  f_depth : int;
}

(* The engine buffers every run draws from its domain's pool: the
   scheduler queue, a struct-of-arrays ring buffer (one array per
   message field, see [run]), the synchronous loop's per-slot stash of
   one round (with its visiting order), and the start-up table of the
   nodes' [on_start] closures.  A run grows them in place, so the pool
   keeps the largest run's. *)
type buffers = {
  mutable q_src : int array;
  mutable q_sport : int array;
  mutable q_dst : int array;
  mutable q_dport : int array;
  mutable q_seq : int array;
  mutable q_depth : int array;
  mutable q_msg : Message.t array;
  mutable q_inf : Bytes.t;
  mutable r_dst : int array;
  mutable r_depth : int array;
  mutable r_sends : Scheme.send list array;
  mutable r_order : int array;
  mutable starts : (unit -> Scheme.send list) array;
}

let buffers () =
  let cap = 256 in
  {
    q_src = Array.make cap 0;
    q_sport = Array.make cap 0;
    q_dst = Array.make cap 0;
    q_dport = Array.make cap 0;
    q_seq = Array.make cap 0;
    q_depth = Array.make cap 0;
    q_msg = Array.make cap Message.Hello;
    q_inf = Bytes.make cap '\000';
    r_dst = [||];
    r_depth = [||];
    r_sends = [||];
    r_order = [||];
    starts = [||];
  }

let no_start () = []

(* What a run that raises leaves in its buffers: the start-up closures
   not walked yet and the responses stashed mid-round.  A finished run
   clears both as it reads them. *)
let release b =
  Array.fill b.starts 0 (Array.length b.starts) no_start;
  Array.fill b.r_sends 0 (Array.length b.r_sends) []

(* One set of buffers per domain, lent to one run at a time.  A run
   that starts while its domain's set is lent out (one nested inside a
   sink) takes a fresh set, and a run that raises returns the set
   emptied of its closures. *)
type pool = {
  bufs : buffers;
  mutable busy : bool;
}

let pool_key = Domain.DLS.new_key (fun () -> { bufs = buffers (); busy = false })

let with_buffers f =
  let p = Domain.DLS.get pool_key in
  if p.busy then f (buffers ())
  else begin
    p.busy <- true;
    match f p.bufs with
    | r ->
      p.busy <- false;
      r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      release p.bufs;
      p.busy <- false;
      Printexc.raise_with_backtrace e bt
  end

let msg_class = function
  | Message.Source -> Obs.Event.Source
  | Message.Hello -> Obs.Event.Hello
  | Message.Control _ -> Obs.Event.Control

let result_of_counts counts ~informed ~quiescent ~per_node_sent =
  {
    stats = Obs.Counting.summary counts;
    informed;
    all_informed = Array.for_all Fun.id informed;
    quiescent;
    per_node_sent;
  }

(* An [order_free] run on more than one block of [1 lsl block_bits]
   nodes visits a synchronous round's deliveries grouped by destination
   block, once the round holds at least one delivery per block (below
   that the sort's per-block passes cost more than the locality it
   buys: a path's one-message rounds); every other run visits in batch
   order. *)
let block_bits = 12

let blocks n = ((n - 1) lsr block_bits) + 1

let by_block ~n ~batch = n > 1 lsl block_bits && batch >= blocks n

let visit_rank ~n ~batch ~dst k = if by_block ~n ~batch then ((dst lsr block_bits) * batch) + k else k

let bad_port ~node ~degree ~port =
  invalid_arg (Printf.sprintf "Runner: node %d (degree %d) sends on port %d" node degree port)

(* Four sends per node and edge covers every budget a harness verdict
   accepts (at most 4m + 3n); the floor keeps small graphs' cutoffs
   where they always were. *)
let default_max_messages g = max 1_000_000 (4 * (Graph.n g + Graph.m g))

let order_free ~sinks ~faults = sinks = [] && Fault_plan.is_none faults

let run ?(scheduler = Scheduler.Async_fifo) ?max_messages ?(sinks = []) ?(faults = Fault_plan.none)
    ?(retry = 0) ?recorder ~advice g ~source factory =
  let max_messages = match max_messages with Some m -> m | None -> default_max_messages g in
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Runner.run: source out of range";
  if retry < 0 then invalid_arg "Runner.run: negative retry budget";
  with_buffers @@ fun b ->
  (* Raw CSR adjacency for the emit hot loop: one offset read plus two
     flat int reads per send, no tuple allocation, no bounds recheck
     inside [Graph.endpoint]. *)
  let g_off = Graph.csr_offsets g in
  let g_nbr = Graph.csr_neighbors g in
  let g_prt = Graph.csr_ports g in
  let informed = Array.make n false in
  (* All counters are derived from the telemetry event stream: the runner
     folds every event through its own counting sink and fans it out to the
     caller's sinks, so an external [Obs.Counting] attached via [sinks] is
     the same fold over the same stream as [result.stats].

     With no sinks attached, the fold runs through the allocation-free
     [Obs.Counting.note_*] mutators instead — each is the arm [observe]
     applies to its event kind, so the counters land bit-identical
     without an [Obs.Event.t] ever being built (the scale tests assert
     the bit-identity across the fault/retry grid).

     A run given a [recorder] also records its stream there: [observe]
     pushes each event it builds, and the [note_*] path appends the
     per-message and per-node kinds straight from their fields, so
     recording builds no event either. *)
  let counts = Obs.Counting.create () in
  let sinks_empty = sinks = [] in
  let record ev = match recorder with Some r -> Obs.Recorder.push r ev | None -> () in
  let observe ev =
    Obs.Counting.observe counts ev;
    record ev;
    List.iter (fun s -> Obs.Sink.emit s ev) sinks
  in
  let seq = ref 0 in
  (* One pass instantiates every node and accounts its advice; the
     [History] record is handed to the factory and dies young unless the
     scheme itself retains it.  Stream order is unchanged: all the
     [Advice_read]s (factories emit nothing), then the source [Wake].

     The pass fills a flat closure table: a delivery loads its
     receiver's [on_receive] straight from [recv] instead of going node
     table → [Scheme.node] record → closure, one dependent load fewer
     per message to a random node.  The [on_start] closures wait in the
     pool's start-up table, which a run allocates only when it is the
     largest the domain has made (E40). *)
  let recv = Array.make n (fun _ ~port:_ -> []) in
  if Array.length b.starts < n then b.starts <- Array.make n no_start;
  let starts = b.starts in
  for v = 0 to n - 1 do
    let a = advice v in
    let bits = Bitstring.Bitbuf.length a in
    (if sinks_empty then begin
       Obs.Counting.note_advice counts ~round:0 ~bits;
       match recorder with
       | Some r -> Obs.Recorder.advice_read r ~seq:0 ~round:0 v ~bits
       | None -> ()
     end
     else observe { Obs.Event.seq = 0; round = 0; kind = Obs.Event.Advice_read (v, bits) });
    let node =
      factory
        {
          History.advice = a;
          is_source = v = source;
          id = Graph.label g v;
          degree = Graph.degree g v;
        }
    in
    Array.unsafe_set recv v node.Scheme.on_receive;
    Array.unsafe_set starts v node.Scheme.on_start
  done;
  informed.(source) <- true;
  if sinks_empty then begin
    Obs.Counting.note_wake counts ~round:0;
    match recorder with Some r -> Obs.Recorder.wake r ~seq:0 ~round:0 source | None -> ()
  end
  else observe { Obs.Event.seq = 0; round = 0; kind = Obs.Event.Wake source };
  let per_node_sent = Array.make n 0 in
  let rand =
    match scheduler with
    | Scheduler.Async_random seed -> Some (Random.State.make [| seed |])
    | Scheduler.Synchronous | Scheduler.Async_fifo | Scheduler.Async_lifo -> None
  in
  (* In-flight messages: one struct-of-arrays ring buffer serves all four
     scheduler modes — FIFO pops the head, LIFO pops the tail, random
     swap-removes against the tail (exactly the old bag: same index draw,
     same swap), synchronous pops the head a round-sized batch at a time.
     [head]/[tail] are virtual (monotone) indices; the storage slot is
     [index land mask].  Steady state costs eight scalar writes per push
     and eight reads per pop: no list cells, no records. *)
  let cap = ref (Array.length b.q_src) in
  let mask = ref (!cap - 1) in
  let head = ref 0 in
  let tail = ref 0 in
  let ring_grow () =
    let len = !tail - !head in
    let ncap = 2 * !cap in
    let nsrc = Array.make ncap 0
    and nsport = Array.make ncap 0
    and ndst = Array.make ncap 0
    and ndport = Array.make ncap 0
    and nseq = Array.make ncap 0
    and ndepth = Array.make ncap 0
    and nmsg = Array.make ncap Message.Hello
    and ninf = Bytes.make ncap '\000' in
    for i = 0 to len - 1 do
      let j = (!head + i) land !mask in
      nsrc.(i) <- b.q_src.(j);
      nsport.(i) <- b.q_sport.(j);
      ndst.(i) <- b.q_dst.(j);
      ndport.(i) <- b.q_dport.(j);
      nseq.(i) <- b.q_seq.(j);
      ndepth.(i) <- b.q_depth.(j);
      nmsg.(i) <- b.q_msg.(j);
      Bytes.set ninf i (Bytes.get b.q_inf j)
    done;
    b.q_src <- nsrc;
    b.q_sport <- nsport;
    b.q_dst <- ndst;
    b.q_dport <- ndport;
    b.q_seq <- nseq;
    b.q_depth <- ndepth;
    b.q_msg <- nmsg;
    b.q_inf <- ninf;
    cap := ncap;
    mask := ncap - 1;
    head := 0;
    tail := len
  in
  (* Slot indices are always [index land mask], so they are in range by
     construction; the unsafe accessors drop sixteen bounds checks from
     each push/pop pair on the hot path. *)
  let ring_push ~src ~src_port ~dst ~dst_port ~msg ~inf ~sq ~depth =
    if !tail - !head = !cap then ring_grow ();
    let i = !tail land !mask in
    Array.unsafe_set b.q_src i src;
    Array.unsafe_set b.q_sport i src_port;
    Array.unsafe_set b.q_dst i dst;
    Array.unsafe_set b.q_dport i dst_port;
    Array.unsafe_set b.q_seq i sq;
    Array.unsafe_set b.q_depth i depth;
    Array.unsafe_set b.q_msg i msg;
    Bytes.unsafe_set b.q_inf i (if inf then '\001' else '\000');
    incr tail
  in
  let push_fl fl =
    ring_push ~src:fl.f_src ~src_port:fl.f_src_port ~dst:fl.f_dst ~dst_port:fl.f_dst_port
      ~msg:fl.f_msg ~inf:fl.f_informed ~sq:fl.f_seq ~depth:fl.f_depth
  in
  (* Adversarial execution.  Every fault channel draws from its own
     seeded stream, so enabling one channel never perturbs another and
     identical plan + seed + scheduler replays bit-identically. *)
  let plan = if Fault_plan.is_none faults then None else Some faults in
  (* One byte per node, not two bool arrays: the liveness check is on
     the delivery hot path, and a [Bytes.t] is an eighth of the major
     heap churn that two word-per-element arrays cost every run.
     '\000' live, '\001' dead at start-up, '\002' crash-stopped; no
     consumer distinguishes the failure modes, only zero vs not. *)
  let failed = Bytes.make n '\000' in
  let is_failed v = Bytes.unsafe_get failed v <> '\000' in
  let drop_st = Random.State.make [| faults.Fault_plan.seed; 0xd09 |] in
  let dup_st = Random.State.make [| faults.Fault_plan.seed; 0xd4b |] in
  let delay_st = Random.State.make [| faults.Fault_plan.seed; 0xde1 |] in
  let observe_fault ~sq round f =
    if sinks_empty then begin
      Obs.Counting.note_fault counts ~round f;
      if Option.is_some recorder then record { Obs.Event.seq = sq; round; kind = Obs.Event.Fault f }
    end
    else observe { Obs.Event.seq = sq; round; kind = Obs.Event.Fault f }
  in
  let stage : in_flight list ref = ref [] in
  let stage_len = ref 0 in
  let flush_stage () =
    (* The staged burst is newest-first, so releasing it in list order
       reverses arrival order — that is the reordering. *)
    List.iter push_fl !stage;
    stage := [];
    stage_len := 0
  in
  let stage_push round ev =
    match plan with
    | Some p when p.Fault_plan.reorder_every > 1 ->
      stage := ev :: !stage;
      incr stage_len;
      if !stage_len >= p.Fault_plan.reorder_every then begin
        observe_fault ~sq:ev.f_seq round (Obs.Event.Msg_reordered p.Fault_plan.reorder_every);
        flush_stage ()
      end
    | _ -> push_fl ev
  in
  (* Delayed messages sit out their rounds on a timer wheel keyed by the
     absolute release round, then rejoin the scheduler's own order
     (oldest release first).  A delay of k rounds costs two O(1) wheel
     operations, not a queue rescan on each of the k rounds between. *)
  let delayed_w : in_flight Timer_wheel.t = Timer_wheel.create () in
  let tick_delayed round = Timer_wheel.drain delayed_w ~now:round push_fl in
  (* The ack/retransmit channel.  Each destroyed copy of a message (plan
     drop or a failed receiver) arms the sender's per-message
     timer; when it fires the channel re-enqueues a fresh copy, at most
     [retry] times per sequence number, with exponential backoff
     (1, 2, 4, … scheduler steps).  A receiver that crash-stopped is
     detectably gone, so instead of burning the whole budget on futile
     copies the channel consumes one retry and fires the sender's timer
     as a [Message.timeout] delivery.  Retransmissions are [Recover]
     events, never [Send]s: repair traffic is invisible to the paper's
     message complexity and budgeted separately by [Fault.Verdict].

     Timers live on their own wheel, keyed by the absolute firing round;
     per-message bookkeeping (attempts used, timeout already signalled)
     is flat arrays indexed by sequence number — no hashing on the
     failure path, and nothing allocated until the channel actually
     fires. *)
  let recovery_w : (int * in_flight) Timer_wheel.t = Timer_wheel.create () in
  let attempts = ref [||] in
  let att_get s = if s < Array.length !attempts then !attempts.(s) else 0 in
  let att_set s v =
    if s >= Array.length !attempts then begin
      let ncap = ref (max 64 (2 * Array.length !attempts)) in
      while !ncap <= s do
        ncap := 2 * !ncap
      done;
      let a = Array.make !ncap 0 in
      Array.blit !attempts 0 a 0 (Array.length !attempts);
      attempts := a
    end;
    !attempts.(s) <- v
  in
  let t_signalled = ref Bytes.empty in
  let ts_get s = s < Bytes.length !t_signalled && Bytes.get !t_signalled s <> '\000' in
  let ts_set s =
    if s >= Bytes.length !t_signalled then begin
      let ncap = ref (max 64 (2 * Bytes.length !t_signalled)) in
      while !ncap <= s do
        ncap := 2 * !ncap
      done;
      let b = Bytes.make !ncap '\000' in
      Bytes.blit !t_signalled 0 b 0 (Bytes.length !t_signalled);
      t_signalled := b
    end;
    Bytes.set !t_signalled s '\001'
  in
  let schedule_retransmit round fl =
    if retry > 0 && not (Message.is_timeout fl.f_msg) then begin
      let used = att_get fl.f_seq in
      if used < retry then begin
        att_set fl.f_seq (used + 1);
        Timer_wheel.add recovery_w ~now:round ~due:(round + (1 lsl min used 16)) (used + 1, fl)
      end
    end
  in
  let schedule_timeout round ~src ~src_port ~dst ~dst_port ~msg ~sq ~depth =
    if retry > 0 && (not (Message.is_timeout msg)) && not (ts_get sq) then begin
      ts_set sq;
      let used = att_get sq in
      if used < retry then begin
        att_set sq (used + 1);
        Timer_wheel.add recovery_w ~now:round ~due:(round + 1)
          ( used + 1,
            {
              f_src = dst;
              f_src_port = dst_port;
              f_dst = src;
              f_dst_port = src_port;
              f_msg = Message.timeout;
              f_informed = false;
              f_seq = sq;
              f_depth = depth + 1;
            } )
      end
    end
  in
  (* Keep-alive detection: with the channel armed, every node runs a
     timer per incident link; a neighbor that crash-stops goes silent and
     the timer fires as a [Message.timeout] delivery at each live
     neighbor.  This is what catches a node that failed {e after} its
     advised traffic completed — no further message would ever be
     addressed to it, so no per-message timer exists to notice.  The
     timers fire at the crash round's own wheel drain (which runs right
     after crash processing); for nodes dead at start-up, at round 1,
     the first round that ticks. *)
  let signal_failure v round =
    if retry > 0 then
      List.iter
        (fun (p, u, up) ->
          if not (is_failed u) then
            Timer_wheel.add recovery_w ~now:round ~due:(max 1 round)
              ( 1,
                {
                  f_src = v;
                  f_src_port = p;
                  f_dst = u;
                  f_dst_port = up;
                  f_msg = Message.timeout;
                  f_informed = false;
                  f_seq = 0;
                  f_depth = 1;
                } ))
        (Graph.neighbors g v)
  in
  let process_crashes step =
    match plan with
    | None -> ()
    | Some p ->
      List.iter
        (fun (v, s) ->
          if s = step && v >= 0 && v < n && not (is_failed v) then begin
            Bytes.set failed v '\002';
            observe_fault ~sq:!seq step (Obs.Event.Crashed v);
            signal_failure v step
          end)
        p.Fault_plan.crashes
  in
  let inject round fl =
    match plan with
    | None -> push_fl fl
    | Some p ->
      (* Each enabled channel draws exactly once per scheme-produced
         message, whatever the other channels decide, so the streams
         stay aligned across plans that differ in one channel. *)
      let dropped = p.Fault_plan.drop > 0.0 && Random.State.float drop_st 1.0 < p.Fault_plan.drop in
      let dup =
        p.Fault_plan.duplicate > 0.0 && Random.State.float dup_st 1.0 < p.Fault_plan.duplicate
      in
      let delay_by =
        match p.Fault_plan.delay with
        | Some (pr, mx) when Random.State.float delay_st 1.0 < pr ->
          1 + Random.State.int delay_st (max 1 mx)
        | Some _ | None -> 0
      in
      if dropped then begin
        observe_fault ~sq:fl.f_seq round Obs.Event.Msg_dropped;
        schedule_retransmit round fl
      end
      else begin
        if delay_by > 0 then begin
          observe_fault ~sq:fl.f_seq round (Obs.Event.Msg_delayed delay_by);
          Timer_wheel.add delayed_w ~now:round ~due:(round + delay_by) fl
        end
        else stage_push round fl;
        if dup then begin
          observe_fault ~sq:fl.f_seq round Obs.Event.Msg_duplicated;
          stage_push round fl
        end
      end
  in
  (* The drain's callback is a closure over [round]: skip building it
     on the rounds (every round, with recovery off) that release
     nothing. *)
  let tick_recovery round =
    if not (Timer_wheel.is_empty recovery_w) then
      Timer_wheel.drain recovery_w ~now:round (fun (attempt, fl) ->
          (* Crash-stop: a failed node retransmits nothing, and a failed
             sender no longer owns a timer to be notified by. *)
          let actor = if Message.is_timeout fl.f_msg then fl.f_dst else fl.f_src in
          if not (is_failed actor) then begin
            (if sinks_empty then begin
               Obs.Counting.note_retransmit counts ~round;
               if Option.is_some recorder then
                 record
                   {
                     Obs.Event.seq = fl.f_seq;
                     round;
                     kind = Obs.Event.Recover (Obs.Event.Msg_retransmitted attempt);
                   }
             end
             else
               observe
                 {
                   Obs.Event.seq = fl.f_seq;
                   round;
                   kind = Obs.Event.Recover (Obs.Event.Msg_retransmitted attempt);
                 });
            if Message.is_timeout fl.f_msg then push_fl fl else inject round fl
          end)
  in
  (* With no fault plan, nothing between a send and its delivery can
     touch a message: sends go straight onto the ring, no [in_flight]
     record exists, and a steady-state round allocates nothing beyond
     what the scheme itself returns. *)
  let fast_wire = plan = None in
  (* A plain recursive walk, not [List.iter f]: building the closure for
     [f] on every call put seven words on the minor heap per delivery
     (and per [on_start]), for nothing. *)
  let rec emit v round ~depth sends =
    match sends with
    | [] -> ()
    | (msg, port) :: rest ->
      let base = g_off.(v) in
      if port < 0 || port >= g_off.(v + 1) - base then
        bad_port ~node:v ~degree:(g_off.(v + 1) - base) ~port;
      let dst = g_nbr.(base + port) in
      let dst_port = g_prt.(base + port) in
      per_node_sent.(v) <- per_node_sent.(v) + 1;
      let inf = informed.(v) in
      (if sinks_empty then begin
         let cls = msg_class msg and bits = Message.size_bits msg in
         Obs.Counting.note_send counts ~round ~cls ~bits;
         match recorder with
         | Some r ->
           Obs.Recorder.send r ~seq:!seq ~round ~src:v ~src_port:port ~dst ~dst_port ~cls ~bits
             ~informed:inf ~depth
         | None -> ()
       end
       else
         observe
           {
             Obs.Event.seq = !seq;
             round;
             kind =
               Obs.Event.Send
                 {
                   Obs.Event.src = v;
                   src_port = port;
                   dst;
                   dst_port;
                   cls = msg_class msg;
                   bits = Message.size_bits msg;
                   informed = inf;
                   depth;
                 };
           });
      (if fast_wire then ring_push ~src:v ~src_port:port ~dst ~dst_port ~msg ~inf ~sq:!seq ~depth
       else
         inject round
           {
             f_src = v;
             f_src_port = port;
             f_dst = dst;
             f_dst_port = dst_port;
             f_msg = msg;
             f_informed = inf;
             f_seq = !seq;
             f_depth = depth;
           });
      incr seq;
      emit v round ~depth rest
  in
  (* Initially-dead nodes never start, never receive; a dead (or
     out-of-range) source is ignored — the plan is graph-independent
     data and a dead source would make the task vacuous. *)
  (match plan with
  | None -> ()
  | Some p ->
    List.iter
      (fun v ->
        if v >= 0 && v < n && v <> source && not (is_failed v) then begin
          Bytes.set failed v '\001';
          observe_fault ~sq:0 0 (Obs.Event.Dead v);
          signal_failure v 0
        end)
      p.Fault_plan.dead);
  process_crashes 0;
  (* Start-up: the paper's scheme on the empty history, at every node,
     in node order.  Each slot is cleared as it is read, so the pool
     keeps no closure of a finished run. *)
  for v = 0 to n - 1 do
    let on_start = Array.unsafe_get starts v in
    Array.unsafe_set starts v no_start;
    if not (is_failed v) then emit v 0 ~depth:1 (on_start ())
  done;
  let deliver ~src ~src_port ~dst ~dst_port ~msg ~inf ~sq ~depth round =
    if is_failed dst then begin
      (* Swallowed by a failed receiver: recorded as a drop so replay's
         in-flight balance still closes, but no [Deliver] is emitted.
         With the retransmit channel on, the failure is detectable — the
         sender's timer will fire instead of more futile copies. *)
      observe_fault ~sq round Obs.Event.Msg_dropped;
      schedule_timeout round ~src ~src_port ~dst ~dst_port ~msg ~sq ~depth;
      []
    end
    else begin
      (if sinks_empty then begin
         Obs.Counting.note_deliver counts ~round ~depth;
         match recorder with
         | Some r ->
           Obs.Recorder.deliver r ~seq:sq ~round ~src ~src_port ~dst ~dst_port ~cls:(msg_class msg)
             ~bits:(Message.size_bits msg) ~informed:inf ~depth
         | None -> ()
       end
       else
         observe
           {
             Obs.Event.seq = sq;
             round;
             kind =
               Obs.Event.Deliver
                 {
                   Obs.Event.src;
                   src_port;
                   dst;
                   dst_port;
                   cls = msg_class msg;
                   bits = Message.size_bits msg;
                   informed = inf;
                   depth;
                 };
           });
      if inf && not informed.(dst) then begin
        informed.(dst) <- true;
        if sinks_empty then begin
          Obs.Counting.note_wake counts ~round;
          match recorder with Some r -> Obs.Recorder.wake r ~seq:sq ~round dst | None -> ()
        end
        else observe { Obs.Event.seq = sq; round; kind = Obs.Event.Wake dst }
      end;
      (Array.unsafe_get recv dst) msg ~port:dst_port
    end
  in
  let wheels_empty () = Timer_wheel.is_empty delayed_w && Timer_wheel.is_empty recovery_w in
  let rounds = ref 0 in
  let cutoff = ref false in
  (match scheduler with
  | Scheduler.Synchronous ->
    (* Per-slot stash of the round being delivered, indexed by batch
       position and grown with the largest batch seen.  A run that
       records is observed in stream order, so it is not order-free. *)
    let visit_by_block =
      order_free ~sinks ~faults && Option.is_none recorder && n > 1 lsl block_bits
    in
    let blocks = blocks n in
    let block_start = Array.make (if visit_by_block then blocks + 1 else 0) 0 in
    (* Round r+1 delivers exactly the messages sent during round r: the
       batch is the ring's population at the top of the round; wheel
       releases and response sends queue behind it, for round r+2. *)
    let rec round_loop () =
      let batch = !tail - !head in
      if batch = 0 then begin
        (* A drained round may still owe messages to the adversary:
           release a partial reorder burst, or advance time until a
           delayed message comes due. *)
        if !stage_len > 0 then begin
          flush_stage ();
          round_loop ()
        end
        else if not (wheels_empty ()) then begin
          incr rounds;
          process_crashes !rounds;
          tick_delayed !rounds;
          tick_recovery !rounds;
          round_loop ()
        end
      end
      else begin
        incr rounds;
        process_crashes !rounds;
        tick_delayed !rounds;
        tick_recovery !rounds;
        (* Two-phase: deliver the whole batch first (stashing each
           receiver's response under its batch position), then hand the
           responses to the network in batch position order, so no node
           reacts to a message from its own round and [seq], [Send]
           order and the ring contents never depend on the visiting
           order.  A slot's [dst]/[depth] are stashed while it is read:
           the emits reuse ring slots of this very batch. *)
        if batch > Array.length b.r_dst then begin
          let len = max batch (2 * Array.length b.r_dst) in
          b.r_dst <- Array.make len 0;
          b.r_depth <- Array.make len 0;
          b.r_sends <- Array.make len []
        end;
        if visit_by_block && batch > Array.length b.r_order then
          b.r_order <- Array.make (Array.length b.r_dst) 0;
        let r_dst = b.r_dst and r_depth = b.r_depth and r_sends = b.r_sends and r_order = b.r_order in
        let h0 = !head in
        head := h0 + batch;
        let q_dst = b.q_dst and mask = !mask in
        let by_block = visit_by_block && by_block ~n ~batch in
        if by_block then begin
          (* Stable counting sort of batch positions by destination
             block: deliveries to one node keep their batch order, and
             each block's closures, scheme state and per-node arrays
             stay cache-resident while it is visited. *)
          Array.fill block_start 0 (blocks + 1) 0;
          for k = 0 to batch - 1 do
            let b = (Array.unsafe_get q_dst ((h0 + k) land mask) lsr block_bits) + 1 in
            block_start.(b) <- block_start.(b) + 1
          done;
          for b = 1 to blocks do
            block_start.(b) <- block_start.(b) + block_start.(b - 1)
          done;
          for k = 0 to batch - 1 do
            let b = Array.unsafe_get q_dst ((h0 + k) land mask) lsr block_bits in
            let j = block_start.(b) in
            Array.unsafe_set r_order j k;
            block_start.(b) <- j + 1
          done
        end;
        for j = 0 to batch - 1 do
          let k = if by_block then Array.unsafe_get r_order j else j in
          let i = (h0 + k) land mask in
          let src = Array.unsafe_get b.q_src i
          and src_port = Array.unsafe_get b.q_sport i
          and dst = Array.unsafe_get q_dst i
          and dst_port = Array.unsafe_get b.q_dport i
          and sq = Array.unsafe_get b.q_seq i
          and depth = Array.unsafe_get b.q_depth i
          and msg = Array.unsafe_get b.q_msg i
          and inf = Bytes.unsafe_get b.q_inf i <> '\000' in
          Array.unsafe_set r_dst k dst;
          Array.unsafe_set r_depth k depth;
          Array.unsafe_set r_sends k
            (deliver ~src ~src_port ~dst ~dst_port ~msg ~inf ~sq ~depth !rounds)
        done;
        for k = 0 to batch - 1 do
          let sends = Array.unsafe_get r_sends k in
          Array.unsafe_set r_sends k [];
          emit (Array.unsafe_get r_dst k) !rounds ~depth:(Array.unsafe_get r_depth k + 1) sends
        done;
        if Obs.Counting.sent counts > max_messages then cutoff := true else round_loop ()
      end
    in
    round_loop ()
  | Scheduler.Async_fifo | Scheduler.Async_lifo | Scheduler.Async_random _ ->
    let rec loop () =
      if !tail = !head then begin
        if !stage_len > 0 then begin
          flush_stage ();
          loop ()
        end
        else if not (wheels_empty ()) then begin
          incr rounds;
          process_crashes !rounds;
          tick_delayed !rounds;
          tick_recovery !rounds;
          loop ()
        end
      end
      else begin
        (* Pop per scheduler mode, reading the slot before anything can
           reuse it (a wheel release pushes into the ring and, for LIFO,
           lands exactly on the slot just vacated). *)
        let i =
          match rand with
          | Some st -> (!head + Random.State.int st (!tail - !head)) land !mask
          | None -> (
            match scheduler with
            | Scheduler.Async_lifo ->
              decr tail;
              !tail land !mask
            | _ ->
              let i = !head land !mask in
              incr head;
              i)
        in
        let src = Array.unsafe_get b.q_src i
        and src_port = Array.unsafe_get b.q_sport i
        and dst = Array.unsafe_get b.q_dst i
        and dst_port = Array.unsafe_get b.q_dport i
        and sq = Array.unsafe_get b.q_seq i
        and depth = Array.unsafe_get b.q_depth i
        and msg = Array.unsafe_get b.q_msg i
        and inf = Bytes.unsafe_get b.q_inf i <> '\000' in
        (match rand with
        | Some _ ->
          (* Complete the bag's swap-remove: the tail element fills the
             hole (a no-op when the popped element was the tail). *)
          let last = (!tail - 1) land !mask in
          Array.unsafe_set b.q_src i (Array.unsafe_get b.q_src last);
          Array.unsafe_set b.q_sport i (Array.unsafe_get b.q_sport last);
          Array.unsafe_set b.q_dst i (Array.unsafe_get b.q_dst last);
          Array.unsafe_set b.q_dport i (Array.unsafe_get b.q_dport last);
          Array.unsafe_set b.q_seq i (Array.unsafe_get b.q_seq last);
          Array.unsafe_set b.q_depth i (Array.unsafe_get b.q_depth last);
          Array.unsafe_set b.q_msg i (Array.unsafe_get b.q_msg last);
          Bytes.unsafe_set b.q_inf i (Bytes.unsafe_get b.q_inf last);
          decr tail
        | None -> ());
        incr rounds;
        process_crashes !rounds;
        tick_delayed !rounds;
        tick_recovery !rounds;
        let sends = deliver ~src ~src_port ~dst ~dst_port ~msg ~inf ~sq ~depth !rounds in
        emit dst !rounds ~depth:(depth + 1) sends;
        if Obs.Counting.sent counts > max_messages then cutoff := true else loop ()
      end
    in
    loop ());
  result_of_counts counts ~informed ~quiescent:(not !cutoff) ~per_node_sent

let run_silent_network_check ~advice g ~source factory =
  let n = Graph.n g in
  let ok = ref true in
  for v = 0 to n - 1 do
    if v <> source then begin
      let node =
        factory
          {
            History.advice = advice v;
            is_source = false;
            id = Graph.label g v;
            degree = Graph.degree g v;
          }
      in
      if node.Scheme.on_start () <> [] then ok := false
    end
  done;
  !ok
