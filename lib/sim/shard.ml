(* Domain-sharded execution of a single synchronous run.  See shard.mli
   for the contract; the short version of the determinism argument:

   - the node array is partitioned into [shards] contiguous blocks; a
     node's scheme state is only ever touched by the one task that runs
     its shard in the current phase;
   - a synchronous round is two phases, each one {!Pool.map} over the
     shards, so the pool's join is a full barrier between them —
     deliver (each shard processes the batch slots addressed to its
     nodes, {e in batch order}) then emit (responses are placed into the
     next batch at offsets precomputed by an exclusive prefix sum over
     the per-slot response counts, which reproduces the sequential
     engine's send order exactly);
   - counters are per-shard {!Obs.Counting} instances merged with
     [absorb] (sums and maxima — order-insensitive).

   Only runs with nothing to observe in global order take this engine:
   any sink or fault plan delegates to {!Runner.run}, which is the
   specification. *)

module Graph = Netgraph.Graph

(* {1 The sharded synchronous engine} *)

(* One round's messages, struct of arrays, in slot (= send) order.
   The engine keeps two: the batch being delivered and the one its
   responses are placed into; they swap at the end of every round. *)
type batch = {
  mutable dst : int array;
  mutable dport : int array;
  mutable depth : int array;
  mutable msg : Message.t array;
  mutable inf : Bytes.t;
  mutable len : int;
}

let batch_create cap =
  {
    dst = Array.make cap 0;
    dport = Array.make cap 0;
    depth = Array.make cap 0;
    msg = Array.make cap Message.Hello;
    inf = Bytes.make cap '\000';
    len = 0;
  }

(* Capacity doubling for a buffer of [len] slots that must hold [need]. *)
let grown len need =
  let c = ref (max 256 (2 * len)) in
  while !c < need do
    c := 2 * !c
  done;
  !c

(* The target of an emit is empty, so growing it needs no copy. *)
let batch_reserve b need =
  if Array.length b.dst < need then begin
    let cap = grown (Array.length b.dst) need in
    b.dst <- Array.make cap 0;
    b.dport <- Array.make cap 0;
    b.depth <- Array.make cap 0;
    b.msg <- Array.make cap Message.Hello;
    b.inf <- Bytes.make cap '\000'
  end

let run_parallel ~max_messages ~shards:k ~min_parallel_batch ~advice g ~source factory =
  let n = Graph.n g in
  (* Contiguous block partition: node [v] belongs to shard [v / q];
     phases below test ownership as a range check on [v]. *)
  let q = (n + k - 1) / k in
  let g_off = Graph.csr_offsets g in
  let g_nbr = Graph.csr_neighbors g in
  let g_prt = Graph.csr_ports g in
  (* One counting state per shard; merged with [absorb] at the end. *)
  let counts = Array.init k (fun _ -> Obs.Counting.create ()) in
  let total_sent () = Array.fold_left (fun acc c -> acc + Obs.Counting.sent c) 0 counts in
  let informed = Array.make n false in
  let per_node_sent = Array.make n 0 in
  let pool = ref None in
  (* Run [f] once per shard: one pool task per shard when the work
     reaches [min_parallel_batch], inline on the caller below it.  The
     lowest shard's failure is re-raised, with its raise-site
     backtrace. *)
  let par work f =
    if work >= min_parallel_batch then begin
      let p =
        match !pool with
        | Some p -> p
        | None ->
          let p = Pool.create ~jobs:k in
          pool := Some p;
          p
      in
      Array.iter
        (function Ok () -> () | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
        (Pool.map p f k)
    end
    else
      for s = 0 to k - 1 do
        f s
      done
  in
  let finish () = Option.iter Pool.shutdown !pool in
  Fun.protect ~finally:finish (fun () ->
      let silent = { Scheme.on_start = (fun () -> []); on_receive = (fun _ ~port:_ -> []) } in
      let nodes = Array.make n silent in
      par n (fun s ->
          let c = counts.(s) in
          for v = s * q to min n ((s * q) + q) - 1 do
            let a = advice v in
            Obs.Counting.note_advice c ~round:0 ~bits:(Bitstring.Bitbuf.length a);
            nodes.(v) <-
              factory
                {
                  History.advice = a;
                  is_source = v = source;
                  id = Graph.label g v;
                  degree = Graph.degree g v;
                }
          done);
      informed.(source) <- true;
      Obs.Counting.note_wake counts.(0) ~round:0;
      (* Per-slot responses of the batch being delivered, and their
         exclusive prefix sum. *)
      let sends : Scheme.send list array ref = ref [||] in
      let cnt = ref [||] in
      let offs = ref [||] in
      let reserve_resp need =
        if Array.length !cnt < need then begin
          let cap = grown (Array.length !cnt) need in
          sends := Array.make cap [];
          cnt := Array.make cap 0;
          offs := Array.make (cap + 1) 0
        end
      in
      let cur = ref (batch_create n) in
      let next = ref (batch_create 256) in
      (* Emit phase: the responses of slot [o] of [cur] leave node
         [cur.dst.(o)] at depth [cur.depth.(o) + 1], placed into [next]
         in slot order, then send order — the order a sequential run
         sends them in. *)
      let emit round =
        let b = !cur and e = !next in
        let rs = !sends and rc = !cnt and ro = !offs in
        for o = 0 to b.len - 1 do
          ro.(o + 1) <- ro.(o) + rc.(o)
        done;
        let total = ro.(b.len) in
        batch_reserve e total;
        par b.len (fun s ->
            let lo = s * q and hi = min n ((s * q) + q) in
            let c = counts.(s) in
            for o = 0 to b.len - 1 do
              let v = b.dst.(o) in
              if v >= lo && v < hi && rc.(o) > 0 then begin
                let depth = b.depth.(o) + 1 in
                let inf = if informed.(v) then '\001' else '\000' in
                let base = g_off.(v) in
                let deg = g_off.(v + 1) - base in
                let i = ref ro.(o) in
                List.iter
                  (fun (msg, port) ->
                    if port < 0 || port >= deg then Runner.bad_port ~node:v ~degree:deg ~port;
                    per_node_sent.(v) <- per_node_sent.(v) + 1;
                    Obs.Counting.note_send c ~round ~cls:(Runner.msg_class msg)
                      ~bits:(Message.size_bits msg);
                    e.dst.(!i) <- g_nbr.(base + port);
                    e.dport.(!i) <- g_prt.(base + port);
                    e.depth.(!i) <- depth;
                    e.msg.(!i) <- msg;
                    Bytes.unsafe_set e.inf !i inf;
                    incr i)
                  rs.(o);
                rs.(o) <- []
              end
            done);
        e.len <- total;
        cur := e;
        next := b
      in
      (* Start-up is the emit of a batch whose slot [v] is node [v] at
         depth 0, responding with its [on_start]. *)
      let b = !cur in
      b.len <- n;
      for v = 0 to n - 1 do
        b.dst.(v) <- v
      done;
      reserve_resp n;
      par n (fun s ->
          let rs = !sends and rc = !cnt in
          for v = s * q to min n ((s * q) + q) - 1 do
            let out = nodes.(v).Scheme.on_start () in
            rs.(v) <- out;
            rc.(v) <- List.length out
          done);
      emit 0;
      (* Deliver phase.  Each shard scans the whole batch in slot order
         and processes the slots addressed to its nodes; a node receiving
         twice in one round is handled by its one shard in slot order, so
         wake decisions match the sequential engine's. *)
      let rec round_loop round =
        let b = !cur in
        if b.len = 0 then false
        else begin
          reserve_resp b.len;
          par b.len (fun s ->
              let lo = s * q and hi = min n ((s * q) + q) in
              let c = counts.(s) in
              let rs = !sends and rc = !cnt in
              for o = 0 to b.len - 1 do
                let dst = b.dst.(o) in
                if dst >= lo && dst < hi then begin
                  Obs.Counting.note_deliver c ~round ~depth:b.depth.(o);
                  if Bytes.unsafe_get b.inf o <> '\000' && not informed.(dst) then begin
                    informed.(dst) <- true;
                    Obs.Counting.note_wake c ~round
                  end;
                  let out = nodes.(dst).Scheme.on_receive b.msg.(o) ~port:b.dport.(o) in
                  rs.(o) <- out;
                  rc.(o) <- List.length out
                end
              done);
          emit round;
          total_sent () > max_messages || round_loop (round + 1)
        end
      in
      let cutoff = round_loop 1 in
      let merged = Obs.Counting.create () in
      Array.iter (fun c -> Obs.Counting.absorb merged c) counts;
      Runner.result_of_counts merged ~informed ~quiescent:(not cutoff) ~per_node_sent)

let run ?(scheduler = Scheduler.Async_fifo) ?max_messages ?(sinks = []) ?(faults = Fault_plan.none)
    ?(retry = 0) ?(shards = 1) ?(min_parallel_batch = 256) ~advice g ~source factory =
  if shards < 1 then invalid_arg "Shard.run: shards must be >= 1";
  if min_parallel_batch < 1 then invalid_arg "Shard.run: min_parallel_batch must be >= 1";
  if
    shards = 1 || scheduler <> Scheduler.Synchronous
    || not (Runner.order_free ~sinks ~faults)
  then
    (* Everything but the untraced, fault-free synchronous run: the
       asynchronous schedulers are one global delivery order with no
       round boundary to cut, and sinks and fault plans are global
       orders too (DESIGN.md §14). *)
    Runner.run ~scheduler ?max_messages ~sinks ~faults ~retry ~advice g ~source factory
  else begin
    if source < 0 || source >= Graph.n g then invalid_arg "Shard.run: source out of range";
    if retry < 0 then invalid_arg "Shard.run: negative retry budget";
    let max_messages =
      match max_messages with Some m -> m | None -> Runner.default_max_messages g
    in
    run_parallel ~max_messages ~shards:(min shards 64) ~min_parallel_batch ~advice g ~source
      factory
  end
