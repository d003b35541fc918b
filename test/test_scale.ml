(* Larger-scale runs: the same theorem claims at n in the thousands, to
   catch anything that only breaks past toy sizes (overflow, quadratic
   blowups, stack depth). *)

open Oracle_core
module Graph = Netgraph.Graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let big_sparse n = Netgraph.Gen.random_connected ~n ~p:(4.0 /. float_of_int n) (Random.State.make [| n |])

let test_wakeup_4096 () =
  let n = 4096 in
  let g = big_sparse n in
  let o = Wakeup.run g ~source:0 in
  check_bool "informed" true o.Wakeup.result.Sim.Runner.all_informed;
  check_int "n-1 messages" (n - 1) o.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent;
  check_bool "advice within budget" true (o.Wakeup.advice_bits <= Bounds.wakeup_advice_upper ~n)

let test_broadcast_4096 () =
  let n = 4096 in
  let g = big_sparse n in
  let o = Broadcast.run g ~source:0 in
  check_bool "informed" true o.Broadcast.result.Sim.Runner.all_informed;
  check_bool "< 3n messages" true (o.Broadcast.result.Sim.Runner.stats.Obs.Counting.sent < 3 * n);
  check_bool "<= 8n bits" true (o.Broadcast.advice_bits <= 8 * n);
  check_bool "contribution <= 4n" true (o.Broadcast.tree_contribution <= 4 * n)

let test_light_tree_deep_path () =
  (* A 20 000-node path: recursion depths and tree plumbing at scale. *)
  let n = 20_000 in
  let g = Netgraph.Gen.path n in
  let t = Netgraph.Spanning.light g ~root:0 in
  check_bool "valid" true (Netgraph.Spanning.check g t = Ok ());
  check_bool "within 4n" true
    (Netgraph.Spanning.contribution g (Netgraph.Spanning.edges t) <= 4 * n)

let test_gossip_2048 () =
  let n = 2048 in
  let g = big_sparse n in
  let o = Gossip.run g ~source:0 in
  check_bool "complete" true o.Gossip.complete;
  check_int "2(n-1)" (2 * (n - 1)) o.Gossip.result.Sim.Runner.stats.Obs.Counting.sent

let test_counting_pipeline_large () =
  (* The threshold keeps its shape out to n = 2^18 without numeric
     trouble. *)
  let q n = Lower_bound.min_advice_for_linear_wakeup ~n ~budget_factor:3.0 in
  let q17 = q 131072 and q18 = q 262144 in
  check_bool "superlinear at scale" true (q18 > 2 * q17)

let test_wakeup_100k () =
  (* Theorem 2.1's exact count at n = 10^5: the ring-buffer/timer-wheel
     hot path must land on exactly n-1 messages, everyone informed,
     queue drained. *)
  let n = 100_000 in
  let g = Netgraph.Gen.path n in
  let o = Wakeup.run g ~source:0 in
  let r = o.Wakeup.result in
  check_bool "informed" true r.Sim.Runner.all_informed;
  check_bool "quiescent" true r.Sim.Runner.quiescent;
  check_int "n-1 messages" (n - 1) r.Sim.Runner.stats.Obs.Counting.sent

let test_broadcast_100k () =
  let n = 100_000 in
  let g = Netgraph.Gen.path n in
  let o = Broadcast.run g ~source:0 in
  let r = o.Broadcast.result in
  check_bool "informed" true r.Sim.Runner.all_informed;
  check_bool "quiescent" true r.Sim.Runner.quiescent;
  check_int "n-1 source messages" (n - 1) r.Sim.Runner.stats.Obs.Counting.source_sent;
  check_bool "< 3n messages" true (r.Sim.Runner.stats.Obs.Counting.sent < 3 * n)

let test_untraced_bit_identical () =
  (* The allocation-free path is an observer choice, not a semantics
     choice: with no sinks the runner takes its no-allocation counting
     path, and every statistic must come out bit-identical to a fully
     traced run with a live counting sink — across fault plans
     (exercising the delay and retransmit timer wheels), schedulers and
     retry budgets. *)
  let g = big_sparse 512 in
  let no_advice _ = Bitstring.Bitbuf.create () in
  let configs =
    [
      ("none", 0);
      ("drop=0.1,seed=5", 3);
      ("delay=0.3:7,seed=9", 0);
      ("dup=0.05,reorder=3,seed=11", 0);
      ("drop=0.15,delay=0.2:5,crash=7@40,seed=13", 2);
    ]
  in
  List.iter
    (fun (spec, retry) ->
      let faults = Sim.Fault_plan.of_string_exn spec in
      List.iter
        (fun sched ->
          let name =
            Printf.sprintf "%s/%s/retry=%d" spec (Sim.Scheduler.name sched) retry
          in
          let collect, collected = Obs.Sink.collect () in
          let counts = Obs.Counting.create () in
          let traced =
            Sim.Runner.run ~scheduler:sched
              ~sinks:[ collect; Obs.Counting.sink counts ]
              ~faults ~retry ~advice:no_advice g ~source:0 Sim.Scheme.flooding
          in
          let bare =
            Sim.Runner.run ~scheduler:sched ~faults ~retry ~advice:no_advice g ~source:0
              Sim.Scheme.flooding
          in
          check_bool (name ^ ": stats identical") true
            (bare.Sim.Runner.stats = traced.Sim.Runner.stats);
          check_bool (name ^ ": stats are the stream's counters") true
            (traced.Sim.Runner.stats = Obs.Counting.summary counts);
          check_bool (name ^ ": informed identical") true
            (bare.Sim.Runner.informed = traced.Sim.Runner.informed);
          check_bool (name ^ ": quiescent identical") true
            (bare.Sim.Runner.quiescent = traced.Sim.Runner.quiescent);
          check_bool (name ^ ": load identical") true
            (bare.Sim.Runner.per_node_sent = traced.Sim.Runner.per_node_sent);
          (* The replay audit closes the loop: the event stream alone
             reproduces the counters and balances the in-flight ledger. *)
          let r = Obs.Replay.replay ~n:(Graph.n g) (collected ()) in
          check_bool (name ^ ": replay counters") true
            (r.Obs.Replay.summary = Obs.Counting.summary counts);
          if traced.Sim.Runner.quiescent then
            check_int (name ^ ": replay in-flight balance") 0 r.Obs.Replay.in_flight)
        Sim.Scheduler.default_suite)
    configs

(* Above one 4096-node block, an untraced fault-free synchronous run
   visits each round's deliveries grouped by destination block, while a
   run with a sink attached visits them in batch order.  The two orders
   must be indistinguishable in every result field, and both must agree
   with the sharded engine, which cuts the same rounds across domains. *)
let commutation_graphs =
  List.concat_map
    (fun fam -> List.map (fun n -> (fam, n)) [ 4097; 5000; 20_000 ])
    Netgraph.Families.[ Sparse_random; Random_regular; Grid ]

let same_result name (r0 : Sim.Runner.result) (r : Sim.Runner.result) =
  check_bool (name ^ ": stats") true (r0.Sim.Runner.stats = r.Sim.Runner.stats);
  check_bool (name ^ ": informed") true (r0.Sim.Runner.informed = r.Sim.Runner.informed);
  check_bool (name ^ ": per-node load") true
    (r0.Sim.Runner.per_node_sent = r.Sim.Runner.per_node_sent);
  check_bool (name ^ ": all informed") true
    (r0.Sim.Runner.all_informed = r.Sim.Runner.all_informed);
  check_bool (name ^ ": quiescent") true (r0.Sim.Runner.quiescent = r.Sim.Runner.quiescent)

let test_block_order_commutes () =
  let sync = Sim.Scheduler.Synchronous in
  let no_advice _ ~source:_ _ = Bitstring.Bitbuf.create () in
  let advised (o : Oracles.Oracle.t) g ~source =
    Oracles.Advice.get (o.Oracles.Oracle.advise g ~source)
  in
  let schemes =
    [
      ("flooding", no_advice, Sim.Scheme.flooding);
      ("wakeup", advised (Wakeup.oracle ()), Sim.Scheme.check_wakeup (Wakeup.scheme ()));
      ("broadcast", advised (Broadcast.oracle ()), Broadcast.scheme ());
    ]
  in
  List.iter
    (fun (fam, n) ->
      let g = Netgraph.Families.build fam ~n ~seed:n in
      check_bool "graph spans several blocks" true (Graph.n g > 4096);
      let source = Graph.n g / 3 in
      List.iter
        (fun (proto, advice, factory) ->
          let advice = advice g ~source in
          let name = Printf.sprintf "%s/%s n=%d" proto (Netgraph.Families.name fam) (Graph.n g) in
          let bare = Sim.Runner.run ~scheduler:sync ~advice g ~source factory in
          let ordered =
            Sim.Runner.run ~scheduler:sync
              ~sinks:[ Obs.Counting.sink (Obs.Counting.create ()) ]
              ~advice g ~source factory
          in
          let sharded = Sim.Shard.run ~scheduler:sync ~shards:2 ~advice g ~source factory in
          check_bool (name ^ ": all informed") true bare.Sim.Runner.all_informed;
          same_result (name ^ " ordered") ordered bare;
          same_result (name ^ " shards=2") sharded bare)
        schemes)
    commutation_graphs

(* Flooding that also logs, per node, the ports its messages arrived on.
   Logs are keyed by label and registered at factory time, so each
   node's [on_receive] touches only its own state. *)
let arrival_recorder logs static =
  let log = ref [] in
  Hashtbl.replace logs static.Sim.History.id log;
  let node = Sim.Scheme.flooding static in
  {
    node with
    Sim.Scheme.on_receive =
      (fun msg ~port ->
        log := port :: !log;
        node.Sim.Scheme.on_receive msg ~port);
  }

let test_block_order_keeps_arrival_order () =
  (* Deliveries to one node keep their batch order under the grouped
     visit: every node's arrival ports, in order, must equal that node's
     restriction of the ordered run's global delivery trace. *)
  let sync = Sim.Scheduler.Synchronous in
  let advice _ = Bitstring.Bitbuf.create () in
  List.iter
    (fun (fam, n) ->
      let g = Netgraph.Families.build fam ~n ~seed:n in
      let name = Printf.sprintf "%s n=%d" (Netgraph.Families.name fam) (Graph.n g) in
      let logs = Hashtbl.create (Graph.n g) in
      let bare = Sim.Runner.run ~scheduler:sync ~advice g ~source:0 (arrival_recorder logs) in
      let collect, collected = Obs.Sink.collect () in
      let traced =
        Sim.Runner.run ~scheduler:sync ~sinks:[ collect ] ~advice g ~source:0
          (arrival_recorder (Hashtbl.create 1))
      in
      same_result name traced bare;
      let deliveries =
        List.filter_map
          (function
            | { Obs.Event.seq; round; kind = Obs.Event.Deliver l } -> Some (seq, round, l)
            | _ -> None)
          (collected ())
      in
      (* A traced run is order-sensitive, so it visits each round in
         batch order: fault-free, that is ascending [seq]. *)
      ignore
        (List.fold_left
           (fun prev (sq, _, _) ->
             if sq <= prev then Alcotest.failf "%s: traced delivery seq %d after %d" name sq prev;
             sq)
           (-1) deliveries);
      let expected = Array.make (Graph.n g) [] in
      let same_round = Hashtbl.create 64 in
      let multi = ref 0 in
      List.iter
        (fun (_, round, l) ->
          let dst = l.Obs.Event.dst in
          expected.(dst) <- l.Obs.Event.dst_port :: expected.(dst);
          let key = (dst, round) in
          if Hashtbl.mem same_round key then incr multi else Hashtbl.add same_round key ())
        deliveries;
      check_bool (name ^ ": some node receives twice in one round") true (!multi > 0);
      for v = 0 to Graph.n g - 1 do
        let got = !(Hashtbl.find logs (Graph.label g v)) in
        if got <> expected.(v) then Alcotest.failf "%s: node %d arrival order differs" name v
      done)
    commutation_graphs

let test_separation_2048 () =
  let m = Separation.measure Netgraph.Families.Sparse_random ~n:2048 ~seed:227 in
  check_bool "wakeup ok" true m.Separation.wakeup_ok;
  check_bool "broadcast ok" true m.Separation.broadcast_ok;
  check_bool "ratio grown past 7" true (m.Separation.bits_ratio > 7.0)

let suite =
  [
    Alcotest.test_case "wakeup at n=4096" `Slow test_wakeup_4096;
    Alcotest.test_case "broadcast at n=4096" `Slow test_broadcast_4096;
    Alcotest.test_case "light tree on a 20k path" `Slow test_light_tree_deep_path;
    Alcotest.test_case "gossip at n=2048" `Slow test_gossip_2048;
    Alcotest.test_case "counting pipeline at n=2^18" `Slow test_counting_pipeline_large;
    Alcotest.test_case "separation at n=2048" `Slow test_separation_2048;
    Alcotest.test_case "wakeup at n=10^5" `Slow test_wakeup_100k;
    Alcotest.test_case "broadcast at n=10^5" `Slow test_broadcast_100k;
    Alcotest.test_case "untraced = traced, bit-identical" `Slow test_untraced_bit_identical;
    Alcotest.test_case "block-order rounds = batch-order rounds = shards" `Slow
      test_block_order_commutes;
    Alcotest.test_case "block-order rounds keep per-node arrival order" `Slow
      test_block_order_keeps_arrival_order;
  ]
