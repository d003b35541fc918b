(* The sharded engine's contract is bit-identity with the sequential
   runner at any shard count.  Only untraced, fault-free synchronous
   runs execute across domains; the grids below drive that path with
   [min_parallel_batch:1], so the parallel phases really execute even
   on test-sized graphs, and compare it field by field with
   [Runner.run].  The traced and faulted grids pin the delegation: any
   sink or fault plan hands the run to [Runner.run], whose bytes must
   not move with the shard count. *)

open Oracle_core
module Graph = Netgraph.Graph

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let jsonl events = String.concat "\n" (List.map Obs.Jsonl.encode events)

let families =
  [
    ("path", fun () -> Netgraph.Gen.path 500);
    ("complete", fun () -> Netgraph.Gen.complete 240);
    ( "sparse",
      fun () ->
        Netgraph.Gen.random_connected ~n:1500 ~p:(4.0 /. 1500.0) (Random.State.make [| 1500 |]) );
  ]

let shard_counts = [ 1; 2; 7 ]

(* Every field the parallel engine computes, against the reference. *)
let check_same name (r0 : Sim.Runner.result) (r : Sim.Runner.result) =
  check_bool (name ^ ": stats") true (r0.Sim.Runner.stats = r.Sim.Runner.stats);
  check_bool (name ^ ": informed") true (r0.Sim.Runner.informed = r.Sim.Runner.informed);
  check_bool (name ^ ": per-node load") true
    (r0.Sim.Runner.per_node_sent = r.Sim.Runner.per_node_sent);
  check_bool (name ^ ": quiescent") true (r0.Sim.Runner.quiescent = r.Sim.Runner.quiescent)

(* The paper's schemes with their oracles' advice. *)
let paper_schemes =
  [
    ("wakeup", Wakeup.oracle (), Sim.Scheme.check_wakeup (Wakeup.scheme ()));
    ("broadcast", Broadcast.oracle (), Broadcast.scheme ());
  ]

(* Two legs.  Through the public [Oracle_core] entry points with a
   collector attached (delegated to [Runner.run]): trace bytes, stats,
   informed and load must not move with the shard count.  And the
   parallel engine itself, with no sinks: the paper's schemes on real
   oracle advice must reproduce [Runner.run] field by field. *)
let test_protocol_grid () =
  List.iter
    (fun (fam, build) ->
      let g = build () in
      List.iter
        (fun sched ->
          List.iter
            (fun (proto, run) ->
              let reference = ref None in
              List.iter
                (fun shards ->
                  let collect, collected = Obs.Sink.collect () in
                  let stats, informed, load = run ~sinks:[ collect ] ~sched ~shards g in
                  let trace = jsonl (collected ()) in
                  match !reference with
                  | None -> reference := Some (trace, stats, informed, load)
                  | Some (t0, s0, i0, l0) ->
                    let name =
                      Printf.sprintf "%s/%s/%s/shards=%d" proto fam (Sim.Scheduler.name sched)
                        shards
                    in
                    check_string (name ^ ": trace bytes") t0 trace;
                    check_bool (name ^ ": stats") true (s0 = stats);
                    check_bool (name ^ ": informed") true (i0 = informed);
                    check_bool (name ^ ": per-node load") true (l0 = load))
                shard_counts)
            [
              ( "wakeup",
                fun ~sinks ~sched ~shards g ->
                  let o = Wakeup.run ~scheduler:sched ~sinks ~shards g ~source:0 in
                  let r = o.Wakeup.result in
                  (r.Sim.Runner.stats, r.Sim.Runner.informed, r.Sim.Runner.per_node_sent) );
              ( "broadcast",
                fun ~sinks ~sched ~shards g ->
                  let o = Broadcast.run ~scheduler:sched ~sinks ~shards g ~source:0 in
                  let r = o.Broadcast.result in
                  (r.Sim.Runner.stats, r.Sim.Runner.informed, r.Sim.Runner.per_node_sent) );
            ])
        [ Sim.Scheduler.Synchronous; Sim.Scheduler.Async_fifo ];
      (* Uncut, and cut off at n/2 sends: a cut run can leave a partly
         informed network, where the informed flag each message carries
         decides who counts as informed. *)
      let n = Graph.n g in
      List.iter
        (fun (proto, oracle, factory) ->
          let advice = Oracles.Advice.get (oracle.Oracles.Oracle.advise g ~source:0) in
          let seq =
            Sim.Runner.run ~scheduler:Sim.Scheduler.Synchronous ~advice g ~source:0 factory
          in
          let cut =
            Sim.Runner.run ~scheduler:Sim.Scheduler.Synchronous ~max_messages:(n / 2) ~advice g
              ~source:0 factory
          in
          let name = proto ^ "/" ^ fam in
          check_bool (name ^ ": reference informs everyone") true seq.Sim.Runner.all_informed;
          check_bool (name ^ ": reference cut off") false cut.Sim.Runner.quiescent;
          List.iter
            (fun shards ->
              let run ?max_messages () =
                Sim.Shard.run ~scheduler:Sim.Scheduler.Synchronous ?max_messages ~sinks:[] ~shards
                  ~min_parallel_batch:1 ~advice g ~source:0 factory
              in
              let name = Printf.sprintf "%s/sinks=[]/shards=%d" name shards in
              check_same name seq (run ());
              check_same (name ^ " cutoff") cut (run ~max_messages:(n / 2) ()))
            shard_counts)
        paper_schemes)
    families

(* The engine driven directly with [min_parallel_batch:1], so every
   round of every run crosses the domain barriers, however small the
   batch.  The untraced run is the parallel engine; the traced one
   delegates, and its event stream must match [Runner.run]'s event for
   event, sequence numbers included. *)
let test_forced_parallel_phases () =
  List.iter
    (fun (fam, build) ->
      let g = build () in
      let advice _ = Bitstring.Bitbuf.create () in
      let collect, collected = Obs.Sink.collect () in
      let seq =
        Sim.Runner.run ~scheduler:Sim.Scheduler.Synchronous ~sinks:[ collect ] ~advice g
          ~source:0 Sim.Scheme.flooding
      in
      let seq_trace = jsonl (collected ()) in
      List.iter
        (fun shards ->
          let name = Printf.sprintf "%s/shards=%d" fam shards in
          let fast =
            Sim.Shard.run ~scheduler:Sim.Scheduler.Synchronous ~shards ~min_parallel_batch:1
              ~advice g ~source:0 Sim.Scheme.flooding
          in
          check_same (name ^ " fast") seq fast;
          let collect, collected = Obs.Sink.collect () in
          let traced =
            Sim.Shard.run ~scheduler:Sim.Scheduler.Synchronous ~shards ~min_parallel_batch:1
              ~sinks:[ collect ] ~advice g ~source:0 Sim.Scheme.flooding
          in
          check_string (name ^ " traced: event bytes") seq_trace (jsonl (collected ()));
          check_bool (name ^ " traced: stats") true
            (traced.Sim.Runner.stats = seq.Sim.Runner.stats))
        shard_counts)
    families

(* Shards composed with fault plans delegate to [Runner.run]: the event
   stream — faults, recoveries, deliveries — is byte-identical at any
   shard count, across plans that exercise each fault channel and the
   retransmit machinery. *)
let test_fault_grid () =
  let g =
    Netgraph.Gen.random_connected ~n:900 ~p:(4.0 /. 900.0) (Random.State.make [| 900 |])
  in
  let advice _ = Bitstring.Bitbuf.create () in
  List.iter
    (fun (spec, retry) ->
      let faults = Sim.Fault_plan.of_string_exn spec in
      let reference = ref None in
      List.iter
        (fun shards ->
          let collect, collected = Obs.Sink.collect () in
          let r =
            Sim.Shard.run ~scheduler:Sim.Scheduler.Synchronous ~shards ~min_parallel_batch:1
              ~sinks:[ collect ] ~faults ~retry ~advice g ~source:0 Sim.Scheme.flooding
          in
          let trace = jsonl (collected ()) in
          match !reference with
          | None -> reference := Some (trace, r)
          | Some (t0, r0) ->
            let name = Printf.sprintf "%s/retry=%d/shards=%d" spec retry shards in
            check_string (name ^ ": event bytes") t0 trace;
            check_bool (name ^ ": stats") true (r0.Sim.Runner.stats = r.Sim.Runner.stats);
            check_bool (name ^ ": informed") true (r0.Sim.Runner.informed = r.Sim.Runner.informed))
        shard_counts)
    [
      ("drop=0.1,seed=5", 3);
      ("delay=0.3:7,seed=9", 0);
      ("dup=0.05,reorder=3,seed=11", 0);
      ("drop=0.15,delay=0.2:5,crash=7@40,seed=13", 2);
      ("dead=3,dead=5,dead=11,seed=17", 1);
    ]

(* Random draws: any family, ports permuted at random, a random source,
   every round forced across the barriers at each shard count.  Fixed
   seed, so a failure replays. *)
let qcheck_random_draws =
  let families = Array.of_list Netgraph.Families.all in
  let no_advice _ = Bitstring.Bitbuf.create () in
  let oracle_advice o g ~source = Oracles.Advice.get (o.Oracles.Oracle.advise g ~source) in
  let schemes =
    [|
      (fun _ ~source:_ -> (no_advice, Sim.Scheme.flooding));
      (fun g ~source ->
        ( oracle_advice (Wakeup.oracle ()) g ~source,
          Sim.Scheme.check_wakeup (Wakeup.scheme ()) ));
      (fun g ~source -> (oracle_advice (Broadcast.oracle ()) g ~source, Broadcast.scheme ()));
    |]
  in
  QCheck.Test.make ~name:"shard = runner on random family draws" ~count:40
    QCheck.(
      quad
        (int_range 0 (Array.length families - 1))
        (int_range 2 160) (int_range 0 9999)
        (int_range 0 (Array.length schemes - 1)))
    (fun (fam, n, seed, scheme) ->
      let g = Netgraph.Families.build families.(fam) ~n ~seed in
      let g = Netgraph.Transform.permute_ports g (Random.State.make [| seed |]) in
      let source = seed mod Graph.n g in
      let advice, factory = schemes.(scheme) g ~source in
      let sync = Sim.Scheduler.Synchronous in
      let r0 = Sim.Runner.run ~scheduler:sync ~advice g ~source factory in
      List.for_all
        (fun shards ->
          let r =
            Sim.Shard.run ~scheduler:sync ~shards ~min_parallel_batch:1 ~advice g ~source factory
          in
          r.Sim.Runner.stats = r0.Sim.Runner.stats
          && r.Sim.Runner.informed = r0.Sim.Runner.informed
          && r.Sim.Runner.all_informed = r0.Sim.Runner.all_informed
          && r.Sim.Runner.quiescent = r0.Sim.Runner.quiescent
          && r.Sim.Runner.per_node_sent = r0.Sim.Runner.per_node_sent)
        [ 2; 3; 7 ])

(* Input validation. *)
let test_validation () =
  let g = Netgraph.Gen.path 8 in
  let advice _ = Bitstring.Bitbuf.create () in
  Alcotest.check_raises "shards=0 rejected" (Invalid_argument "Shard.run: shards must be >= 1")
    (fun () ->
      ignore (Sim.Shard.run ~shards:0 ~advice g ~source:0 Sim.Scheme.flooding));
  Alcotest.check_raises "min_parallel_batch=0 rejected"
    (Invalid_argument "Shard.run: min_parallel_batch must be >= 1") (fun () ->
      ignore
        (Sim.Shard.run ~shards:2 ~min_parallel_batch:0 ~advice g ~source:0 Sim.Scheme.flooding))

(* {1 Failures}

   A run in which several nodes raise re-raises the failure that comes
   first in [Runner.run]'s visiting order, whichever shards hold them:
   node order at start-up, batch order when a round delivers and emits,
   and destination block, then batch order, when an untraced round on
   more than 4096 nodes delivers.  Every leg forces the parallel phases
   with [min_parallel_batch:1] and runs at shards 2, 3 and 7. *)

let sync = Sim.Scheduler.Synchronous
let no_advice _ = Bitstring.Bitbuf.create ()

(* Flooding, except that the nodes labelled [l] with [chatty l] also
   send a [Hello] on port [port] at start-up. *)
let chatty_flooding ~chatty ~port (static : Sim.History.static) =
  let node = Sim.Scheme.flooding static in
  if not (chatty static.Sim.History.id) then node
  else
    { node with Sim.Scheme.on_start = (fun () -> (Sim.Message.Hello, port) :: node.on_start ()) }

(* The non-source nodes labelled 116, 153, 190, ... transmit
   spontaneously.  A path labels node [v] with [v + 1], so on 500 nodes
   they sit in every shard but the first at shards 7, and in both
   shards at shards 2. *)
let spontaneous =
  Sim.Scheme.check_wakeup (chatty_flooding ~chatty:(fun l -> l > 100 && l mod 37 = 5) ~port:0)

(* Flooding, except that the nodes labelled in [failing] raise
   [Failure "label l"] on every delivery. *)
let failing_flooding failing (static : Sim.History.static) =
  let node = Sim.Scheme.flooding static in
  let l = static.Sim.History.id in
  if not (List.mem l failing) then node
  else
    { node with Sim.Scheme.on_receive = (fun _ ~port:_ -> failwith (Printf.sprintf "label %d" l)) }

let raised f = match f () with _ -> None | exception e -> Some e

let test_failure_order () =
  let expect name g factory ~pinned =
    let reference =
      raised (fun () -> Sim.Runner.run ~scheduler:sync ~advice:no_advice g ~source:0 factory)
    in
    Alcotest.(check (option string))
      (name ^ ": runner raises the first failure")
      (Some (Printexc.to_string pinned))
      (Option.map Printexc.to_string reference);
    List.iter
      (fun shards ->
        Alcotest.check_raises
          (Printf.sprintf "%s: shards=%d" name shards)
          pinned
          (fun () ->
            ignore
              (Sim.Shard.run ~scheduler:sync ~shards ~min_parallel_batch:1 ~advice:no_advice g
                 ~source:0 factory)))
      [ 2; 3; 7 ]
  in
  let path = Netgraph.Gen.path 500 in
  expect "spontaneous start-up" path spontaneous
    ~pinned:(Failure "wakeup violation: non-source node 116 transmits spontaneously");
  (* Node 299 (label 300) sits in shard 4 at shards 7, shard 1 at 2. *)
  expect "out-of-range port" path
    (chatty_flooding ~chatty:(fun l -> l = 300) ~port:5)
    ~pinned:(Invalid_argument "Runner: node 299 (degree 2) sends on port 5");
  (* Two nodes fail on one round's deliveries.  On 20 nodes every engine
     visits a round in batch order: the runner raises label 4's
     failure, whose delivery is ahead of label 2's, though label 2's
     node sits in a lower shard at shards 7. *)
  let complete =
    Netgraph.Transform.permute_ports (Netgraph.Gen.complete 20) (Random.State.make [| 3 |])
  in
  expect "complete, labels 2 and 4" complete (failing_flooding [ 2; 4 ]) ~pinned:(Failure "label 4");
  (* A star on 8200 nodes: its first round delivers 8199 messages, so
     an untraced run visits them by 4096-node destination block.
     Leaves [b] and [c] (block 1) get their messages before and after
     leaf [a] (block 0), yet the runner raises [a]'s failure.  All
     three sit in one shard at shards 2, 3 and 7 ([3516, 4687] at 7),
     so that shard must keep the failure its slot-order scan meets
     second, not its first or its last. *)
  let star = Netgraph.Transform.permute_ports (Netgraph.Gen.star 8200) (Random.State.make [| 5 |]) in
  let port v = Option.get (Graph.port_to star 0 v) in
  let by_port = List.sort (fun u v -> compare (port u) (port v)) [ 4096; 4097; 4098; 4099 ] in
  let b = List.hd by_port and c = List.nth by_port 3 in
  let a = List.find (fun v -> port b < port v && port v < port c) (List.init 580 (( + ) 3516)) in
  let label v = Graph.label star v in
  expect "star, two blocks" star
    (failing_flooding [ label a; label b; label c ])
    ~pinned:(Failure (Printf.sprintf "label %d" (label a)))

(* Each failing run spawns six worker domains and must join them
   before it raises: 30 in a row spawn 180, past OCaml's limit of 128
   live domains, so a leak fails here.  A clean run afterwards must
   still match [Runner.run]. *)
let test_failure_teardown () =
  let g = Netgraph.Gen.path 500 in
  let shard_run factory =
    Sim.Shard.run ~scheduler:sync ~shards:7 ~min_parallel_batch:1 ~advice:no_advice g ~source:0
      factory
  in
  for i = 1 to 30 do
    Alcotest.check_raises
      (Printf.sprintf "failing run %d" i)
      (Failure "wakeup violation: non-source node 116 transmits spontaneously")
      (fun () -> ignore (shard_run spontaneous))
  done;
  check_same "clean run after 30 failures"
    (Sim.Runner.run ~scheduler:sync ~advice:no_advice g ~source:0 Sim.Scheme.flooding)
    (shard_run Sim.Scheme.flooding)

let suite =
  [
    Alcotest.test_case "protocol grid: shards 1/2/7 byte-identical" `Slow test_protocol_grid;
    Alcotest.test_case "forced parallel phases bit-identical" `Slow test_forced_parallel_phases;
    Alcotest.test_case "fault plans x shards byte-identical" `Slow test_fault_grid;
    Alcotest.test_case "shard count validation" `Quick test_validation;
    Alcotest.test_case "failures raise what the runner raises" `Quick test_failure_order;
    Alcotest.test_case "failing runs join their domains" `Quick test_failure_teardown;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20 |]) qcheck_random_draws;
  ]
