let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let no_advice _v = Bitstring.Bitbuf.create ()

(* {1 Message} *)

let test_message_sizes () =
  check_int "source" 1 (Sim.Message.size_bits Sim.Message.Source);
  check_int "hello" 1 (Sim.Message.size_bits Sim.Message.Hello);
  check_int "control" 5
    (Sim.Message.size_bits (Sim.Message.Control (Bitstring.Bitbuf.of_string "10110")));
  check_int "empty control still 1" 1
    (Sim.Message.size_bits (Sim.Message.Control (Bitstring.Bitbuf.create ())))

let test_message_equal () =
  check_bool "source" true (Sim.Message.equal Sim.Message.Source Sim.Message.Source);
  check_bool "mixed" false (Sim.Message.equal Sim.Message.Source Sim.Message.Hello);
  check_bool "controls" true
    (Sim.Message.equal
       (Sim.Message.Control (Bitstring.Bitbuf.of_string "11"))
       (Sim.Message.Control (Bitstring.Bitbuf.of_string "11")));
  check_bool "is_source" true (Sim.Message.is_source Sim.Message.Source);
  check_bool "hello is not source" false (Sim.Message.is_source Sim.Message.Hello)

(* {1 History} *)

let test_history () =
  let static =
    { Sim.History.advice = Bitstring.Bitbuf.create (); is_source = false; id = 3; degree = 2 }
  in
  let h = Sim.History.initial static in
  check_int "empty" 0 (Sim.History.received_count h);
  let h = Sim.History.receive h Sim.Message.Hello ~port:1 in
  let h = Sim.History.receive h Sim.Message.Source ~port:0 in
  check_int "two" 2 (Sim.History.received_count h);
  (* Oldest first. *)
  match h.Sim.History.received with
  | [ (m1, p1); (m2, p2) ] ->
    check_bool "first hello" true (Sim.Message.equal m1 Sim.Message.Hello);
    check_int "port 1" 1 p1;
    check_bool "then source" true (Sim.Message.equal m2 Sim.Message.Source);
    check_int "port 0" 0 p2
  | _ -> Alcotest.fail "wrong history shape"

(* {1 Scheme adapters} *)

let test_of_pure_sees_growing_history () =
  (* A pure scheme that answers once per received message, echoing the
     count of messages so far on port 0. *)
  let lengths = ref [] in
  let pure h =
    lengths := Sim.History.received_count h :: !lengths;
    []
  in
  let node =
    Sim.Scheme.of_pure pure
      { Sim.History.advice = Bitstring.Bitbuf.create (); is_source = true; id = 1; degree = 1 }
  in
  ignore (node.Sim.Scheme.on_start ());
  ignore (node.Sim.Scheme.on_receive Sim.Message.Hello ~port:0);
  ignore (node.Sim.Scheme.on_receive Sim.Message.Hello ~port:0);
  Alcotest.(check (list int)) "histories grow" [ 2; 1; 0 ] !lengths

let test_check_wakeup_catches_violation () =
  let chatty _static =
    {
      Sim.Scheme.on_start = (fun () -> [ (Sim.Message.Hello, 0) ]);
      on_receive = (fun _ ~port:_ -> []);
    }
  in
  let static =
    { Sim.History.advice = Bitstring.Bitbuf.create (); is_source = false; id = 2; degree = 1 }
  in
  let node = Sim.Scheme.check_wakeup chatty static in
  (match node.Sim.Scheme.on_start () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected wakeup violation");
  (* The source is allowed to talk. *)
  let node_src =
    Sim.Scheme.check_wakeup chatty { static with Sim.History.is_source = true }
  in
  check_int "source may send" 1 (List.length (node_src.Sim.Scheme.on_start ()))

(* {1 Flooding} *)

let test_flooding_path () =
  let g = Netgraph.Gen.path 5 in
  let r = Sim.Runner.run ~advice:no_advice g ~source:0 Sim.Scheme.flooding in
  check_bool "informed" true r.Sim.Runner.all_informed;
  check_int "one message per edge" 4 r.Sim.Runner.stats.Obs.Counting.sent

let test_flooding_cycle_message_range () =
  let g = Netgraph.Gen.cycle 8 in
  let r = Sim.Runner.run ~advice:no_advice g ~source:0 Sim.Scheme.flooding in
  check_bool "informed" true r.Sim.Runner.all_informed;
  let m = Netgraph.Graph.m g in
  let sent = r.Sim.Runner.stats.Obs.Counting.sent in
  check_bool "between m and 2m" true (sent >= m && sent <= 2 * m)

let test_flooding_all_schedulers () =
  let g = Netgraph.Gen.grid ~rows:4 ~cols:4 in
  List.iter
    (fun sched ->
      let r = Sim.Runner.run ~scheduler:sched ~advice:no_advice g ~source:5 Sim.Scheme.flooding in
      check_bool (Sim.Scheduler.name sched) true r.Sim.Runner.all_informed)
    Sim.Scheduler.default_suite

(* {1 Runner semantics} *)

let test_sync_rounds_equal_eccentricity () =
  (* Under the synchronous scheduler flooding reaches distance d in round
     d; the number of rounds with any delivery is the source's
     eccentricity (+1 for the final silent flush round of far leaves). *)
  let g = Netgraph.Gen.path 6 in
  let r =
    Sim.Runner.run ~scheduler:Sim.Scheduler.Synchronous ~advice:no_advice g ~source:0
      Sim.Scheme.flooding
  in
  check_bool "informed" true r.Sim.Runner.all_informed;
  check_int "rounds = eccentricity" 5 r.Sim.Runner.stats.Obs.Counting.rounds

let test_max_messages_cutoff () =
  (* A ping-pong scheme that never stops. *)
  let ping _static =
    {
      Sim.Scheme.on_start = (fun () -> [ (Sim.Message.Hello, 0) ]);
      on_receive = (fun _ ~port -> [ (Sim.Message.Hello, port) ]);
    }
  in
  let g = Netgraph.Gen.path 2 in
  let r = Sim.Runner.run ~max_messages:50 ~advice:no_advice g ~source:0 ping in
  check_bool "cutoff hit" false r.Sim.Runner.quiescent;
  check_bool "sent around the cutoff" true (r.Sim.Runner.stats.Obs.Counting.sent >= 50)

let test_informed_requires_informed_sender () =
  (* Node 1 (not the source) spontaneously pings node 2; node 2 must NOT
     become informed by that message. *)
  let g = Netgraph.Gen.path 3 in
  let factory static =
    if static.Sim.History.id = 2 then
      {
        (* node index 1 has label 2; its port 1 leads to node 2 *)
        Sim.Scheme.on_start = (fun () -> [ (Sim.Message.Hello, 1) ]);
        on_receive = (fun _ ~port:_ -> []);
      }
    else { Sim.Scheme.on_start = (fun () -> []); on_receive = (fun _ ~port:_ -> []) }
  in
  let r = Sim.Runner.run ~advice:no_advice g ~source:0 factory in
  check_bool "source informed" true r.Sim.Runner.informed.(0);
  check_bool "bystander not informed" false r.Sim.Runner.informed.(2)

let test_informed_spreads_through_relay () =
  (* The source pings node 1, which relays; node 2 must become informed
     because node 1 was informed when it relayed. *)
  let g = Netgraph.Gen.path 3 in
  let factory static =
    if static.Sim.History.is_source then
      {
        Sim.Scheme.on_start = (fun () -> [ (Sim.Message.Hello, 0) ]);
        on_receive = (fun _ ~port:_ -> []);
      }
    else
      {
        Sim.Scheme.on_start = (fun () -> []);
        on_receive =
          (fun _ ~port ->
            if static.Sim.History.degree > 1 then [ (Sim.Message.Hello, 1 - port) ] else []);
      }
  in
  let r = Sim.Runner.run ~advice:no_advice g ~source:0 factory in
  check_bool "relay informed" true r.Sim.Runner.informed.(1);
  check_bool "end informed" true r.Sim.Runner.informed.(2)

let test_out_of_range_port_rejected () =
  let bad _static =
    { Sim.Scheme.on_start = (fun () -> [ (Sim.Message.Hello, 7) ]); on_receive = (fun _ ~port:_ -> []) }
  in
  let g = Netgraph.Gen.path 2 in
  match Sim.Runner.run ~advice:no_advice g ~source:0 bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected port range error"

let test_trace_recording () =
  let g = Netgraph.Gen.path 4 in
  let collect, collected = Obs.Sink.collect () in
  let r = Sim.Runner.run ~sinks:[ collect ] ~advice:no_advice g ~source:0 Sim.Scheme.flooding in
  let deliveries =
    List.filter_map
      (function
        | { Obs.Event.seq; kind = Obs.Event.Deliver l; _ } -> Some (seq, l) | _ -> None)
      (collected ())
  in
  check_int "deliveries = sent" r.Sim.Runner.stats.Obs.Counting.sent (List.length deliveries);
  (* Sequence numbers are unique. *)
  let seqs = List.map fst deliveries in
  check_int "unique seqs" (List.length seqs) (List.length (List.sort_uniq compare seqs));
  (* Every delivery is a real edge. *)
  List.iter
    (fun (_, l) ->
      check_bool "edge exists" true (Netgraph.Graph.has_edge g l.Obs.Event.src l.Obs.Event.dst))
    deliveries

let test_message_type_counters () =
  let g = Netgraph.Gen.path 3 in
  let r = Sim.Runner.run ~advice:no_advice g ~source:0 Sim.Scheme.flooding in
  check_int "all source messages" r.Sim.Runner.stats.Obs.Counting.sent
    r.Sim.Runner.stats.Obs.Counting.source_sent;
  check_int "no hellos" 0 r.Sim.Runner.stats.Obs.Counting.hello_sent;
  check_int "bits = messages (1-bit each)" r.Sim.Runner.stats.Obs.Counting.sent
    r.Sim.Runner.stats.Obs.Counting.bits_on_wire

let test_silent_network_check () =
  let g = Netgraph.Gen.path 3 in
  check_bool "flooding is a wakeup scheme" true
    (Sim.Runner.run_silent_network_check ~advice:no_advice g ~source:0 Sim.Scheme.flooding);
  let chatty _static =
    { Sim.Scheme.on_start = (fun () -> [ (Sim.Message.Hello, 0) ]); on_receive = (fun _ ~port:_ -> []) }
  in
  check_bool "chatty is not" false
    (Sim.Runner.run_silent_network_check ~advice:no_advice g ~source:0 chatty)

let test_scheduler_names () =
  Alcotest.(check string) "sync" "sync" (Sim.Scheduler.name Sim.Scheduler.Synchronous);
  Alcotest.(check string) "fifo" "async-fifo" (Sim.Scheduler.name Sim.Scheduler.Async_fifo);
  Alcotest.(check string) "lifo" "async-lifo" (Sim.Scheduler.name Sim.Scheduler.Async_lifo);
  Alcotest.(check string)
    "random" "async-random(3)"
    (Sim.Scheduler.name (Sim.Scheduler.Async_random 3))

(* {1 Metrics} *)

let test_metrics_loglog () =
  let xs = [ 2.0; 4.0; 8.0; 16.0 ] in
  let ys = List.map (fun x -> 3.0 *. (x ** 1.5)) xs in
  Alcotest.(check (float 1e-6)) "exponent" 1.5 (Sim.Metrics.loglog_slope ~xs ~ys)

let test_metrics_errors () =
  (match Sim.Metrics.loglog_slope ~xs:[] ~ys:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty input");
  match Sim.Metrics.loglog_slope ~xs:[ 1.0; -2.0 ] ~ys:[ 1.0; 2.0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative data"

let suite =
  [
    Alcotest.test_case "message sizes" `Quick test_message_sizes;
    Alcotest.test_case "message equality" `Quick test_message_equal;
    Alcotest.test_case "history" `Quick test_history;
    Alcotest.test_case "of_pure sees growing history" `Quick test_of_pure_sees_growing_history;
    Alcotest.test_case "check_wakeup" `Quick test_check_wakeup_catches_violation;
    Alcotest.test_case "flooding on a path" `Quick test_flooding_path;
    Alcotest.test_case "flooding on a cycle" `Quick test_flooding_cycle_message_range;
    Alcotest.test_case "flooding under all schedulers" `Quick test_flooding_all_schedulers;
    Alcotest.test_case "synchronous rounds" `Quick test_sync_rounds_equal_eccentricity;
    Alcotest.test_case "max_messages cutoff" `Quick test_max_messages_cutoff;
    Alcotest.test_case "informed needs informed sender" `Quick
      test_informed_requires_informed_sender;
    Alcotest.test_case "informed spreads through relays" `Quick
      test_informed_spreads_through_relay;
    Alcotest.test_case "out-of-range port rejected" `Quick test_out_of_range_port_rejected;
    Alcotest.test_case "trace recording" `Quick test_trace_recording;
    Alcotest.test_case "message type counters" `Quick test_message_type_counters;
    Alcotest.test_case "silent network check" `Quick test_silent_network_check;
    Alcotest.test_case "scheduler names" `Quick test_scheduler_names;
    Alcotest.test_case "metrics: log-log slope" `Quick test_metrics_loglog;
    Alcotest.test_case "metrics: errors" `Quick test_metrics_errors;
  ]

let test_causal_depth_sync_equals_rounds () =
  let g = Netgraph.Gen.path 7 in
  let r =
    Sim.Runner.run ~scheduler:Sim.Scheduler.Synchronous ~advice:no_advice g ~source:0
      Sim.Scheme.flooding
  in
  check_int "depth = rounds" r.Sim.Runner.stats.Obs.Counting.rounds
    r.Sim.Runner.stats.Obs.Counting.causal_depth

let test_causal_depth_async_invariant () =
  (* Information needs at least eccentricity-many causal hops whatever the
     delivery order (plus bounded-by-chain-length slack for the wasted
     final forwards). *)
  let g = Netgraph.Gen.grid ~rows:4 ~cols:4 in
  let ecc = Netgraph.Traverse.eccentricity g 0 in
  List.iter
    (fun sched ->
      let r = Sim.Runner.run ~scheduler:sched ~advice:no_advice g ~source:0 Sim.Scheme.flooding in
      let depth = r.Sim.Runner.stats.Obs.Counting.causal_depth in
      check_bool
        (Printf.sprintf "%s: %d >= ecc %d" (Sim.Scheduler.name sched) depth ecc)
        true (depth >= ecc);
      check_bool
        (Printf.sprintf "%s: %d bounded by n" (Sim.Scheduler.name sched) depth)
        true
        (depth <= Netgraph.Graph.n g))
    Sim.Scheduler.default_suite

let suite =
  suite
  @ [
      Alcotest.test_case "causal depth under sync" `Quick test_causal_depth_sync_equals_rounds;
      Alcotest.test_case "causal depth is schedule-independent for flooding" `Quick
        test_causal_depth_async_invariant;
    ]

let drop p seed = { Sim.Fault_plan.none with drop = p; seed }

let test_lossy_delivery () =
  (* Wakeup-style single-path dissemination dies under loss; redundant
     flooding survives mild loss.  Deterministic in the plan's seed. *)
  let g = Netgraph.Gen.complete 24 in
  let lossy =
    Sim.Runner.run ~faults:(drop 0.2 7) ~advice:no_advice g ~source:0 Sim.Scheme.flooding
  in
  check_bool "flooding survives 20% loss on K_24" true lossy.Sim.Runner.all_informed;
  (* Sent counts transmissions, including lost ones. *)
  check_bool "sent counted" true (lossy.Sim.Runner.stats.Obs.Counting.sent > 0);
  let path = Netgraph.Gen.path 40 in
  let fragile =
    Sim.Runner.run ~faults:(drop 0.3 7) ~advice:no_advice path ~source:0 Sim.Scheme.flooding
  in
  check_bool "a 40-hop chain at 30% loss breaks" false fragile.Sim.Runner.all_informed

let test_loss_zero_is_reliable () =
  let g = Netgraph.Gen.grid ~rows:4 ~cols:4 in
  let a = Sim.Runner.run ~advice:no_advice g ~source:0 Sim.Scheme.flooding in
  let b = Sim.Runner.run ~faults:(drop 0.0 1) ~advice:no_advice g ~source:0 Sim.Scheme.flooding in
  check_int "same messages" a.Sim.Runner.stats.Obs.Counting.sent b.Sim.Runner.stats.Obs.Counting.sent;
  check_bool "both informed" true (a.Sim.Runner.all_informed && b.Sim.Runner.all_informed)

let suite =
  suite
  @ [
      Alcotest.test_case "lossy delivery" `Quick test_lossy_delivery;
      Alcotest.test_case "zero loss is reliable" `Quick test_loss_zero_is_reliable;
    ]

let test_per_node_load () =
  let g = Netgraph.Gen.star 8 in
  let r = Sim.Runner.run ~advice:no_advice g ~source:0 Sim.Scheme.flooding in
  check_int "total is the sum" r.Sim.Runner.stats.Obs.Counting.sent
    (Array.fold_left ( + ) 0 r.Sim.Runner.per_node_sent);
  check_int "the hub carries everything" 7 r.Sim.Runner.per_node_sent.(0);
  for v = 1 to 7 do
    check_int (Printf.sprintf "leaf %d silent" v) 0 r.Sim.Runner.per_node_sent.(v)
  done

let suite = suite @ [ Alcotest.test_case "per-node load" `Quick test_per_node_load ]

let test_check_wakeup_through_runner () =
  (* The checker must also fire on the full execution path, not just on a
     hand-driven node: a scheme whose non-source nodes speak spontaneously
     aborts the run. *)
  let chatty _static =
    { Sim.Scheme.on_start = (fun () -> [ (Sim.Message.Hello, 0) ]); on_receive = (fun _ ~port:_ -> []) }
  in
  let g = Netgraph.Gen.path 3 in
  (match Sim.Runner.run ~advice:no_advice g ~source:0 (Sim.Scheme.check_wakeup chatty) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected a wakeup violation from the full run");
  (* flooding only ever replies to a received message: the checked run
     completes untouched *)
  let r = Sim.Runner.run ~advice:no_advice g ~source:0 (Sim.Scheme.check_wakeup Sim.Scheme.flooding) in
  check_bool "checked flooding still informs" true r.Sim.Runner.all_informed;
  check_int "checked flooding unchanged" 2 r.Sim.Runner.stats.Obs.Counting.sent

let test_metrics_more_errors () =
  (match Sim.Metrics.loglog_slope ~xs:[ 1.0; 2.0 ] ~ys:[ 1.0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch accepted");
  (* the growth exponent needs two distinct positive abscissae *)
  (match Sim.Metrics.loglog_slope ~xs:[ 4.0 ] ~ys:[ 8.0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single point fitted");
  match Sim.Metrics.loglog_slope ~xs:[ 2.0; 2.0 ] ~ys:[ 1.0; 2.0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "coincident xs fitted"

let suite =
  suite
  @ [
      Alcotest.test_case "check_wakeup through the runner" `Quick test_check_wakeup_through_runner;
      Alcotest.test_case "metrics: more errors" `Quick test_metrics_more_errors;
    ]
