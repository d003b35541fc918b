(* The telemetry layer: event codecs, sinks, the counting contract
   against the live runner, and offline replay. *)

open Oracle_core
module Graph = Netgraph.Graph
module Families = Netgraph.Families
module Event = Obs.Event

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let link =
  {
    Event.src = 3;
    src_port = 1;
    dst = 7;
    dst_port = 0;
    cls = Event.Source;
    bits = 12;
    informed = true;
    depth = 4;
  }

let sample_events =
  [
    { Event.seq = 0; round = 0; kind = Event.Advice_read (0, 33) };
    { Event.seq = 0; round = 0; kind = Event.Wake 0 };
    { Event.seq = 1; round = 0; kind = Event.Send link };
    { Event.seq = 1; round = 1; kind = Event.Deliver link };
    { Event.seq = 1; round = 1; kind = Event.Wake 7 };
    {
      Event.seq = 2;
      round = 1;
      kind = Event.Send { link with Event.cls = Event.Hello; informed = false };
    };
    { Event.seq = 3; round = 2; kind = Event.Send { link with Event.cls = Event.Control; bits = 1 } };
    { Event.seq = 3; round = 2; kind = Event.Decide (7, "leader") };
  ]

(* {1 JSONL codec} *)

let test_jsonl_roundtrip () =
  List.iter
    (fun ev ->
      let line = Obs.Jsonl.encode ev in
      let back = Obs.Jsonl.decode_exn line in
      check_bool (Event.kind_name ev.Event.kind ^ " roundtrips") true (Event.equal ev back))
    sample_events

let test_jsonl_tolerates_key_order_and_spaces () =
  let line =
    "{ \"ev\" : \"send\", \"round\": 2, \"seq\": 9, \"dst\": 1, \"src\": 0, \"src_port\": 2,\n\
    \  \"dst_port\": 3, \"cls\": \"hello\", \"bits\": 5, \"informed\": false, \"depth\": 0 }"
  in
  let ev = Obs.Jsonl.decode_exn line in
  check_int "seq" 9 ev.Event.seq;
  check_int "round" 2 ev.Event.round;
  (match ev.Event.kind with
  | Event.Send l ->
    check_int "src" 0 l.Event.src;
    check_int "dst" 1 l.Event.dst;
    check_int "bits" 5 l.Event.bits;
    check_bool "informed" false l.Event.informed
  | _ -> Alcotest.fail "expected a send event")

let test_jsonl_rejects_malformed () =
  List.iter
    (fun line ->
      match Obs.Jsonl.decode line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed line %S" line)
    [
      "";
      "not json";
      "{\"seq\":1}";
      "{\"seq\":1,\"round\":0,\"ev\":\"warp\"}";
      "{\"seq\":1,\"round\":0,\"ev\":\"send\",\"src\":0}";
    ]

let test_jsonl_file_roundtrip () =
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Obs.Jsonl.file_sink path in
      List.iter (Obs.Sink.emit sink) sample_events;
      Obs.Sink.close sink;
      let back = Obs.Jsonl.read_file path in
      check_int "count" (List.length sample_events) (List.length back);
      List.iter2
        (fun a b -> check_bool "event" true (Event.equal a b))
        sample_events back)

(* {1 The counting contract against live runs} *)

let summary = Alcotest.testable Obs.Counting.pp ( = )
let stats_match name stats s = Alcotest.check summary (name ^ " stats") s stats

let test_counting_matches_wakeup_tree_family () =
  (* the Theorem 2.1 family: wakeup on random trees, every scheduler *)
  List.iter
    (fun sched ->
      let g = Families.build Families.Random_tree ~n:48 ~seed:7 in
      let counts = Obs.Counting.create () in
      let o = Wakeup.run ~scheduler:sched ~sinks:[ Obs.Counting.sink counts ] g ~source:0 in
      let s = Obs.Counting.summary counts in
      stats_match (Sim.Scheduler.name sched) o.Wakeup.result.Sim.Runner.stats s;
      check_int "n-1 messages" (Graph.n g - 1) s.Obs.Counting.sent;
      check_int "advice bits" o.Wakeup.advice_bits s.Obs.Counting.advice_bits;
      check_int "all woken" (Graph.n g) s.Obs.Counting.wakes)
    Sim.Scheduler.default_suite

let test_counting_matches_wakeup_hard_graph () =
  (* the Theorem 2.2 family: the subdivided-edge graph G_{n,S} *)
  let g, _ = Lower_bound.wakeup_hard_graph ~n:24 ~seed:11 in
  let counts = Obs.Counting.create () in
  let o = Wakeup.run ~sinks:[ Obs.Counting.sink counts ] g ~source:0 in
  let s = Obs.Counting.summary counts in
  stats_match "G_{n,S}" o.Wakeup.result.Sim.Runner.stats s;
  check_bool "all informed" true o.Wakeup.result.Sim.Runner.all_informed;
  check_int "n-1 messages" (Graph.n g - 1) s.Obs.Counting.sent

let test_counting_matches_broadcast_with_hellos () =
  (* Scheme B mixes source, hello and control traffic; the per-class
     split must agree with the legacy stats *)
  let g = Families.build Families.Dense_random ~n:40 ~seed:13 in
  let counts = Obs.Counting.create () in
  let o = Broadcast.run ~sinks:[ Obs.Counting.sink counts ] g ~source:0 in
  let s = Obs.Counting.summary counts in
  stats_match "scheme B" o.Broadcast.result.Sim.Runner.stats s;
  check_bool "hellos present" true (s.Obs.Counting.hello_sent > 0);
  check_int "classes partition sent"
    s.Obs.Counting.sent
    (s.Obs.Counting.source_sent + s.Obs.Counting.hello_sent + s.Obs.Counting.control_sent)

let test_of_events_equals_live_fold () =
  let g = Families.build Families.Grid ~n:36 ~seed:3 in
  let collect, collected = Obs.Sink.collect () in
  let counts = Obs.Counting.create () in
  let _ = Wakeup.run ~sinks:[ collect; Obs.Counting.sink counts ] g ~source:0 in
  let from_stream = Obs.Counting.of_events (collected ()) in
  check_bool "of_events = live fold" true (from_stream = Obs.Counting.summary counts)

(* {1 Ring buffer} *)

let test_ring_bounds_memory () =
  let ring = Obs.Ring.create ~capacity:8 in
  let g = Families.build Families.Sparse_random ~n:32 ~seed:5 in
  let _ = Wakeup.run ~sinks:[ Obs.Ring.sink ring ] g ~source:0 in
  check_int "length capped" 8 (Obs.Ring.length ring);
  check_bool "saw more than capacity" true (Obs.Ring.seen ring > 8);
  check_int "dropped" (Obs.Ring.seen ring - 8) (Obs.Ring.dropped ring);
  (* retained events are the newest, oldest first *)
  let seqs = List.map (fun e -> e.Event.seq) (Obs.Ring.contents ring) in
  check_bool "non-decreasing seqs" true (List.sort compare seqs = seqs);
  Obs.Ring.clear ring;
  check_int "cleared" 0 (Obs.Ring.length ring);
  check_int "seen reset" 0 (Obs.Ring.seen ring)

let test_ring_under_capacity () =
  let ring = Obs.Ring.create ~capacity:1000 in
  List.iter (Obs.Ring.push ring) sample_events;
  check_int "kept all" (List.length sample_events) (Obs.Ring.length ring);
  check_int "dropped none" 0 (Obs.Ring.dropped ring);
  List.iter2
    (fun a b -> check_bool "order preserved" true (Event.equal a b))
    sample_events (Obs.Ring.contents ring);
  Alcotest.check_raises "capacity 0 rejected" (Invalid_argument "Obs.Ring.create: capacity must be positive")
    (fun () -> ignore (Obs.Ring.create ~capacity:0))

(* {1 Offline replay} *)

let test_replay_matches_live_run () =
  let g = Families.build Families.Sparse_random ~n:40 ~seed:17 in
  let collect, collected = Obs.Sink.collect () in
  let o = Broadcast.run ~sinks:[ collect ] g ~source:0 in
  let r = Obs.Replay.replay ~n:(Graph.n g) (collected ()) in
  let live = o.Broadcast.result in
  check_bool "informed sets agree" true (r.Obs.Replay.informed = live.Sim.Runner.informed);
  check_bool "all_informed" live.Sim.Runner.all_informed r.Obs.Replay.all_informed;
  check_int "quiescent: nothing in flight" 0 r.Obs.Replay.in_flight;
  stats_match "replayed" live.Sim.Runner.stats r.Obs.Replay.summary

let test_replay_through_jsonl_artifact () =
  (* the full audit path: run -> JSONL file -> read back -> replay *)
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let g = Families.build Families.Random_tree ~n:32 ~seed:21 in
      let sink = Obs.Jsonl.file_sink path in
      let o = Wakeup.run ~sinks:[ sink ] g ~source:0 in
      Obs.Sink.close sink;
      let r = Obs.Replay.replay ~n:(Graph.n g) (Obs.Jsonl.read_file path) in
      check_bool "all informed offline" true r.Obs.Replay.all_informed;
      check_int "n-1 messages offline" (Graph.n g - 1) r.Obs.Replay.summary.Obs.Counting.sent;
      check_int "advice bits offline" o.Wakeup.advice_bits
        r.Obs.Replay.summary.Obs.Counting.advice_bits;
      check_int "nothing in flight" 0 r.Obs.Replay.in_flight)

let test_replay_decisions () =
  let g = Families.build Families.Cycle ~n:8 ~seed:1 in
  let collect, collected = Obs.Sink.collect () in
  let o = Election.with_marked_leader ~sinks:[ collect ] g in
  let r = Obs.Replay.replay ~n:8 (collected ()) in
  check_int "one decision per node" 8 (List.length r.Obs.Replay.decisions);
  let leaders = List.filter (fun (_, role) -> role = "leader") r.Obs.Replay.decisions in
  (match (leaders, o.Election.leader) with
  | [ (v, _) ], Some l -> check_int "leader agrees with live run" l v
  | _ -> Alcotest.fail "expected exactly one leader decision")

let test_replay_rejects_out_of_range () =
  Alcotest.check_raises "node out of range"
    (Invalid_argument "Obs.Replay.replay: node 7 outside 0..3") (fun () ->
      ignore (Obs.Replay.replay ~n:4 [ { Event.seq = 0; round = 0; kind = Event.Wake 7 } ]))

(* {1 Sink combinators} *)

let test_tee_and_filter () =
  let counts = Obs.Counting.create () in
  let collect, collected = Obs.Sink.collect () in
  let sends_only = Obs.Sink.filter (fun e -> match e.Event.kind with Event.Send _ -> true | _ -> false) collect in
  let tee = Obs.Sink.tee [ Obs.Counting.sink counts; sends_only ] in
  List.iter (Obs.Sink.emit tee) sample_events;
  Obs.Sink.close tee;
  let s = Obs.Counting.summary counts in
  check_int "tee fed the counter" (List.length sample_events)
    (s.Obs.Counting.sent + s.Obs.Counting.delivered + s.Obs.Counting.wakes
    + s.Obs.Counting.decides + 1 (* one advice event *));
  check_int "filter kept the sends" s.Obs.Counting.sent (List.length (collected ()));
  Obs.Sink.emit tee (List.hd sample_events);
  check_int "closed tee drops events" s.Obs.Counting.sent (List.length (collected ()))

(* {1 Fault telemetry}

   Kept out of [sample_events]: the counting checks above sum per-kind
   counters over that list and must not silently absorb fault events. *)

let fault_events =
  List.mapi
    (fun i f -> { Event.seq = i; round = i; kind = Event.Fault f })
    [
      Event.Msg_dropped;
      Event.Msg_duplicated;
      Event.Msg_delayed 3;
      Event.Msg_reordered 4;
      Event.Crashed 2;
      Event.Dead 5;
      Event.Advice_tampered (1, "trunc:1");
    ]

let test_fault_jsonl_roundtrip () =
  List.iter
    (fun ev ->
      let line = Obs.Jsonl.encode ev in
      let back = Obs.Jsonl.decode_exn line in
      check_bool (line ^ " roundtrips") true (Event.equal ev back))
    fault_events;
  let s = Obs.Counting.of_events fault_events in
  check_int "all counted as faults" (List.length fault_events) s.Obs.Counting.faults;
  check_int "one drop" 1 s.Obs.Counting.dropped;
  check_int "one duplicate" 1 s.Obs.Counting.duplicated

let test_fault_stream_determinism () =
  (* Identical plan + seed + scheduler must yield a bit-identical event
     stream, fault injections included. *)
  let g = Families.build Families.Sparse_random ~n:24 ~seed:19 in
  let plan = Fault.Plan.of_string_exn "drop=0.1,dup=0.1,delay=0.3:3,advice-flip=4,seed=29" in
  let stream scheduler =
    let o = Fault.Harness.run ~scheduler ~plan Fault.Harness.Broadcast g ~source:0 in
    o.Fault.Harness.events
  in
  List.iter
    (fun sched ->
      let a = stream sched and b = stream sched in
      check_int (Sim.Scheduler.name sched ^ " same length") (List.length a) (List.length b);
      List.iter2
        (fun x y ->
          check_bool (Sim.Scheduler.name sched ^ " bit-identical") true (Event.equal x y))
        a b)
    Sim.Scheduler.default_suite

let test_replay_matches_live_under_faults () =
  (* The audit path survives the adversary: replaying a faulty run's
     stream reproduces its counters and shows a drained network. *)
  let g = Families.build Families.Random_tree ~n:32 ~seed:23 in
  let plan = Fault.Plan.of_string_exn "drop=0.1,dup=0.15,advice-trunc=1,seed=31" in
  let o = Fault.Harness.run ~plan Fault.Harness.Broadcast g ~source:0 in
  let r = Obs.Replay.replay ~n:(Graph.n g) o.Fault.Harness.events in
  let live = o.Fault.Harness.result in
  check_int "sent agrees" live.Sim.Runner.stats.Obs.Counting.sent r.Obs.Replay.summary.Obs.Counting.sent;
  (* the stream also carries the pre-run tampering the runner never saw *)
  check_int "faults agree"
    (live.Sim.Runner.stats.Obs.Counting.faults + List.length o.Fault.Harness.tampered)
    r.Obs.Replay.summary.Obs.Counting.faults;
  check_bool "informed sets agree" true (r.Obs.Replay.informed = live.Sim.Runner.informed);
  check_int "faulty network still drains" 0 r.Obs.Replay.in_flight;
  check_bool "tampering visible offline" true (r.Obs.Replay.summary.Obs.Counting.faults > 0)

(* {1 The flat recorder} *)

let recorded events =
  let r = Obs.Recorder.create () in
  List.iter (Obs.Recorder.push r) events;
  r

(* The same events through the direct appends wherever a kind has one. *)
let appended events =
  let r = Obs.Recorder.create () in
  List.iter
    (fun (ev : Event.t) ->
      let seq = ev.seq and round = ev.round in
      match ev.kind with
      | Event.Send l ->
        Obs.Recorder.send r ~seq ~round ~src:l.src ~src_port:l.src_port ~dst:l.dst
          ~dst_port:l.dst_port ~cls:l.cls ~bits:l.bits ~informed:l.informed ~depth:l.depth
      | Event.Deliver l ->
        Obs.Recorder.deliver r ~seq ~round ~src:l.src ~src_port:l.src_port ~dst:l.dst
          ~dst_port:l.dst_port ~cls:l.cls ~bits:l.bits ~informed:l.informed ~depth:l.depth
      | Event.Wake v -> Obs.Recorder.wake r ~seq ~round v
      | Event.Advice_read (v, bits) -> Obs.Recorder.advice_read r ~seq ~round v ~bits
      | Event.Decide _ | Event.Fault _ | Event.Recover _ -> Obs.Recorder.push r ev)
    events;
  r

let iterated r =
  let acc = ref [] in
  Obs.Recorder.iter r (fun ev -> acc := ev :: !acc);
  List.rev !acc

let test_recorder_field_boundaries () =
  (* Every packed field at its maximum, one past it and negative, and the
     verbatim fields at both ends of [int]: packed or boxed, each event
     must come back [=] to what was pushed, in order. *)
  let wide = (1 lsl 30) - 1 and narrow = (1 lsl 21) - 1 in
  let edges m = [ 0; m; m + 1; -1; min_int; max_int ] in
  let send ?(seq = 5) ?(round = 2) l = { Event.seq; round; kind = Event.Send l } in
  let events =
    List.concat
      [
        List.concat_map
          (fun x ->
            [
              send { link with Event.src = x };
              { Event.seq = 5; round = 2; kind = Event.Deliver { link with Event.dst = x } };
              send { link with Event.depth = x };
              send ~round:x link;
              { Event.seq = 0; round = x; kind = Event.Wake 3 };
              { Event.seq = 0; round = x; kind = Event.Advice_read (3, 8) };
            ])
          (edges wide);
        List.concat_map
          (fun x ->
            [
              send { link with Event.src_port = x };
              send { link with Event.dst_port = x };
              send { link with Event.bits = x };
            ])
          (edges narrow);
        List.concat_map
          (fun x ->
            [
              send ~seq:x link;
              { Event.seq = x; round = 0; kind = Event.Wake x };
              { Event.seq = 0; round = 0; kind = Event.Advice_read (x, x) };
            ])
          [ max_int; max_int - 1; min_int; -1 ];
        [
          send
            {
              Event.src = wide;
              src_port = narrow;
              dst = wide;
              dst_port = narrow;
              cls = Event.Control;
              bits = narrow;
              informed = true;
              depth = wide;
            }
            ~seq:max_int ~round:wide;
          send { link with Event.cls = Event.Hello; informed = false };
          { Event.seq = 0; round = 0; kind = Event.Decide (1, "") };
        ];
        fault_events;
        sample_events;
      ]
  in
  let r = recorded events in
  check_bool "every boundary round-trips" true (Obs.Recorder.to_list r = events);
  check_bool "to_list leaves the recorder as it was" true (Obs.Recorder.to_list r = events);
  check_bool "iter visits the same stream in order" true (iterated r = events);
  let a = appended events in
  check_bool "direct appends round-trip every boundary" true (Obs.Recorder.to_list a = events);
  check_bool "and iterate the same" true (iterated a = events)

let test_recorder_grows_and_clears () =
  let many =
    List.init 5000 (fun i ->
        if i mod 97 = 0 then { Event.seq = i; round = i; kind = Event.Decide (i, "d") }
        else { Event.seq = i; round = i / 3; kind = Event.Send { link with Event.depth = i } })
  in
  let r = recorded many in
  check_bool "grown buffer keeps every event" true (Obs.Recorder.to_list r = many);
  Obs.Recorder.clear r;
  check_bool "nothing survives a clear" true (Obs.Recorder.to_list r = []);
  List.iter (Obs.Recorder.push r) sample_events;
  check_bool "reused after a clear" true (Obs.Recorder.to_list r = sample_events)

let suite =
  [
    Alcotest.test_case "jsonl roundtrip, every kind" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "jsonl tolerant decode" `Quick test_jsonl_tolerates_key_order_and_spaces;
    Alcotest.test_case "jsonl rejects malformed" `Quick test_jsonl_rejects_malformed;
    Alcotest.test_case "jsonl file roundtrip" `Quick test_jsonl_file_roundtrip;
    Alcotest.test_case "counting = stats on Thm 2.1 trees" `Quick
      test_counting_matches_wakeup_tree_family;
    Alcotest.test_case "counting = stats on G_{n,S}" `Quick test_counting_matches_wakeup_hard_graph;
    Alcotest.test_case "counting = stats on Scheme B" `Quick
      test_counting_matches_broadcast_with_hellos;
    Alcotest.test_case "of_events = live fold" `Quick test_of_events_equals_live_fold;
    Alcotest.test_case "ring bounds memory" `Quick test_ring_bounds_memory;
    Alcotest.test_case "ring under capacity" `Quick test_ring_under_capacity;
    Alcotest.test_case "replay = live run" `Quick test_replay_matches_live_run;
    Alcotest.test_case "replay through jsonl artifact" `Quick test_replay_through_jsonl_artifact;
    Alcotest.test_case "replay decisions" `Quick test_replay_decisions;
    Alcotest.test_case "replay rejects bad node" `Quick test_replay_rejects_out_of_range;
    Alcotest.test_case "tee and filter" `Quick test_tee_and_filter;
    Alcotest.test_case "fault events roundtrip jsonl" `Quick test_fault_jsonl_roundtrip;
    Alcotest.test_case "fault streams are deterministic" `Quick test_fault_stream_determinism;
    Alcotest.test_case "replay = live under faults" `Quick test_replay_matches_live_under_faults;
    Alcotest.test_case "recorder: every field boundary round-trips" `Quick
      test_recorder_field_boundaries;
    Alcotest.test_case "recorder: grows, clears and is reused" `Quick
      test_recorder_grows_and_clears;
  ]
