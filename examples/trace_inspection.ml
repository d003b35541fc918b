(* Trace inspection: record a run's telemetry to a JSON Lines file, then
   audit the paper's claims offline — from the artifact alone, without
   re-running the simulation.

       dune exec examples/trace_inspection.exe *)

let () =
  let st = Random.State.make [| 2006 |] in
  let g = Netgraph.Gen.random_connected ~n:64 ~p:0.1 st in
  let n = Netgraph.Graph.n g in
  let path = Filename.temp_file "wakeup" ".jsonl" in

  (* Record: a JSONL file sink plus a bounded ring keeping the last few
     events (full traces of big runs are long; the ring stays O(capacity)). *)
  let file = Obs.Jsonl.file_sink path in
  let ring = Obs.Ring.create ~capacity:5 in
  let live =
    Fun.protect
      ~finally:(fun () -> Obs.Sink.close file)
      (fun () -> Oracle_core.Wakeup.run ~sinks:[ file; Obs.Ring.sink ring ] g ~source:0)
  in
  let live_stats = live.Oracle_core.Wakeup.result.Sim.Runner.stats in
  Printf.printf "recorded %s: wakeup on %d nodes, %d messages, %d advice bits\n" path n
    live_stats.Obs.Counting.sent live.Oracle_core.Wakeup.advice_bits;

  (* The ring kept only the tail of the stream. *)
  Printf.printf "\nring kept the last %d of %d events:\n" (Obs.Ring.length ring)
    (Obs.Ring.seen ring);
  List.iter (fun ev -> Format.printf "  %a@." Obs.Event.pp ev) (Obs.Ring.contents ring);

  (* Audit: read the artifact back and replay it.  Everything the metrics
     contract defines — the counters, the informed set, quiescence — is
     recomputed from the events alone (DESIGN.md section 7). *)
  let events = Obs.Jsonl.read_file path in
  let replayed = Obs.Replay.replay ~n events in
  let s = replayed.Obs.Replay.summary in
  Printf.printf "\nreplayed %d events from the artifact:\n" (List.length events);
  Printf.printf "  messages:      %d  (live run counted %d)\n" s.Obs.Counting.sent
    live_stats.Obs.Counting.sent;
  Printf.printf "  bits on wire:  %d  (live: %d)\n" s.Obs.Counting.bits_on_wire
    live_stats.Obs.Counting.bits_on_wire;
  Printf.printf "  causal depth:  %d  (live: %d)\n" s.Obs.Counting.causal_depth
    live_stats.Obs.Counting.causal_depth;
  Printf.printf "  advice bits:   %d  (live: %d)\n" s.Obs.Counting.advice_bits
    live.Oracle_core.Wakeup.advice_bits;

  (* Theorem 2.1's claims, checked offline. *)
  Printf.printf "\nTheorem 2.1, from the trace alone:\n";
  Printf.printf "  exactly n-1 = %d messages: %b\n" (n - 1) (s.Obs.Counting.sent = n - 1);
  Printf.printf "  all of them source-class:  %b\n" (s.Obs.Counting.source_sent = s.Obs.Counting.sent);
  Printf.printf "  every node woke up:        %b\n" replayed.Obs.Replay.all_informed;
  Printf.printf "  run was quiescent:         %b (in flight: %d)\n"
    (replayed.Obs.Replay.in_flight = 0)
    replayed.Obs.Replay.in_flight;

  let agrees =
    replayed.Obs.Replay.all_informed = live.Oracle_core.Wakeup.result.Sim.Runner.all_informed
    && replayed.Obs.Replay.informed = live.Oracle_core.Wakeup.result.Sim.Runner.informed
    && s.Obs.Counting.sent = live_stats.Obs.Counting.sent
  in
  Printf.printf "\noffline replay agrees with the live run: %b\n" agrees;
  Sys.remove path
