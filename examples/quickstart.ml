(* Quickstart: broadcast a message through a random 100-node network using
   the paper's O(n)-bit oracle, and inspect what it cost.

       dune exec examples/quickstart.exe *)

let () =
  (* A random connected network with port-labeled edges. *)
  let st = Random.State.make [| 2006 |] in
  let g = Netgraph.Gen.random_connected ~n:100 ~p:0.08 st in
  Printf.printf "network: %d nodes, %d edges, diameter %d\n" (Netgraph.Graph.n g)
    (Netgraph.Graph.m g) (Netgraph.Traverse.diameter g);

  (* Run broadcast from node 0 with the Theorem 3.1 oracle (Scheme B). *)
  let outcome = Oracle_core.Broadcast.run g ~source:0 in
  let stats = outcome.Oracle_core.Broadcast.result.Sim.Runner.stats in
  Printf.printf "oracle size: %d bits (Theorem 3.1 allows up to %d)\n"
    outcome.Oracle_core.Broadcast.advice_bits
    (8 * Netgraph.Graph.n g);
  Printf.printf "messages: %d total = %d source + %d hello (Theorem 3.1 allows < %d)\n"
    stats.Obs.Counting.sent stats.Obs.Counting.source_sent stats.Obs.Counting.hello_sent
    (3 * Netgraph.Graph.n g);
  Printf.printf "everyone informed: %b\n"
    outcome.Oracle_core.Broadcast.result.Sim.Runner.all_informed;

  (* Compare with the wakeup task on the same network: more knowledge is
     needed, but the message count drops to the bare minimum n-1. *)
  let wakeup = Oracle_core.Wakeup.run g ~source:0 in
  Printf.printf "\nwakeup on the same network: %d advice bits, %d messages\n"
    wakeup.Oracle_core.Wakeup.advice_bits
    wakeup.Oracle_core.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent;
  Printf.printf "oracle-size separation (wakeup/broadcast): %.2fx\n"
    (float_of_int wakeup.Oracle_core.Wakeup.advice_bits
    /. float_of_int outcome.Oracle_core.Broadcast.advice_bits)
