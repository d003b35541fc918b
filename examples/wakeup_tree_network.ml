(* A sensor-network-flavoured scenario: wake a sleeping network with the
   absolute minimum number of radio messages.

   Motivation from the paper's introduction: in the wakeup task only nodes
   that already got the source message may transmit, so without knowledge
   of the topology a waking process must probe blindly.  With the Theorem
   2.1 oracle every node knows exactly which ports lead to its subtree:
   one message per link, n-1 total — at the price of ~n log n advice bits.

       dune exec examples/wakeup_tree_network.exe *)

let run_on name g =
  let n = Netgraph.Graph.n g in
  Printf.printf "\n-- %s (%d nodes, %d edges) --\n" name n (Netgraph.Graph.m g);
  (* Advice-free baseline: flooding is a legal wakeup scheme (silent until
     woken) but pays one message per edge direction explored. *)
  let advice_free _ = Bitstring.Bitbuf.create () in
  let flood = Sim.Runner.run ~advice:advice_free g ~source:0 Sim.Scheme.flooding in
  Printf.printf "flooding (no oracle):   %6d messages\n" flood.Sim.Runner.stats.Obs.Counting.sent;

  (* The Theorem 2.1 oracle, under three encodings. *)
  List.iter
    (fun enc ->
      let o = Oracle_core.Wakeup.run ~encoding:enc g ~source:0 in
      Printf.printf "oracle [%-13s]: %6d messages, %6d advice bits%s\n"
        (Oracle_core.Wakeup.encoding_name enc)
        o.Oracle_core.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent
        o.Oracle_core.Wakeup.advice_bits
        (if o.Oracle_core.Wakeup.result.Sim.Runner.all_informed then "" else "  [FAILED]"))
    [ Oracle_core.Wakeup.Paper; Oracle_core.Wakeup.Paper_minimal; Oracle_core.Wakeup.Gamma ];

  (* The wakeup also works under fully asynchronous, adversarial delivery. *)
  let async = Oracle_core.Wakeup.run ~scheduler:Sim.Scheduler.Async_lifo g ~source:0 in
  Printf.printf "async-lifo delivery:    %6d messages, informed=%b\n"
    async.Oracle_core.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent
    async.Oracle_core.Wakeup.result.Sim.Runner.all_informed

let () =
  let st = Random.State.make [| 7 |] in
  run_on "random sensor field (sparse random graph)"
    (Netgraph.Gen.random_connected ~n:200 ~p:0.03 st);
  run_on "data-center pod (3-ary tree of depth 4)"
    (Netgraph.Gen.balanced_tree ~arity:3 ~depth:4);
  run_on "wireless mesh (16x16 torus)" (Netgraph.Gen.torus ~rows:16 ~cols:16)
