(* The knowledge ladder: one network, four tasks, and what each extra bit
   of oracle buys — the quantitative view the paper proposes, extended to
   the tasks its conclusion names (gossip, exploration) plus the radio
   model its introduction cites as evidence.

       dune exec examples/knowledge_ladder.exe *)

let () =
  let st = Random.State.make [| 2006 |] in
  let g = Netgraph.Gen.random_connected ~n:128 ~p:0.06 st in
  let n = Netgraph.Graph.n g and m = Netgraph.Graph.m g in
  Printf.printf "network: %d nodes, %d edges, diameter %d\n\n" n m (Netgraph.Traverse.diameter g);

  Printf.printf "%-34s %12s %12s\n" "task / knowledge level" "oracle bits" "cost";
  let row name bits cost = Printf.printf "%-34s %12d %12s\n" name bits cost in

  (* Dissemination. *)
  let advice_free _ = Bitstring.Bitbuf.create () in
  let flood = Sim.Runner.run ~advice:advice_free g ~source:0 Sim.Scheme.flooding in
  row "broadcast / nothing (flooding)" 0
    (Printf.sprintf "%d msgs" flood.Sim.Runner.stats.Obs.Counting.sent);
  let bc = Oracle_core.Broadcast.run g ~source:0 in
  row "broadcast / Thm 3.1 oracle" bc.Oracle_core.Broadcast.advice_bits
    (Printf.sprintf "%d msgs" bc.Oracle_core.Broadcast.result.Sim.Runner.stats.Obs.Counting.sent);
  let wk = Oracle_core.Wakeup.run g ~source:0 in
  row "wakeup / Thm 2.1 oracle" wk.Oracle_core.Wakeup.advice_bits
    (Printf.sprintf "%d msgs" wk.Oracle_core.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent);
  let rho1 = Oracle_core.Neighborhood.run ~rho:1 g ~source:0 in
  row "wakeup / radius-1 maps (AGPV)" rho1.Oracle_core.Neighborhood.advice_bits
    (Printf.sprintf "%d msgs"
       rho1.Oracle_core.Neighborhood.result.Sim.Runner.stats.Obs.Counting.sent);

  (* Gossip. *)
  let gossip = Oracle_core.Gossip.run g ~source:0 in
  row "gossip / tree oracle" gossip.Oracle_core.Gossip.advice_bits
    (Printf.sprintf "%d msgs" gossip.Oracle_core.Gossip.result.Sim.Runner.stats.Obs.Counting.sent);

  (* Exploration. *)
  let no_advice = Bitstring.Bitbuf.create () in
  let dfs = Agent.Walker.run ~advice:no_advice g ~start:0 Agent.Explore.dfs in
  row "exploration / nothing (DFS)" 0 (Printf.sprintf "%d moves" dfs.Agent.Walker.moves);
  let route = Agent.Explore.route_advice g ~start:0 in
  let guided = Agent.Walker.run ~advice:route g ~start:0 Agent.Explore.guided in
  row "exploration / route oracle" (Bitstring.Bitbuf.length route)
    (Printf.sprintf "%d moves" guided.Agent.Walker.moves);

  (* Radio time. *)
  let rr = Radio.Model.run ~advice:advice_free g ~source:0 Radio.Protocols.round_robin in
  row "radio bcast / labels only" 0 (Printf.sprintf "%d rounds" rr.Radio.Model.rounds);
  let schedule = Radio.Protocols.schedule_oracle g ~source:0 in
  let sc =
    Radio.Model.run ~advice:(Oracles.Advice.get schedule) g ~source:0 Radio.Protocols.scheduled
  in
  row "radio bcast / full-map schedule" (Oracles.Advice.size_bits schedule)
    (Printf.sprintf "%d rounds" sc.Radio.Model.rounds);

  Printf.printf
    "\nEach task has its own price of knowledge; the paper's point is that the\n\
     minimum oracle size for a target efficiency is a *measure of the task*:\n\
     here wakeup needs %.1fx the bits broadcast needs on the same network.\n"
    (float_of_int wk.Oracle_core.Wakeup.advice_bits
    /. float_of_int bc.Oracle_core.Broadcast.advice_bits)
