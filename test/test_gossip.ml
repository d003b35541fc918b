open Oracle_core
module Graph = Netgraph.Graph
module Families = Netgraph.Families

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_tree_gossip_all_families () =
  List.iter
    (fun fam ->
      let g = Families.build fam ~n:32 ~seed:83 in
      let n = Graph.n g in
      let o = Gossip.run g ~source:0 in
      check_bool (Families.name fam ^ " complete") true o.Gossip.complete;
      check_int
        (Families.name fam ^ " messages")
        (2 * (n - 1))
        o.Gossip.result.Sim.Runner.stats.Obs.Counting.sent)
    Families.all

let test_learned_sets () =
  let g = Netgraph.Gen.path 6 in
  let o = Gossip.run g ~source:2 in
  check_bool "complete" true o.Gossip.complete;
  Array.iter
    (fun learned -> Alcotest.(check (list int)) "all rumors" [ 1; 2; 3; 4; 5; 6 ] learned)
    o.Gossip.learned

let test_all_schedulers () =
  let g = Families.build Families.Sparse_random ~n:40 ~seed:89 in
  List.iter
    (fun sched ->
      let o = Gossip.run ~scheduler:sched g ~source:0 in
      check_bool (Sim.Scheduler.name sched) true o.Gossip.complete;
      check_int (Sim.Scheduler.name sched)
        (2 * (Graph.n g - 1))
        o.Gossip.result.Sim.Runner.stats.Obs.Counting.sent)
    Sim.Scheduler.default_suite

let test_single_node () =
  let g = Netgraph.Gen.path 1 in
  let o = Gossip.run g ~source:0 in
  check_bool "complete" true o.Gossip.complete;
  check_int "no messages" 0 o.Gossip.result.Sim.Runner.stats.Obs.Counting.sent

let test_advice_roundtrip () =
  let g = Netgraph.Gen.grid ~rows:4 ~cols:4 in
  let o = Gossip.oracle () in
  let advice = o.Oracles.Oracle.advise g ~source:0 in
  let tree = Netgraph.Spanning.bfs g ~root:0 in
  for v = 0 to 15 do
    let parent, children = Gossip.decode_advice (Oracles.Advice.get advice v) in
    Alcotest.(check (option int))
      (Printf.sprintf "parent %d" v)
      (Option.map snd (Netgraph.Spanning.parent tree v))
      parent;
    Alcotest.(check (list int))
      (Printf.sprintf "children %d" v)
      (Netgraph.Spanning.children_ports tree v)
      children
  done

let test_flooding_gossip () =
  let g = Families.build Families.Dense_random ~n:24 ~seed:97 in
  let o = Gossip.run_flooding g ~source:0 in
  check_bool "complete" true o.Gossip.complete;
  check_int "no advice" 0 o.Gossip.advice_bits;
  let tree = Gossip.run g ~source:0 in
  check_bool "flooding costs more" true
    (o.Gossip.result.Sim.Runner.stats.Obs.Counting.sent
    > 3 * tree.Gossip.result.Sim.Runner.stats.Obs.Counting.sent)

let test_bits_on_wire_accounted () =
  (* Rumor payloads are real control messages, so the wire carries far
     more bits than the message count. *)
  let g = Netgraph.Gen.path 8 in
  let o = Gossip.run g ~source:0 in
  check_bool "payload bits counted" true
    (o.Gossip.result.Sim.Runner.stats.Obs.Counting.bits_on_wire
    > o.Gossip.result.Sim.Runner.stats.Obs.Counting.sent)

let test_causal_depth_tracks_tree_height () =
  (* Convergecast + broadcast over a path from one end: depth ≈ 2(n-1). *)
  let g = Netgraph.Gen.path 10 in
  let o = Gossip.run g ~source:0 in
  let depth = o.Gossip.result.Sim.Runner.stats.Obs.Counting.causal_depth in
  check_bool (Printf.sprintf "depth %d ~ 18" depth) true (depth >= 17 && depth <= 19)

let qcheck_tree_gossip =
  QCheck.Test.make ~name:"tree gossip: complete with 2(n-1) messages" ~count:40
    QCheck.(pair (int_range 2 40) (int_range 0 999))
    (fun (n, seed) ->
      let st = Random.State.make [| n; seed |] in
      let g = Netgraph.Gen.random_connected ~n ~p:0.2 st in
      let o = Gossip.run g ~source:(seed mod n) in
      o.Gossip.complete && o.Gossip.result.Sim.Runner.stats.Obs.Counting.sent = 2 * (n - 1))

let suite =
  [
    Alcotest.test_case "2(n-1) messages on every family" `Quick test_tree_gossip_all_families;
    Alcotest.test_case "learned sets" `Quick test_learned_sets;
    Alcotest.test_case "all schedulers" `Quick test_all_schedulers;
    Alcotest.test_case "single node" `Quick test_single_node;
    Alcotest.test_case "advice roundtrip" `Quick test_advice_roundtrip;
    Alcotest.test_case "flooding baseline" `Quick test_flooding_gossip;
    Alcotest.test_case "payload bits accounted" `Quick test_bits_on_wire_accounted;
    Alcotest.test_case "causal depth" `Quick test_causal_depth_tracks_tree_height;
    QCheck_alcotest.to_alcotest qcheck_tree_gossip;
  ]

let test_gossip_alternate_trees () =
  let g = Netgraph.Gen.complete 16 in
  List.iter
    (fun (name, tree) ->
      let o = Gossip.run ~tree g ~source:3 in
      check_bool (name ^ " complete") true o.Gossip.complete;
      check_int (name ^ " messages") (2 * 15) o.Gossip.result.Sim.Runner.stats.Obs.Counting.sent)
    [
      ("light", fun g ~root -> Netgraph.Spanning.light g ~root);
      ("dfs", fun g ~root -> Netgraph.Spanning.dfs g ~root);
    ]

let suite = suite @ [ Alcotest.test_case "alternate trees" `Quick test_gossip_alternate_trees ]
