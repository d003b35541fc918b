(* The paper's two upper bounds as seeded properties.  Theorem 2.1:
   wakeup with exactly n-1 messages.  Theorem 3.1: broadcast with at
   most 8n advice bits and fewer than 3n messages.  Claim 3.1: the light
   tree's weights cost at most 4n bits.  Each draw picks a size, a graph,
   a source and a scheduler from its seed, and runs on the graph as
   built, under a random port labeling and under a random node
   relabeling; the failure message names the draw.  A few draws are past one 4096-node block under the
   synchronous scheduler, where untraced rounds are visited in
   destination-block order. *)

open Oracle_core
module Graph = Netgraph.Graph
module Families = Netgraph.Families

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let seeds = List.init 16 (fun i -> i + 1)

(* [(name, graph, source, scheduler)] for one seeded draw: as built,
   ports permuted, labels permuted. *)
let draws fam ~min_n ~max_n ~sync_only seed =
  let st = Random.State.make [| seed; Hashtbl.hash (Families.name fam) |] in
  let n = min_n + Random.State.int st (max_n - min_n + 1) in
  let g = Families.build fam ~n ~seed in
  let source = Random.State.int st (Graph.n g) in
  let scheduler =
    if sync_only then Sim.Scheduler.Synchronous
    else
      match Random.State.int st 4 with
      | 0 -> Sim.Scheduler.Synchronous
      | 1 -> Sim.Scheduler.Async_fifo
      | 2 -> Sim.Scheduler.Async_lifo
      | _ -> Sim.Scheduler.Async_random seed
  in
  List.map
    (fun (how, g) ->
      ( Printf.sprintf "%s n=%d seed=%d source=%d %s %s" (Families.name fam) (Graph.n g) seed
          source (Sim.Scheduler.name scheduler) how,
        g,
        source,
        scheduler ))
    [
      ("ports as built", g);
      ("ports permuted", Netgraph.Transform.permute_ports g st);
      ("labels permuted", Netgraph.Transform.permute_labels g st);
    ]

let small_draws () =
  List.concat_map
    (fun fam ->
      List.concat_map (draws fam ~min_n:2 ~max_n:300 ~sync_only:false) seeds)
    Families.all

let large_draws () =
  List.concat_map
    (fun fam -> List.concat_map (draws fam ~min_n:4097 ~max_n:10_000 ~sync_only:true) [ 1; 2 ])
    Families.[ Sparse_random; Random_regular; Random_tree; Grid; Path ]

let check_wakeup (name, g, source, scheduler) =
  let o = Wakeup.run ~scheduler g ~source in
  let r = o.Wakeup.result in
  check_bool (name ^ ": tree ok") true o.Wakeup.tree_ok;
  check_bool (name ^ ": all informed") true r.Sim.Runner.all_informed;
  check_bool (name ^ ": quiescent") true r.Sim.Runner.quiescent;
  check_int (name ^ ": exactly n-1 messages") (Graph.n g - 1) r.Sim.Runner.stats.Obs.Counting.sent

let check_broadcast (name, g, source, scheduler) =
  let o = Broadcast.run ~scheduler g ~source in
  let r = o.Broadcast.result in
  let n = Graph.n g in
  check_bool (name ^ ": all informed") true r.Sim.Runner.all_informed;
  check_bool (name ^ ": quiescent") true r.Sim.Runner.quiescent;
  check_bool
    (Printf.sprintf "%s: %d advice bits <= 8n" name o.Broadcast.advice_bits)
    true
    (o.Broadcast.advice_bits <= 8 * n);
  check_bool
    (Printf.sprintf "%s: %d messages < 3n" name r.Sim.Runner.stats.Obs.Counting.sent)
    true
    (r.Sim.Runner.stats.Obs.Counting.sent < 3 * n)

let check_light_tree (name, g, source, _) =
  let t = Netgraph.Spanning.light g ~root:source in
  let c = Netgraph.Spanning.contribution g (Netgraph.Spanning.edges t) in
  check_bool (Printf.sprintf "%s: light tree valid" name) true (Netgraph.Spanning.check g t = Ok ());
  check_bool
    (Printf.sprintf "%s: contribution %d <= 4n" name c)
    true
    (c <= 4 * Graph.n g)

let suite =
  [
    Alcotest.test_case "Thm 2.1 on seeded draws from every family" `Quick (fun () ->
        List.iter check_wakeup (small_draws ()));
    Alcotest.test_case "Thm 3.1 on seeded draws from every family" `Quick (fun () ->
        List.iter check_broadcast (small_draws ()));
    Alcotest.test_case "Claim 3.1 on seeded draws from every family" `Quick (fun () ->
        List.iter check_light_tree (small_draws ()));
    Alcotest.test_case "Thm 2.1 and 3.1 on seeded draws past one block" `Slow (fun () ->
        List.iter
          (fun d ->
            check_wakeup d;
            check_broadcast d)
          (large_draws ()));
  ]
