open Oracle_core
module Graph = Netgraph.Graph
module Families = Netgraph.Families

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_flood_build_all_families () =
  List.iter
    (fun fam ->
      let g = Families.build fam ~n:32 ~seed:149 in
      let o = Tree_construction.flood_build g ~source:0 in
      check_bool (Families.name fam ^ " built a tree") true (o.Tree_construction.tree <> None);
      check_int (Families.name fam ^ " zero advice") 0 o.Tree_construction.advice_bits;
      let bound = (2 * Graph.m g) + Graph.n g in
      check_bool (Families.name fam ^ " message bound") true
        (o.Tree_construction.result.Sim.Runner.stats.Obs.Counting.sent <= bound))
    Families.all

let test_flood_build_sync_is_bfs () =
  List.iter
    (fun fam ->
      let g = Families.build fam ~n:36 ~seed:151 in
      let o =
        Tree_construction.flood_build ~scheduler:Sim.Scheduler.Synchronous g ~source:0
      in
      check_bool (Families.name fam ^ " BFS under sync") true o.Tree_construction.is_bfs)
    [ Families.Grid; Families.Hypercube; Families.Sparse_random; Families.Complete ]

let test_flood_build_async_still_spans () =
  let g = Families.build Families.Dense_random ~n:40 ~seed:157 in
  List.iter
    (fun sched ->
      let o = Tree_construction.flood_build ~scheduler:sched g ~source:0 in
      match o.Tree_construction.tree with
      | Some t ->
        check_bool (Sim.Scheduler.name sched ^ " valid spanning tree") true
          (Netgraph.Spanning.check g t = Ok ())
      | None -> Alcotest.fail (Sim.Scheduler.name sched ^ ": no tree"))
    Sim.Scheduler.default_suite

let test_advised_build_is_free () =
  List.iter
    (fun fam ->
      let g = Families.build fam ~n:32 ~seed:163 in
      let o = Tree_construction.advised_build g ~source:0 in
      check_bool (Families.name fam ^ " tree from advice") true (o.Tree_construction.tree <> None);
      check_int (Families.name fam ^ " zero messages") 0
        o.Tree_construction.result.Sim.Runner.stats.Obs.Counting.sent;
      check_bool (Families.name fam ^ " BFS (oracle used BFS)") true o.Tree_construction.is_bfs;
      check_bool (Families.name fam ^ " advice nonzero") true (o.Tree_construction.advice_bits > 0))
    Families.all

let test_nonzero_source () =
  let g = Families.build Families.Torus ~n:25 ~seed:167 in
  let o = Tree_construction.flood_build g ~source:12 in
  match o.Tree_construction.tree with
  | Some t -> check_int "rooted at source" 12 t.Netgraph.Spanning.root
  | None -> Alcotest.fail "no tree"

let qcheck_flood_build =
  QCheck.Test.make ~name:"flooding always builds a spanning tree" ~count:40
    QCheck.(triple (int_range 2 40) (int_range 0 999) (int_range 0 4))
    (fun (n, seed, sched_idx) ->
      let st = Random.State.make [| n; seed |] in
      let g = Netgraph.Gen.random_connected ~n ~p:0.25 st in
      let scheduler = List.nth Sim.Scheduler.default_suite sched_idx in
      let o = Tree_construction.flood_build ~scheduler g ~source:(seed mod n) in
      match o.Tree_construction.tree with
      | Some t -> Netgraph.Spanning.check g t = Ok ()
      | None -> false)

let suite =
  [
    Alcotest.test_case "flooding builds a tree everywhere" `Quick test_flood_build_all_families;
    Alcotest.test_case "synchronous flooding builds BFS" `Quick test_flood_build_sync_is_bfs;
    Alcotest.test_case "async flooding still spans" `Quick test_flood_build_async_still_spans;
    Alcotest.test_case "advised build costs zero messages" `Quick test_advised_build_is_free;
    Alcotest.test_case "non-zero source" `Quick test_nonzero_source;
    QCheck_alcotest.to_alcotest qcheck_flood_build;
  ]
