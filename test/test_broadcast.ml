open Oracle_core
module Graph = Netgraph.Graph
module Spanning = Netgraph.Spanning
module Families = Netgraph.Families

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let family_graphs n =
  List.map (fun fam -> (Families.name fam, Families.build fam ~n ~seed:29)) Families.all

(* Theorem 3.1's claims: completes, < 3n messages, ≤ 8n advice bits. *)
let test_theorem_claims_all_families () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let o = Broadcast.run g ~source:0 in
      check_bool (name ^ " informed") true o.Broadcast.result.Sim.Runner.all_informed;
      let sent = o.Broadcast.result.Sim.Runner.stats.Obs.Counting.sent in
      check_bool (Printf.sprintf "%s: %d < 3*%d" name sent n) true (sent < 3 * n);
      check_bool
        (Printf.sprintf "%s: advice %d <= 8*%d" name o.Broadcast.advice_bits n)
        true
        (o.Broadcast.advice_bits <= Bounds.broadcast_advice_upper ~n);
      check_bool
        (Printf.sprintf "%s: contribution %d <= 4*%d" name o.Broadcast.tree_contribution n)
        true
        (o.Broadcast.tree_contribution <= Bounds.light_tree_contribution_upper ~n))
    (family_graphs 48)

let test_all_schedulers () =
  let g = Families.build Families.Dense_random ~n:40 ~seed:31 in
  let n = Graph.n g in
  List.iter
    (fun sched ->
      let o = Broadcast.run ~scheduler:sched g ~source:0 in
      check_bool (Sim.Scheduler.name sched ^ " informed") true
        o.Broadcast.result.Sim.Runner.all_informed;
      check_bool (Sim.Scheduler.name sched ^ " linear") true
        (o.Broadcast.result.Sim.Runner.stats.Obs.Counting.sent < 3 * n))
    Sim.Scheduler.default_suite

let test_message_breakdown () =
  let g = Families.build Families.Grid ~n:49 ~seed:37 in
  let n = Graph.n g in
  let o = Broadcast.run g ~source:0 in
  let stats = o.Broadcast.result.Sim.Runner.stats in
  check_bool "hellos at most n-1" true (stats.Obs.Counting.hello_sent <= n - 1);
  check_bool "source messages at most 2(n-1)" true
    (stats.Obs.Counting.source_sent <= 2 * (n - 1));
  check_int "no control messages" 0 stats.Obs.Counting.control_sent;
  check_int "sum" stats.Obs.Counting.sent
    (stats.Obs.Counting.hello_sent + stats.Obs.Counting.source_sent)

let test_trace_invariants () =
  (* M crosses each directed tree edge at most once; hellos cross each
     tree edge at most once overall. *)
  let g = Families.build Families.Sparse_random ~n:40 ~seed:41 in
  let tree = Spanning.light g ~root:0 in
  let tree_pairs =
    List.concat_map
      (fun e -> [ (e.Graph.u, e.Graph.v); (e.Graph.v, e.Graph.u) ])
      (Spanning.edges tree)
  in
  let o = Broadcast.oracle ~tree:(fun _ ~root:_ -> tree) () in
  let advice = Oracles.Oracle.advice_fun o g ~source:0 in
  let collect, collected = Obs.Sink.collect () in
  let r = Sim.Runner.run ~sinks:[ collect ] ~advice g ~source:0 (Broadcast.scheme ()) in
  check_bool "informed" true r.Sim.Runner.all_informed;
  let seen_m = Hashtbl.create 64 in
  let seen_hello = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      match ev.Obs.Event.kind with
      | Obs.Event.Deliver d -> (
        let dir = (d.Obs.Event.src, d.Obs.Event.dst) in
        check_bool "only tree edges carry traffic" true (List.mem dir tree_pairs);
        match d.Obs.Event.cls with
        | Obs.Event.Source ->
          check_bool "M once per direction" false (Hashtbl.mem seen_m dir);
          Hashtbl.add seen_m dir ()
        | Obs.Event.Hello ->
          let undirected = (min (fst dir) (snd dir), max (fst dir) (snd dir)) in
          check_bool "hello once per edge" false (Hashtbl.mem seen_hello undirected);
          Hashtbl.add seen_hello undirected ()
        | Obs.Event.Control -> Alcotest.fail "unexpected control message")
      | _ -> ())
    (collected ())

let test_weight_assignment_unique_endpoint () =
  let g = Families.build Families.Complete ~n:32 ~seed:0 in
  let tree = Spanning.light g ~root:0 in
  let weights = Broadcast.weight_assignment g tree in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 weights in
  check_int "each tree edge at exactly one endpoint" (Graph.n g - 1) total;
  (* Each assigned weight is a real port at that node towards a tree
     neighbor, with the minimum of the two ports. *)
  let tree_edges = Spanning.edges tree in
  Array.iteri
    (fun v ws ->
      List.iter
        (fun w ->
          let touches =
            List.exists
              (fun e ->
                (e.Graph.u = v && e.Graph.pu = w && w <= e.Graph.pv)
                || (e.Graph.v = v && e.Graph.pv = w && w <= e.Graph.pu))
              tree_edges
          in
          check_bool (Printf.sprintf "node %d weight %d" v w) true touches)
        ws)
    weights

let test_decode_roundtrip () =
  List.iter
    (fun enc ->
      let g = Families.build Families.Torus ~n:25 ~seed:43 in
      let o = Broadcast.oracle ~encoding:enc () in
      let advice = o.Oracles.Oracle.advise g ~source:0 in
      let tree = Spanning.light g ~root:0 in
      let weights = Broadcast.weight_assignment g tree in
      for v = 0 to Graph.n g - 1 do
        Alcotest.(check (list int))
          (Printf.sprintf "%s node %d" (Broadcast.encoding_name enc) v)
          weights.(v)
          (Broadcast.decode_known_ports enc (Oracles.Advice.get advice v))
      done)
    [ Broadcast.Marked; Broadcast.Gamma ]

let test_gamma_encoding_works () =
  let g = Families.build Families.Sparse_random ~n:36 ~seed:47 in
  let o = Broadcast.run ~encoding:Broadcast.Gamma g ~source:0 in
  check_bool "informed" true o.Broadcast.result.Sim.Runner.all_informed;
  check_bool "linear" true
    (o.Broadcast.result.Sim.Runner.stats.Obs.Counting.sent < 3 * Graph.n g)

let test_other_trees_complete () =
  (* Scheme B is correct with any spanning tree; only the 8n size bound
     needs the light tree. *)
  let g = Families.build Families.Complete ~n:24 ~seed:0 in
  List.iter
    (fun (name, tree) ->
      let o = Broadcast.run ~tree g ~source:0 in
      check_bool (name ^ " informed") true o.Broadcast.result.Sim.Runner.all_informed;
      check_bool (name ^ " linear") true
        (o.Broadcast.result.Sim.Runner.stats.Obs.Counting.sent < 3 * Graph.n g))
    [
      ("bfs", fun g ~root -> Spanning.bfs g ~root);
      ("dfs", fun g ~root -> Spanning.dfs g ~root);
    ]

let test_nonzero_source () =
  let g = Families.build Families.Hypercube ~n:64 ~seed:0 in
  let o = Broadcast.run g ~source:17 in
  check_bool "informed" true o.Broadcast.result.Sim.Runner.all_informed

let test_single_node () =
  let g = Netgraph.Gen.path 1 in
  let o = Broadcast.run g ~source:0 in
  check_bool "informed" true o.Broadcast.result.Sim.Runner.all_informed;
  check_int "no messages" 0 o.Broadcast.result.Sim.Runner.stats.Obs.Counting.sent;
  check_int "no advice" 0 o.Broadcast.advice_bits

let test_zero_advice_fails () =
  (* Without advice nobody knows any port: no messages at all, broadcast
     fails on any nontrivial graph — the degenerate end of Theorem 3.2. *)
  let g = Netgraph.Gen.cycle 8 in
  let advice _ = Bitstring.Bitbuf.create () in
  let r = Sim.Runner.run ~advice g ~source:0 (Broadcast.scheme ()) in
  check_bool "not informed" false r.Sim.Runner.all_informed;
  check_int "silent network" 0 r.Sim.Runner.stats.Obs.Counting.sent

let test_label_independence () =
  let g = Families.build Families.Grid ~n:36 ~seed:53 in
  let permuted = Netgraph.Transform.permute_labels g (Random.State.make [| 59 |]) in
  let a = Broadcast.run g ~source:0 in
  let b = Broadcast.run permuted ~source:0 in
  check_int "same messages" a.Broadcast.result.Sim.Runner.stats.Obs.Counting.sent
    b.Broadcast.result.Sim.Runner.stats.Obs.Counting.sent

let qcheck_broadcast_random_graphs =
  QCheck.Test.make ~name:"broadcast: Theorem 3.1 on random graphs" ~count:50
    QCheck.(triple (int_range 2 48) (int_range 0 999) (int_range 0 4))
    (fun (n, seed, sched_idx) ->
      let st = Random.State.make [| n; seed |] in
      let g = Netgraph.Gen.random_connected ~n ~p:0.25 st in
      let scheduler = List.nth Sim.Scheduler.default_suite sched_idx in
      let o = Broadcast.run ~scheduler g ~source:(seed mod n) in
      o.Broadcast.result.Sim.Runner.all_informed
      && o.Broadcast.result.Sim.Runner.stats.Obs.Counting.sent < 3 * n
      && o.Broadcast.advice_bits <= 8 * n
      && o.Broadcast.tree_contribution <= 4 * n)

let suite =
  [
    Alcotest.test_case "Theorem 3.1 on every family" `Quick test_theorem_claims_all_families;
    Alcotest.test_case "all schedulers" `Quick test_all_schedulers;
    Alcotest.test_case "message breakdown" `Quick test_message_breakdown;
    Alcotest.test_case "trace invariants" `Quick test_trace_invariants;
    Alcotest.test_case "weight assignment" `Quick test_weight_assignment_unique_endpoint;
    Alcotest.test_case "advice decode roundtrip" `Quick test_decode_roundtrip;
    Alcotest.test_case "gamma encoding works" `Quick test_gamma_encoding_works;
    Alcotest.test_case "other trees still complete" `Quick test_other_trees_complete;
    Alcotest.test_case "non-zero source" `Quick test_nonzero_source;
    Alcotest.test_case "single node" `Quick test_single_node;
    Alcotest.test_case "zero advice fails" `Quick test_zero_advice_fails;
    Alcotest.test_case "label independence (anonymity)" `Quick test_label_independence;
    QCheck_alcotest.to_alcotest qcheck_broadcast_random_graphs;
  ]

let test_pure_paper_scheme_matches_stateful () =
  (* The paper's schemes are pure functions of the history (§1.4); wrap
     the stateful Scheme B as one via Scheme.of_pure (replaying the
     history each call) and check the executions coincide exactly. *)
  let pure_factory static =
    let replay history =
      let node = Broadcast.scheme () static in
      match List.rev history.Sim.History.received with
      | [] -> node.Sim.Scheme.on_start ()
      | (last_msg, last_port) :: older_rev ->
        ignore (node.Sim.Scheme.on_start ());
        List.iter
          (fun (msg, port) -> ignore (node.Sim.Scheme.on_receive msg ~port))
          (List.rev older_rev);
        node.Sim.Scheme.on_receive last_msg ~port:last_port
    in
    Sim.Scheme.of_pure replay static
  in
  List.iter
    (fun sched ->
      let g = Families.build Families.Sparse_random ~n:32 ~seed:223 in
      let o = Broadcast.oracle () in
      let advice = Oracles.Oracle.advice_fun o g ~source:0 in
      let pure_run = Sim.Runner.run ~scheduler:sched ~advice g ~source:0 pure_factory in
      let stateful_run = Sim.Runner.run ~scheduler:sched ~advice g ~source:0 (Broadcast.scheme ()) in
      check_bool (Sim.Scheduler.name sched ^ " informed") true pure_run.Sim.Runner.all_informed;
      check_int (Sim.Scheduler.name sched ^ " same sends")
        stateful_run.Sim.Runner.stats.Obs.Counting.sent pure_run.Sim.Runner.stats.Obs.Counting.sent;
      check_int (Sim.Scheduler.name sched ^ " same hellos")
        stateful_run.Sim.Runner.stats.Obs.Counting.hello_sent
        pure_run.Sim.Runner.stats.Obs.Counting.hello_sent)
    Sim.Scheduler.default_suite

let suite =
  suite
  @ [
      Alcotest.test_case "pure paper-style scheme matches stateful" `Quick
        test_pure_paper_scheme_matches_stateful;
    ]

(* A path of 600 000 nodes needs ~1.2M messages, within Theorem 3.1's
   3n but past the old fixed 10^6 cutoff: the default cap must grow
   with the graph so a run within its bound is never cut off. *)
let test_default_cap_scales_with_graph () =
  let n = 600_000 in
  let g = Netgraph.Gen.path n in
  let o = Broadcast.run ~scheduler:Sim.Scheduler.Synchronous g ~source:0 in
  let r = o.Broadcast.result in
  check_bool "all informed" true r.Sim.Runner.all_informed;
  check_bool "quiescent" true r.Sim.Runner.quiescent;
  check_bool "past the old 10^6 cap" true (r.Sim.Runner.stats.Obs.Counting.sent > 1_000_000)

let suite =
  suite
  @ [
      Alcotest.test_case "default message cap scales with the graph" `Slow
        test_default_cap_scales_with_graph;
    ]
