open Netgraph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let triangle () =
  (* 0 -[0|0]- 1, 1 -[1|1]- 2, 2 -[0|1]- 0 *)
  Graph.make ~n:3
    [
      { Graph.u = 0; pu = 0; v = 1; pv = 0 };
      { Graph.u = 1; pu = 1; v = 2; pv = 1 };
      { Graph.u = 2; pu = 0; v = 0; pv = 1 };
    ]

let test_basic_accessors () =
  let g = triangle () in
  check_int "n" 3 (Graph.n g);
  check_int "m" 3 (Graph.m g);
  check_int "deg 0" 2 (Graph.degree g 0);
  check_int "label default" 1 (Graph.label g 0)

let test_labels_default_and_custom () =
  let g = triangle () in
  Alcotest.(check (array int)) "default 1..n" [| 1; 2; 3 |] (Graph.labels g);
  check_int "node_of_label" 2 (Graph.node_of_label g 3);
  let g2 =
    Graph.make ~labels:[| 10; 20; 30 |] ~n:3
      [
        { Graph.u = 0; pu = 0; v = 1; pv = 0 };
        { Graph.u = 1; pu = 1; v = 2; pv = 1 };
        { Graph.u = 2; pu = 0; v = 0; pv = 1 };
      ]
  in
  check_int "custom label" 20 (Graph.label g2 1);
  Alcotest.check_raises "unknown label" Not_found (fun () ->
      ignore (Graph.node_of_label g2 99))

let test_endpoint_and_ports () =
  let g = triangle () in
  Alcotest.(check (pair int int)) "0 port 0 -> 1" (1, 0) (Graph.endpoint g 0 0);
  Alcotest.(check (pair int int)) "0 port 1 -> 2" (2, 0) (Graph.endpoint g 0 1);
  Alcotest.(check (pair int int)) "2 port 1 -> 1" (1, 1) (Graph.endpoint g 2 1);
  Alcotest.(check (option int)) "port_to 1->2" (Some 1) (Graph.port_to g 1 2);
  Alcotest.(check (option int)) "port_to none" None (Graph.port_to g 0 0);
  check_bool "has_edge" true (Graph.has_edge g 0 2)

let test_endpoint_bad_port () =
  let g = triangle () in
  Alcotest.check_raises "bad port" (Invalid_argument "Graph.endpoint: port 5 out of range at node 0")
    (fun () -> ignore (Graph.endpoint g 0 5))

let test_neighbors_in_port_order () =
  let g = triangle () in
  Alcotest.(check (list (triple int int int)))
    "node 0" [ (0, 1, 0); (1, 2, 0) ] (Graph.neighbors g 0)

let test_edges_listed_once () =
  let g = triangle () in
  let es = Graph.edges g in
  check_int "3 edges" 3 (List.length es);
  List.iter (fun e -> check_bool "u<v" true (e.Graph.u < e.Graph.v)) es

let test_edge_weight_is_min_port () =
  let g = triangle () in
  let e = List.find (fun e -> e.Graph.u = 1 && e.Graph.v = 2) (Graph.edges g) in
  check_int "w({1,2}) = min(1,1)" 1 (Graph.edge_weight g e);
  let e02 = List.find (fun e -> e.Graph.u = 0 && e.Graph.v = 2) (Graph.edges g) in
  check_int "w({0,2}) = min(1,0)" 0 (Graph.edge_weight g e02)

let test_connectivity () =
  check_bool "triangle connected" true (Graph.is_connected (triangle ()));
  let disconnected =
    Graph.make ~n:4
      [ { Graph.u = 0; pu = 0; v = 1; pv = 0 }; { Graph.u = 2; pu = 0; v = 3; pv = 0 } ]
  in
  check_bool "two components" false (Graph.is_connected disconnected)

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let test_make_rejects_malformed () =
  expect_invalid "self-loop" (fun () ->
      Graph.make ~n:2 [ { Graph.u = 0; pu = 0; v = 0; pv = 1 } ]);
  expect_invalid "duplicate port" (fun () ->
      Graph.make ~n:3
        [
          { Graph.u = 0; pu = 0; v = 1; pv = 0 };
          { Graph.u = 0; pu = 0; v = 2; pv = 0 };
        ]);
  expect_invalid "port out of range" (fun () ->
      Graph.make ~n:2 [ { Graph.u = 0; pu = 1; v = 1; pv = 0 } ]);
  expect_invalid "parallel edges" (fun () ->
      Graph.make ~n:2
        [
          { Graph.u = 0; pu = 0; v = 1; pv = 0 };
          { Graph.u = 0; pu = 1; v = 1; pv = 1 };
        ]);
  expect_invalid "node out of range" (fun () ->
      Graph.make ~n:2 [ { Graph.u = 0; pu = 0; v = 5; pv = 0 } ]);
  expect_invalid "duplicate labels" (fun () ->
      Graph.make ~labels:[| 1; 1 |] ~n:2 [ { Graph.u = 0; pu = 0; v = 1; pv = 0 } ]);
  expect_invalid "label count mismatch" (fun () ->
      Graph.make ~labels:[| 1 |] ~n:2 [ { Graph.u = 0; pu = 0; v = 1; pv = 0 } ])

let test_of_adjacency () =
  let g = Graph_helpers.of_adjacency [| [ 1; 2 ]; [ 0 ]; [ 0 ] |] in
  check_int "n" 3 (Graph.n g);
  check_int "m" 2 (Graph.m g);
  Alcotest.(check (pair int int)) "ports by list order" (1, 0) (Graph.endpoint g 0 0);
  Alcotest.(check (pair int int)) "second port" (2, 0) (Graph.endpoint g 0 1)

let test_of_adjacency_asymmetric () =
  expect_invalid "asymmetric" (fun () -> Graph_helpers.of_adjacency [| [ 1 ]; [] |])

let test_validate_ok () =
  Alcotest.(check (result unit string)) "valid" (Ok ()) (Graph.validate (triangle ()))

let test_equal () =
  check_bool "same" true (Graph.equal (triangle ()) (triangle ()));
  let other =
    Graph.make ~n:3
      [
        { Graph.u = 0; pu = 1; v = 1; pv = 0 };
        { Graph.u = 1; pu = 1; v = 2; pv = 1 };
        { Graph.u = 2; pu = 0; v = 0; pv = 0 };
      ]
  in
  check_bool "different ports" false (Graph.equal (triangle ()) other)

let test_edge_list_string_stable () =
  Alcotest.(check string)
    "golden" "n=3 m=3\n0[0]--1[0]\n0[1]--2[0]\n1[1]--2[1]\n"
    (Graph.to_edge_list_string (triangle ()))

let test_fold_edges () =
  let total = Graph.fold_edges (fun e acc -> acc + e.Graph.pu + e.Graph.pv) (triangle ()) 0 in
  check_int "port sum" 3 total

let suite =
  [
    Alcotest.test_case "basic accessors" `Quick test_basic_accessors;
    Alcotest.test_case "labels" `Quick test_labels_default_and_custom;
    Alcotest.test_case "endpoint/port_to/has_edge" `Quick test_endpoint_and_ports;
    Alcotest.test_case "endpoint bad port" `Quick test_endpoint_bad_port;
    Alcotest.test_case "neighbors in port order" `Quick test_neighbors_in_port_order;
    Alcotest.test_case "edges listed once" `Quick test_edges_listed_once;
    Alcotest.test_case "edge weight = min port" `Quick test_edge_weight_is_min_port;
    Alcotest.test_case "connectivity" `Quick test_connectivity;
    Alcotest.test_case "make rejects malformed input" `Quick test_make_rejects_malformed;
    Alcotest.test_case "of_adjacency" `Quick test_of_adjacency;
    Alcotest.test_case "of_adjacency asymmetric" `Quick test_of_adjacency_asymmetric;
    Alcotest.test_case "validate ok" `Quick test_validate_ok;
    Alcotest.test_case "equal" `Quick test_equal;
    Alcotest.test_case "edge list dump is stable" `Quick test_edge_list_string_stable;
    Alcotest.test_case "fold_edges" `Quick test_fold_edges;
  ]
