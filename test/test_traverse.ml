open Netgraph

let check_int = Alcotest.(check int)

let test_bfs_path () =
  let g = Gen.path 6 in
  let dist, parent = Traverse.bfs g ~root:0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4; 5 |] dist;
  check_int "root parent" (-1) parent.(0);
  check_int "chain parent" 2 parent.(3)

let test_bfs_cycle () =
  let g = Gen.cycle 6 in
  let dist, _ = Traverse.bfs g ~root:0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 2; 1 |] dist

let test_bfs_disconnected () =
  let g =
    Graph.make ~n:4
      [ { Graph.u = 0; pu = 0; v = 1; pv = 0 }; { Graph.u = 2; pu = 0; v = 3; pv = 0 } ]
  in
  let dist, parent = Traverse.bfs g ~root:0 in
  check_int "unreachable" (-1) dist.(2);
  check_int "no parent" (-1) parent.(3)

let test_dfs_spans () =
  let g = Gen.grid ~rows:4 ~cols:4 in
  let parent = Traverse.dfs_parents g ~root:0 in
  let reached = Array.make 16 false in
  reached.(0) <- true;
  Array.iteri (fun v p -> if p >= 0 then reached.(v) <- true) parent;
  Alcotest.(check bool) "all reached" true (Array.for_all (fun b -> b) reached)

let test_components () =
  let g =
    Graph.make ~n:5
      [ { Graph.u = 0; pu = 0; v = 1; pv = 0 }; { Graph.u = 2; pu = 0; v = 3; pv = 0 } ]
  in
  let comp, k = Traverse.components g in
  check_int "three components" 3 k;
  check_int "same component" comp.(0) comp.(1);
  Alcotest.(check bool) "different" true (comp.(0) <> comp.(2));
  Alcotest.(check bool) "isolated node" true (comp.(4) <> comp.(0) && comp.(4) <> comp.(2))

let test_diameter_known () =
  check_int "path" 5 (Traverse.diameter (Gen.path 6));
  check_int "cycle even" 3 (Traverse.diameter (Gen.cycle 6));
  check_int "cycle odd" 3 (Traverse.diameter (Gen.cycle 7));
  check_int "complete" 1 (Traverse.diameter (Gen.complete 5));
  check_int "star" 2 (Traverse.diameter (Gen.star 5));
  check_int "grid" 5 (Traverse.diameter (Gen.grid ~rows:3 ~cols:4));
  check_int "hypercube" 4 (Traverse.diameter (Gen.hypercube ~dim:4))

let test_eccentricity () =
  let g = Gen.path 5 in
  check_int "end" 4 (Traverse.eccentricity g 0);
  check_int "middle" 2 (Traverse.eccentricity g 2)

let test_eccentricity_disconnected () =
  let g =
    Graph.make ~n:3 [ { Graph.u = 0; pu = 0; v = 1; pv = 0 } ]
  in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Traverse.eccentricity: disconnected graph") (fun () ->
      ignore (Traverse.eccentricity g 0))

let test_distance () =
  let g = Gen.cycle 8 in
  Alcotest.(check (option int)) "around" (Some 4) (Traverse.distance g 0 4);
  Alcotest.(check (option int)) "self" (Some 0) (Traverse.distance g 3 3);
  let disc =
    Graph.make ~n:3 [ { Graph.u = 0; pu = 0; v = 1; pv = 0 } ]
  in
  Alcotest.(check (option int)) "unreachable" None (Traverse.distance disc 0 2)

let test_bfs_explores_in_port_order () =
  (* On the complete graph the BFS parent of every non-root node is the
     root, and children order follows ports. *)
  let g = Gen.complete 5 in
  let _, parent = Traverse.bfs g ~root:0 in
  for v = 1 to 4 do
    check_int (Printf.sprintf "parent %d" v) 0 parent.(v)
  done

(* The DFS tree of a long path is a single chain, so a walk that spends
   a call frame per level overflows a small stack.  Run the CLI (a test
   dependency) under a 256k-word stack limit and demand exit 0 and the
   default-stack run's stdout. *)
let test_dfs_deep_path_small_stack () =
  let run env =
    let out = Filename.temp_file "dfs-path" ".txt" in
    let code =
      Sys.command
        (Printf.sprintf "%s ../bin/oraclesize.exe broadcast -n 100000 --family path --tree dfs > %s"
           env (Filename.quote out))
    in
    let text = In_channel.with_open_bin out In_channel.input_all in
    Sys.remove out;
    (code, text)
  in
  let code, small = run "OCAMLRUNPARAM=l=256k" in
  check_int "exit code under a 256k-word stack" 0 code;
  let code, default = run "" in
  check_int "exit code" 0 code;
  Alcotest.(check string) "same stdout as a default-stack run" default small

let suite =
  [
    Alcotest.test_case "bfs on path" `Quick test_bfs_path;
    Alcotest.test_case "bfs on cycle" `Quick test_bfs_cycle;
    Alcotest.test_case "bfs on disconnected" `Quick test_bfs_disconnected;
    Alcotest.test_case "dfs spans" `Quick test_dfs_spans;
    Alcotest.test_case "components" `Quick test_components;
    Alcotest.test_case "diameter of known graphs" `Quick test_diameter_known;
    Alcotest.test_case "eccentricity" `Quick test_eccentricity;
    Alcotest.test_case "eccentricity on disconnected" `Quick test_eccentricity_disconnected;
    Alcotest.test_case "distance" `Quick test_distance;
    Alcotest.test_case "bfs port order" `Quick test_bfs_explores_in_port_order;
    Alcotest.test_case "dfs on a 10^5-node path under a small stack" `Quick
      test_dfs_deep_path_small_stack;
  ]
