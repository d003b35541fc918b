module Bitbuf = Bitstring.Bitbuf
module Graph = Netgraph.Graph
module Advice = Oracles.Advice
module Oracle = Oracles.Oracle
module Baselines = Oracles.Baselines

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 Advice} *)

let test_advice_accounting () =
  let a = Advice.make [| Bitbuf.of_string "101"; Bitbuf.create (); Bitbuf.of_string "1" |] in
  check_int "n" 3 (Advice.n a);
  check_int "size" 4 (Advice.size_bits a);
  check_int "nonempty" 2 (Advice.nonempty_nodes a);
  check_int "max" 3 (Advice.max_node_bits a);
  check_bool "get" true (Bitbuf.equal (Advice.get a 0) (Bitbuf.of_string "101"))

let test_advice_empty () =
  let a = Advice.empty ~n:5 in
  check_int "size" 0 (Advice.size_bits a);
  check_int "nonempty" 0 (Advice.nonempty_nodes a);
  check_int "max" 0 (Advice.max_node_bits a)

(* {1 Oracle} *)

let test_empty_oracle () =
  let g = Netgraph.Gen.grid ~rows:3 ~cols:3 in
  check_int "size 0" 0 (Oracle.size_on Oracle.empty g ~source:0)

let test_advice_fun () =
  let g = Netgraph.Gen.path 4 in
  let f = Oracle.advice_fun Baselines.parent_port g ~source:0 in
  check_int "root empty" 0 (Bitbuf.length (f 0));
  check_bool "non-root nonempty" true (Bitbuf.length (f 3) > 0)

let test_truncate_zero () =
  let g = Netgraph.Gen.complete 6 in
  let t = Oracle.truncate Baselines.full_map ~budget:0 in
  check_int "all clipped" 0 (Oracle.size_on t g ~source:0)

let test_truncate_generous () =
  let g = Netgraph.Gen.complete 6 in
  let full = Oracle.size_on Baselines.full_map g ~source:0 in
  let t = Oracle.truncate Baselines.full_map ~budget:(full * 2) in
  check_int "unchanged" full (Oracle.size_on t g ~source:0)

let test_truncate_prefix () =
  let g = Netgraph.Gen.path 5 in
  let budget = 7 in
  let t = Oracle.truncate Baselines.full_map ~budget in
  let full_advice = Baselines.full_map.Oracle.advise g ~source:0 in
  let cut_advice = t.Oracle.advise g ~source:0 in
  check_int "budget respected" budget (Advice.size_bits cut_advice);
  (* The first node's string is a prefix of the original. *)
  let orig = Advice.get full_advice 0 in
  let cut = Advice.get cut_advice 0 in
  check_int "first node got everything available" (min budget (Bitbuf.length orig))
    (Bitbuf.length cut);
  for i = 0 to Bitbuf.length cut - 1 do
    check_bool "prefix bit" (Bitbuf.get orig i) (Bitbuf.get cut i)
  done

let test_truncate_negative () =
  match Oracle.truncate Oracle.empty ~budget:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative budget must be rejected"

(* {1 Baselines} *)

let test_full_map_decodes () =
  let g = Netgraph.Gen.grid ~rows:3 ~cols:4 in
  let advice = Baselines.full_map.Oracle.advise g ~source:0 in
  for v = 0 to Graph.n g - 1 do
    check_bool
      (Printf.sprintf "node %d can reconstruct G" v)
      true
      (Graph.equal g (Baselines.decode_map (Advice.get advice v)))
  done

let test_source_map_only_source () =
  let g = Netgraph.Gen.cycle 6 in
  let advice = Baselines.source_map.Oracle.advise g ~source:2 in
  check_int "one node advised" 1 (Advice.nonempty_nodes advice);
  check_bool "it is the source" true (Bitbuf.length (Advice.get advice 2) > 0);
  check_bool "decodes" true (Graph.equal g (Baselines.decode_map (Advice.get advice 2)))

let test_neighbor_labels () =
  let g = Netgraph.Gen.star 5 in
  let advice = Baselines.neighbor_labels.Oracle.advise g ~source:0 in
  (* Center (index 0) has all leaves as neighbors: labels 2,3,4,5. *)
  let r = Bitbuf.reader (Advice.get advice 0) in
  let decoded = List.init 4 (fun _ -> Bitstring.Codes.read_gamma r) in
  Alcotest.(check (list int)) "center sees leaves" [ 2; 3; 4; 5 ] decoded

let test_bfs_children_fixed_decodes () =
  let g = Netgraph.Gen.complete 7 in
  let advice = Baselines.bfs_children_fixed.Oracle.advise g ~source:0 in
  let tree = Netgraph.Spanning.bfs g ~root:0 in
  for v = 0 to 6 do
    Alcotest.(check (list int))
      (Printf.sprintf "node %d ports" v)
      (Netgraph.Spanning.children_ports tree v)
      (Baselines.decode_children_fixed (Advice.get advice v))
  done

let test_parent_port () =
  let g = Netgraph.Gen.path 4 in
  let advice = Baselines.parent_port.Oracle.advise g ~source:0 in
  check_int "root gets nothing" 0 (Bitbuf.length (Advice.get advice 0));
  (* Node 3's parent is node 2, reached via its port 0. *)
  let r = Bitbuf.reader (Advice.get advice 3) in
  check_int "port to parent" 0 (Bitstring.Codes.read_gamma r)

let test_baseline_size_ordering () =
  let g = Netgraph.Gen.random_connected ~n:30 ~p:0.3 (Random.State.make [| 21 |]) in
  let size o = Oracle.size_on o g ~source:0 in
  check_bool "full >= source" true (size Baselines.full_map >= size Baselines.source_map);
  check_bool "full = n * source" true
    (size Baselines.full_map = Graph.n g * size Baselines.source_map);
  check_bool "children <= neighbor-labels" true
    (size Baselines.bfs_children_fixed <= size Baselines.neighbor_labels)

let test_all_baselines_have_distinct_names () =
  let names = List.map (fun o -> o.Oracle.name) Baselines.all in
  check_int "distinct" (List.length names) (List.length (List.sort_uniq compare names))

let suite =
  [
    Alcotest.test_case "advice accounting" `Quick test_advice_accounting;
    Alcotest.test_case "empty advice" `Quick test_advice_empty;
    Alcotest.test_case "empty oracle" `Quick test_empty_oracle;
    Alcotest.test_case "advice_fun" `Quick test_advice_fun;
    Alcotest.test_case "truncate to zero" `Quick test_truncate_zero;
    Alcotest.test_case "truncate with slack" `Quick test_truncate_generous;
    Alcotest.test_case "truncate keeps prefixes" `Quick test_truncate_prefix;
    Alcotest.test_case "truncate rejects negatives" `Quick test_truncate_negative;
    Alcotest.test_case "full map decodes at every node" `Quick test_full_map_decodes;
    Alcotest.test_case "source map advises only the source" `Quick test_source_map_only_source;
    Alcotest.test_case "neighbor labels" `Quick test_neighbor_labels;
    Alcotest.test_case "bfs children decode" `Quick test_bfs_children_fixed_decodes;
    Alcotest.test_case "parent port" `Quick test_parent_port;
    Alcotest.test_case "baseline size ordering" `Quick test_baseline_size_ordering;
    Alcotest.test_case "distinct baseline names" `Quick test_all_baselines_have_distinct_names;
  ]

let test_union_oracle () =
  let g = Netgraph.Gen.grid ~rows:3 ~cols:3 in
  let u = Oracle.union ~name:"both" Baselines.parent_port Baselines.bfs_children_fixed in
  check_int "size adds" 
    (Oracle.size_on Baselines.parent_port g ~source:0
    + Oracle.size_on Baselines.bfs_children_fixed g ~source:0)
    (Oracle.size_on u g ~source:0);
  (* The first component decodes off the front (gamma is self-delimiting). *)
  let advice = u.Oracle.advise g ~source:0 in
  let r = Bitbuf.reader (Advice.get advice 8) in
  let tree = Netgraph.Spanning.bfs g ~root:0 in
  let expected_parent =
    match Netgraph.Spanning.parent tree 8 with Some (_, p) -> p | None -> -1
  in
  check_int "first component readable" expected_parent (Bitstring.Codes.read_gamma r)

let suite =
  suite @ [ Alcotest.test_case "union oracle" `Quick test_union_oracle ]
