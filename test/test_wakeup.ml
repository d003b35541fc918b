open Oracle_core
module Graph = Netgraph.Graph
module Families = Netgraph.Families

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let family_graphs n =
  List.map (fun fam -> (Families.name fam, Families.build fam ~n ~seed:17)) Families.all

(* Theorem 2.1's two claims: exactly n-1 messages, everyone informed. *)
let test_exact_messages_all_families () =
  List.iter
    (fun (name, g) ->
      let o = Wakeup.run g ~source:0 in
      check_bool (name ^ " informed") true o.Wakeup.result.Sim.Runner.all_informed;
      check_int (name ^ " messages") (Graph.n g - 1) o.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent;
      check_bool (name ^ " tree ok") true o.Wakeup.tree_ok;
      check_bool (name ^ " advice accounted") true (o.Wakeup.advice_bits > 0))
    (family_graphs 48)

let test_all_schedulers () =
  let g = Families.build Families.Sparse_random ~n:40 ~seed:3 in
  List.iter
    (fun sched ->
      let o = Wakeup.run ~scheduler:sched g ~source:0 in
      check_bool (Sim.Scheduler.name sched) true o.Wakeup.result.Sim.Runner.all_informed;
      check_int (Sim.Scheduler.name sched) (Graph.n g - 1)
        o.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent)
    Sim.Scheduler.default_suite

let test_advice_within_bound () =
  List.iter
    (fun (name, g) ->
      let o = Wakeup.run g ~source:0 in
      let bound = Bounds.wakeup_advice_upper ~n:(Graph.n g) in
      check_bool
        (Printf.sprintf "%s: %d <= %d" name o.Wakeup.advice_bits bound)
        true (o.Wakeup.advice_bits <= bound))
    (family_graphs 64)

let test_nonzero_source () =
  let g = Families.build Families.Grid ~n:36 ~seed:5 in
  let source = Graph.n g / 2 in
  let o = Wakeup.run g ~source in
  check_bool "informed" true o.Wakeup.result.Sim.Runner.all_informed;
  check_int "messages" (Graph.n g - 1) o.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent

let test_single_node () =
  let g = Netgraph.Gen.path 1 in
  let o = Wakeup.run g ~source:0 in
  check_bool "informed" true o.Wakeup.result.Sim.Runner.all_informed;
  check_int "zero messages" 0 o.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent;
  check_int "zero advice" 0 o.Wakeup.advice_bits

let test_two_nodes () =
  let g = Netgraph.Gen.path 2 in
  let o = Wakeup.run g ~source:1 in
  check_bool "informed" true o.Wakeup.result.Sim.Runner.all_informed;
  check_int "one message" 1 o.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent

let test_encodings_roundtrip () =
  let ports = [ 0; 5; 3; 12 ] in
  List.iter
    (fun enc ->
      let buf = Bitstring.Bitbuf.create () in
      (* encode via the oracle path: use a star graph where node 0's
         children ports are exactly 0..n-2. *)
      ignore buf;
      let g = Netgraph.Gen.star 6 in
      let o = Wakeup.oracle ~encoding:enc () in
      let advice = o.Oracles.Oracle.advise g ~source:0 in
      let decoded = Wakeup.decode_ports enc (Oracles.Advice.get advice 0) in
      Alcotest.(check (list int))
        (Wakeup.encoding_name enc ^ " decodes center")
        [ 0; 1; 2; 3; 4 ] (List.sort compare decoded))
    [ Wakeup.Paper; Wakeup.Paper_minimal; Wakeup.Gamma ];
  ignore ports

(* The plain scheme decodes its advice when it wakes, straight into
   its sends: in advice stream order (not sorted), once, in every
   encoding; a malformed width header raises at wake, not when the node
   is built, with the decoder's own message. *)
let test_sends_in_stream_order () =
  let module Bitbuf = Bitstring.Bitbuf in
  let module Codes = Bitstring.Codes in
  let ports = [ 5; 2; 7; 0; 6 ] in
  let advice enc =
    let buf = Bitbuf.create () in
    (match enc with
    | Wakeup.Paper -> Codes.write_port_list buf ~width:4 ports
    | Wakeup.Paper_minimal -> Codes.write_port_list buf ~width:3 ports
    | Wakeup.Gamma -> List.iter (Codes.write_gamma buf) ports);
    buf
  in
  let static ?(is_source = false) advice = { Sim.History.advice; is_source; id = 1; degree = 8 } in
  let sends = Alcotest.(list (pair (of_pp Sim.Message.pp) int)) in
  let expected = List.map (fun p -> (Sim.Message.Source, p)) ports in
  List.iter
    (fun enc ->
      let name = Wakeup.encoding_name enc in
      let node = Wakeup.scheme ~encoding:enc () (static (advice enc)) in
      Alcotest.check sends (name ^ ": silent at start") [] (node.Sim.Scheme.on_start ());
      Alcotest.check sends (name ^ ": a Hello does not wake") []
        (node.Sim.Scheme.on_receive Sim.Message.Hello ~port:0);
      Alcotest.check sends (name ^ ": woken, in stream order") expected
        (node.Sim.Scheme.on_receive Sim.Message.Source ~port:3);
      Alcotest.check sends (name ^ ": woken once") []
        (node.Sim.Scheme.on_receive Sim.Message.Source ~port:1);
      let source = Wakeup.scheme ~encoding:enc () (static ~is_source:true (advice enc)) in
      Alcotest.check sends (name ^ ": the source starts in stream order") expected
        (source.Sim.Scheme.on_start ());
      Alcotest.check sends (name ^ ": and stays quiet after") []
        (source.Sim.Scheme.on_receive Sim.Message.Source ~port:0);
      Alcotest.check Alcotest.(list int) (name ^ ": decode_ports reads the same order") ports
        (Wakeup.decode_ports enc (advice enc)))
    [ Wakeup.Paper; Wakeup.Paper_minimal; Wakeup.Gamma ];
  let malformed = Invalid_argument "Codes.read_port_list: malformed width header" in
  List.iter
    (fun enc ->
      let node = Wakeup.scheme ~encoding:enc () (static (Bitbuf.of_string "0110")) in
      Alcotest.check_raises (Wakeup.encoding_name enc ^ ": malformed header raises at wake")
        malformed (fun () -> ignore (node.Sim.Scheme.on_receive Sim.Message.Source ~port:0)))
    [ Wakeup.Paper; Wakeup.Paper_minimal ];
  (* The same error out of a run: node 1 of a path wakes on bad advice. *)
  let g = Netgraph.Gen.path 4 in
  let good = (Wakeup.oracle ()).Oracles.Oracle.advise g ~source:0 in
  let advice v = if v = 1 then Bitbuf.of_string "0110" else Oracles.Advice.get good v in
  Alcotest.check_raises "a run raises it when node 1 wakes" malformed (fun () ->
      ignore (Sim.Runner.run ~advice g ~source:0 (Wakeup.scheme ())))

let test_encodings_all_work () =
  let g = Families.build Families.Dense_random ~n:32 ~seed:9 in
  List.iter
    (fun enc ->
      let o = Wakeup.run ~encoding:enc g ~source:0 in
      check_bool (Wakeup.encoding_name enc) true o.Wakeup.result.Sim.Runner.all_informed;
      check_int (Wakeup.encoding_name enc) (Graph.n g - 1)
        o.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent)
    [ Wakeup.Paper; Wakeup.Paper_minimal; Wakeup.Gamma ]

let test_minimal_never_larger () =
  List.iter
    (fun (name, g) ->
      let paper = Wakeup.run ~encoding:Wakeup.Paper g ~source:0 in
      let minimal = Wakeup.run ~encoding:Wakeup.Paper_minimal g ~source:0 in
      check_bool name true (minimal.Wakeup.advice_bits <= paper.Wakeup.advice_bits))
    (family_graphs 40)

let test_alternate_trees () =
  let g = Families.build Families.Dense_random ~n:36 ~seed:11 in
  let st = Random.State.make [| 13 |] in
  List.iter
    (fun (name, tree) ->
      let o = Wakeup.run ~tree g ~source:0 in
      check_bool (name ^ " informed") true o.Wakeup.result.Sim.Runner.all_informed;
      check_int (name ^ " messages") (Graph.n g - 1)
        o.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent)
    [
      ("dfs", fun g ~root -> Netgraph.Spanning.dfs g ~root);
      ("light", fun g ~root -> Netgraph.Spanning.light g ~root);
      ("random", fun g ~root -> Netgraph.Spanning.random g ~root st);
    ]

let test_scheme_is_a_wakeup_scheme () =
  (* No node transmits before being woken; check_wakeup inside run would
     raise, and the explicit silent-network check passes. *)
  let g = Families.build Families.Torus ~n:25 ~seed:2 in
  let o = Wakeup.oracle () in
  let advice = Oracles.Oracle.advice_fun o g ~source:0 in
  check_bool "silent before wakeup" true
    (Sim.Runner.run_silent_network_check ~advice g ~source:0 (Wakeup.scheme ()))

let test_label_independence () =
  (* The scheme is anonymous: permuting labels must not change the message
     count or outcome. *)
  let g = Families.build Families.Sparse_random ~n:32 ~seed:19 in
  let permuted = Netgraph.Transform.permute_labels g (Random.State.make [| 23 |]) in
  let a = Wakeup.run g ~source:0 in
  let b = Wakeup.run permuted ~source:0 in
  check_int "same messages" a.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent
    b.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent;
  check_bool "both informed" true
    (a.Wakeup.result.Sim.Runner.all_informed && b.Wakeup.result.Sim.Runner.all_informed)

let test_one_bit_messages () =
  (* Theorem 2.1 holds with bounded-size messages: everything on the wire
     is the 1-bit source message. *)
  let g = Families.build Families.Hypercube ~n:32 ~seed:0 in
  let o = Wakeup.run g ~source:0 in
  check_int "bits = messages" o.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent
    o.Wakeup.result.Sim.Runner.stats.Obs.Counting.bits_on_wire

let qcheck_wakeup_random_graphs =
  QCheck.Test.make ~name:"wakeup: n-1 messages on random graphs" ~count:50
    QCheck.(triple (int_range 2 48) (int_range 0 999) (int_range 0 3))
    (fun (n, seed, sched_idx) ->
      let st = Random.State.make [| n; seed |] in
      let g = Netgraph.Gen.random_connected ~n ~p:0.2 st in
      let scheduler = List.nth Sim.Scheduler.default_suite sched_idx in
      let o = Wakeup.run ~scheduler g ~source:(seed mod n) in
      o.Wakeup.result.Sim.Runner.all_informed
      && o.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent = n - 1
      && o.Wakeup.advice_bits <= Bounds.wakeup_advice_upper ~n)

let suite =
  [
    Alcotest.test_case "n-1 messages on every family" `Quick test_exact_messages_all_families;
    Alcotest.test_case "all schedulers" `Quick test_all_schedulers;
    Alcotest.test_case "advice within Theorem 2.1 bound" `Quick test_advice_within_bound;
    Alcotest.test_case "non-zero source" `Quick test_nonzero_source;
    Alcotest.test_case "single node" `Quick test_single_node;
    Alcotest.test_case "two nodes" `Quick test_two_nodes;
    Alcotest.test_case "encodings decode children" `Quick test_encodings_roundtrip;
    Alcotest.test_case "all encodings wake everyone" `Quick test_encodings_all_work;
    Alcotest.test_case "sends in advice stream order" `Quick test_sends_in_stream_order;
    Alcotest.test_case "minimal width never larger" `Quick test_minimal_never_larger;
    Alcotest.test_case "alternate spanning trees" `Quick test_alternate_trees;
    Alcotest.test_case "respects the wakeup restriction" `Quick test_scheme_is_a_wakeup_scheme;
    Alcotest.test_case "label independence (anonymity)" `Quick test_label_independence;
    Alcotest.test_case "1-bit messages suffice" `Quick test_one_bit_messages;
    QCheck_alcotest.to_alcotest qcheck_wakeup_random_graphs;
  ]
