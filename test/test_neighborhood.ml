open Oracle_core
module Graph = Netgraph.Graph
module Families = Netgraph.Families

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_blind_wakes_everyone () =
  let g = Families.build Families.Dense_random ~n:24 ~seed:101 in
  let o = Neighborhood.run ~rho:0 g ~source:0 in
  check_bool "informed" true o.Neighborhood.result.Sim.Runner.all_informed;
  check_int "zero advice" 0 o.Neighborhood.advice_bits;
  (* Blind token DFS: bounded by ~4m. *)
  check_bool "Theta(m) messages" true
    (o.Neighborhood.result.Sim.Runner.stats.Obs.Counting.sent <= 4 * Graph.m g)

let test_radius_one_is_2n () =
  List.iter
    (fun fam ->
      let g = Families.build fam ~n:32 ~seed:103 in
      let n = Graph.n g in
      let o = Neighborhood.run ~rho:1 g ~source:0 in
      check_bool (Families.name fam ^ " informed") true
        o.Neighborhood.result.Sim.Runner.all_informed;
      check_int (Families.name fam ^ " messages") (2 * (n - 1))
        o.Neighborhood.result.Sim.Runner.stats.Obs.Counting.sent)
    Families.all

let test_messages_drop_at_radius_one () =
  (* The AGPV shape: rho 0 -> 1 collapses messages from Theta(m) to 2(n-1),
     and rho >= 2 buys nothing more while the advice keeps growing. *)
  let g = Families.build Families.Complete ~n:32 ~seed:0 in
  let m0 = Neighborhood.run ~rho:0 g ~source:0 in
  let m1 = Neighborhood.run ~rho:1 g ~source:0 in
  let m2 = Neighborhood.run ~rho:2 g ~source:0 in
  check_bool "big drop" true
    (m0.Neighborhood.result.Sim.Runner.stats.Obs.Counting.sent
    > 4 * m1.Neighborhood.result.Sim.Runner.stats.Obs.Counting.sent);
  check_int "no further gain"
    m1.Neighborhood.result.Sim.Runner.stats.Obs.Counting.sent
    m2.Neighborhood.result.Sim.Runner.stats.Obs.Counting.sent;
  check_bool "advice grows" true
    (m2.Neighborhood.advice_bits > 2 * m1.Neighborhood.advice_bits);
  check_bool "rho-1 advice already Theta(m log n)" true
    (m1.Neighborhood.advice_bits > Graph.m g)

let test_decode_port_labels () =
  let g = Netgraph.Gen.star 5 in
  let o = Neighborhood.oracle ~rho:1 in
  let advice = o.Oracles.Oracle.advise g ~source:0 in
  let rho, labels =
    Neighborhood.decode_port_labels ~degree:4 (Oracles.Advice.get advice 0)
  in
  check_int "rho" 1 rho;
  Alcotest.(check (list int)) "center's neighbors" [ 2; 3; 4; 5 ] labels;
  let rho0, labels0 =
    Neighborhood.decode_port_labels ~degree:4 (Bitstring.Bitbuf.create ())
  in
  check_int "empty advice is rho 0" 0 rho0;
  Alcotest.(check (list int)) "no labels" [] labels0

let test_is_wakeup_scheme () =
  let g = Families.build Families.Grid ~n:16 ~seed:107 in
  let o = Neighborhood.oracle ~rho:1 in
  let advice = Oracles.Oracle.advice_fun o g ~source:0 in
  check_bool "silent until woken" true
    (Sim.Runner.run_silent_network_check ~advice g ~source:0 Neighborhood.scheme)

let test_nonzero_source () =
  let g = Families.build Families.Torus ~n:25 ~seed:109 in
  let o = Neighborhood.run ~rho:1 g ~source:7 in
  check_bool "informed" true o.Neighborhood.result.Sim.Runner.all_informed

let test_single_node () =
  let g = Netgraph.Gen.path 1 in
  let o = Neighborhood.run ~rho:1 g ~source:0 in
  check_bool "informed" true o.Neighborhood.result.Sim.Runner.all_informed;
  check_int "no messages" 0 o.Neighborhood.result.Sim.Runner.stats.Obs.Counting.sent

let test_negative_radius_rejected () =
  match Neighborhood.oracle ~rho:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative radius must be rejected"

let qcheck_token_dfs =
  QCheck.Test.make ~name:"token DFS wakes everyone at every radius" ~count:40
    QCheck.(triple (int_range 2 32) (int_range 0 999) (int_range 0 2))
    (fun (n, seed, rho) ->
      let st = Random.State.make [| n; seed |] in
      let g = Netgraph.Gen.random_connected ~n ~p:0.25 st in
      let o = Neighborhood.run ~rho g ~source:(seed mod n) in
      o.Neighborhood.result.Sim.Runner.all_informed
      && (rho = 0
         || o.Neighborhood.result.Sim.Runner.stats.Obs.Counting.sent = 2 * (n - 1)))

let suite =
  [
    Alcotest.test_case "rho=0 blind probing" `Quick test_blind_wakes_everyone;
    Alcotest.test_case "rho=1 gives 2(n-1) messages" `Quick test_radius_one_is_2n;
    Alcotest.test_case "AGPV trade-off shape" `Quick test_messages_drop_at_radius_one;
    Alcotest.test_case "advice decode" `Quick test_decode_port_labels;
    Alcotest.test_case "wakeup restriction" `Quick test_is_wakeup_scheme;
    Alcotest.test_case "non-zero source" `Quick test_nonzero_source;
    Alcotest.test_case "single node" `Quick test_single_node;
    Alcotest.test_case "negative radius" `Quick test_negative_radius_rejected;
    QCheck_alcotest.to_alcotest qcheck_token_dfs;
  ]

let test_all_schedulers_rho1 () =
  let g = Families.build Families.Grid ~n:25 ~seed:233 in
  List.iter
    (fun sched ->
      let o = Neighborhood.run ~scheduler:sched ~rho:1 g ~source:0 in
      check_bool (Sim.Scheduler.name sched) true o.Neighborhood.result.Sim.Runner.all_informed;
      check_int (Sim.Scheduler.name sched) (2 * (Graph.n g - 1))
        o.Neighborhood.result.Sim.Runner.stats.Obs.Counting.sent)
    Sim.Scheduler.default_suite

let suite =
  suite @ [ Alcotest.test_case "token DFS under all schedulers" `Quick test_all_schedulers_rho1 ]
