open Oracle_core
module Graph = Netgraph.Graph
module Families = Netgraph.Families

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_max_finding_all_families () =
  List.iter
    (fun fam ->
      let g = Families.build fam ~n:32 ~seed:113 in
      let o = Election.max_finding g in
      check_bool (Families.name fam ^ " unique max-label leader") true o.Election.ok;
      check_int (Families.name fam ^ " zero advice") 0 o.Election.advice_bits)
    Families.all

let test_max_finding_leader_is_max () =
  let g = Netgraph.Transform.permute_labels (Netgraph.Gen.cycle 15) (Random.State.make [| 5 |]) in
  let o = Election.max_finding g in
  match o.Election.leader with
  | Some v -> check_int "max label" 15 (Graph.label g v)
  | None -> Alcotest.fail "no unique leader"

let test_max_finding_all_schedulers () =
  let g = Families.build Families.Sparse_random ~n:24 ~seed:127 in
  List.iter
    (fun sched ->
      let o = Election.max_finding ~scheduler:sched g in
      check_bool (Sim.Scheduler.name sched) true o.Election.ok)
    Sim.Scheduler.default_suite

let test_marked_leader_one_bit () =
  List.iter
    (fun fam ->
      let g = Families.build fam ~n:32 ~seed:131 in
      let o = Election.with_marked_leader g in
      check_bool (Families.name fam ^ " ok") true o.Election.ok;
      check_int (Families.name fam ^ " one bit of advice") 1 o.Election.advice_bits;
      (* Announcement flooding: at most 2m messages. *)
      check_bool (Families.name fam ^ " cheap") true
        (o.Election.result.Sim.Runner.stats.Obs.Counting.sent <= 2 * Graph.m g))
    Families.all

let test_marked_leader_on_ring_messages () =
  let g = Netgraph.Gen.cycle 20 in
  let o = Election.with_marked_leader g in
  check_bool "ok" true o.Election.ok;
  (* Leader sends 2; each of the other n-1 nodes forwards once except the
     two whose announcements cross: n+1 or n messages. *)
  let sent = o.Election.result.Sim.Runner.stats.Obs.Counting.sent in
  check_bool (Printf.sprintf "n-ish messages (%d)" sent) true (sent >= 20 && sent <= 22)

let test_marked_oracle_shape () =
  let g = Families.build Families.Grid ~n:25 ~seed:137 in
  let advice = Election.marked_leader_oracle.Oracles.Oracle.advise g ~source:0 in
  check_int "total one bit" 1 (Oracles.Advice.size_bits advice);
  check_int "exactly one node advised" 1 (Oracles.Advice.nonempty_nodes advice)

let test_anonymous_impossibility () =
  List.iter
    (fun n ->
      let roles = Election.anonymous_attempt ~n in
      check_int (Printf.sprintf "n=%d all nodes" n) n (Array.length roles);
      (* Symmetry: every node reaches the same decision — never a unique
         leader. *)
      let first = roles.(0) in
      Array.iter
        (fun r -> check_bool "uniform decisions" true (r = first))
        roles;
      let leaders = Array.fold_left (fun acc r -> if r = Election.Leader then acc + 1 else acc) 0 roles in
      check_bool (Printf.sprintf "n=%d: no unique leader" n) true (leaders <> 1))
    [ 3; 4; 8; 16 ]

let test_election_vs_dissemination_difficulty () =
  (* The headline contrast: on the same network, election needs 1 advice
     bit, broadcast ~2n, wakeup ~n lg n. *)
  let g = Families.build Families.Sparse_random ~n:64 ~seed:139 in
  let e = Election.with_marked_leader g in
  let b = Broadcast.run g ~source:0 in
  let w = Wakeup.run g ~source:0 in
  check_bool "election << broadcast" true (e.Election.advice_bits * 50 < b.Broadcast.advice_bits);
  check_bool "broadcast << wakeup" true (2 * b.Broadcast.advice_bits < w.Wakeup.advice_bits)

let qcheck_max_finding =
  QCheck.Test.make ~name:"max-label flooding elects the max" ~count:40
    QCheck.(pair (int_range 2 40) (int_range 0 999))
    (fun (n, seed) ->
      let st = Random.State.make [| n; seed |] in
      let g =
        Netgraph.Transform.permute_labels (Netgraph.Gen.random_connected ~n ~p:0.2 st) st
      in
      let o = Election.max_finding g in
      o.Election.ok)

let suite =
  [
    Alcotest.test_case "max finding on all families" `Quick test_max_finding_all_families;
    Alcotest.test_case "leader is the max label" `Quick test_max_finding_leader_is_max;
    Alcotest.test_case "all schedulers" `Quick test_max_finding_all_schedulers;
    Alcotest.test_case "1-bit oracle elects" `Quick test_marked_leader_one_bit;
    Alcotest.test_case "ring announcement cost" `Quick test_marked_leader_on_ring_messages;
    Alcotest.test_case "oracle is exactly one bit" `Quick test_marked_oracle_shape;
    Alcotest.test_case "anonymous impossibility" `Quick test_anonymous_impossibility;
    Alcotest.test_case "difficulty ladder" `Quick test_election_vs_dissemination_difficulty;
    QCheck_alcotest.to_alcotest qcheck_max_finding;
  ]
