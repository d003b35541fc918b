open Oracle_core
module Graph = Netgraph.Graph
module LB = Lower_bound

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 G_{n,S}} *)

let test_wakeup_hard_graph_shape () =
  let n = 12 in
  let g, chosen = LB.wakeup_hard_graph ~n ~seed:5 in
  check_int "2n nodes" (2 * n) (Graph.n g);
  check_int "n chosen edges" n (List.length chosen);
  (match Graph.validate g with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invalid: %s" msg);
  check_bool "connected" true (Graph.is_connected g);
  check_int "source label 1" 1 (Graph.label g 0);
  (* Hidden nodes have labels n+1..2n and degree 2. *)
  for v = n to (2 * n) - 1 do
    check_int (Printf.sprintf "label %d" v) (v + 1) (Graph.label g v);
    check_int (Printf.sprintf "degree %d" v) 2 (Graph.degree g v)
  done

let test_wakeup_hard_graph_deterministic () =
  let a, _ = LB.wakeup_hard_graph ~n:10 ~seed:7 in
  let b, _ = LB.wakeup_hard_graph ~n:10 ~seed:7 in
  let c, _ = LB.wakeup_hard_graph ~n:10 ~seed:8 in
  check_bool "same seed" true (Graph.equal a b);
  check_bool "different seed" false (Graph.equal a c)

let test_wakeup_experiment_row () =
  (* n must be large enough for the counting threshold to be positive
     (below ~n = 64 the exact finite-n count is vacuous). *)
  let p = LB.wakeup_experiment ~n:128 ~seed:1 in
  check_int "informed uses 2n-1" 255 p.LB.informed_messages;
  check_bool "flooding pays more" true (p.LB.oblivious_messages > p.LB.informed_messages);
  check_bool "informed advice within budget" true
    (p.LB.informed_bits <= Bounds.wakeup_advice_upper ~n:256);
  check_bool "threshold positive" true (p.LB.threshold_bits > 0);
  check_bool "threshold below the paper's 1/2" true (p.LB.threshold_ratio < 0.5)

let test_threshold_growth () =
  (* The Θ(n log n) threshold: superlinear growth in n and a normalised
     ratio that increases towards 1/2. *)
  let q n = LB.min_advice_for_linear_wakeup ~n ~budget_factor:3.0 in
  let q256 = q 256 and q512 = q 512 and q1024 = q 1024 in
  check_bool "superlinear 256->512" true (q512 > 2 * q256);
  check_bool "superlinear 512->1024" true (q1024 > 2 * q512);
  let ratio n qv = float_of_int qv /. (float_of_int (2 * n) *. Float.log2 (float_of_int (2 * n))) in
  check_bool "normalised ratio increases" true
    (ratio 256 q256 < ratio 512 q512 && ratio 512 q512 < ratio 1024 q1024);
  check_bool "stays below 1/2" true (ratio 1024 q1024 < 0.5)

(* {1 G_{n,S,C}} *)

let test_broadcast_hard_graph_shape () =
  let n, k = (16, 4) in
  let g, chosen, missing = LB.broadcast_hard_graph ~n ~k ~seed:3 in
  check_int "2n nodes" (2 * n) (Graph.n g);
  check_int "n/k cliques" (n / k) (List.length chosen);
  check_int "one missing pair per clique" (n / k) (List.length missing);
  (match Graph.validate g with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invalid: %s" msg);
  check_bool "connected" true (Graph.is_connected g);
  for v = n to (2 * n) - 1 do
    check_int (Printf.sprintf "clique degree %d" v) (k - 1) (Graph.degree g v)
  done

let test_broadcast_hard_graph_rejects () =
  (match LB.broadcast_hard_graph ~n:10 ~k:4 ~seed:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k must divide n");
  match LB.broadcast_hard_graph ~n:10 ~k:2 ~seed:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k >= 3"

let test_broadcast_experiment_row () =
  let p = LB.broadcast_experiment ~n:24 ~k:4 ~seed:1 in
  check_bool "advised linear" true (p.LB.advised_messages < 3 * 2 * 24);
  check_bool "advised within 8(2n)" true (p.LB.advised_bits <= 8 * 2 * 24);
  check_bool "starved completes (flooding)" true p.LB.starved_completes;
  check_bool "starved pays the clique price" true
    (float_of_int p.LB.starved_messages >= p.LB.clique_bound);
  check_bool "gap is real" true (p.LB.starved_messages > 2 * p.LB.advised_messages)

let test_clique_price_grows_with_k () =
  (* Claim 3.3's shape: at fixed 2n nodes, the advice-free cost grows with
     k while the advised cost stays flat. *)
  let row k = LB.broadcast_experiment ~n:48 ~k ~seed:2 in
  let r4 = row 4 and r8 = row 8 and r12 = row 12 in
  check_bool "starved grows" true
    (r4.LB.starved_messages < r8.LB.starved_messages
    && r8.LB.starved_messages < r12.LB.starved_messages);
  check_bool "advised flat" true
    (abs (r4.LB.advised_messages - r12.LB.advised_messages) < 2 * 48)

(* {1 Starvation sweep} *)

let test_starvation_sweep () =
  let g, _, _ = LB.broadcast_hard_graph ~n:16 ~k:4 ~seed:4 in
  let full = Broadcast.run g ~source:0 in
  let budgets = [ 0; 4; full.Broadcast.advice_bits ] in
  match LB.starvation_sweep g ~source:0 ~budgets with
  | [ zero; tiny; full_budget ] ->
    check_bool "zero budget fails" false zero.LB.sv_completed;
    check_int "zero budget sends nothing" 0 zero.LB.sv_messages;
    check_bool "tiny budget incomplete" true (tiny.LB.sv_informed < Graph.n g);
    check_bool "full budget completes" true full_budget.LB.sv_completed;
    check_int "budgets echoed" 0 zero.LB.sv_budget
  | _ -> Alcotest.fail "wrong row count"

let test_starvation_monotone_endpoints () =
  let g = Netgraph.Gen.complete 16 in
  let full = Broadcast.run g ~source:0 in
  let rows =
    LB.starvation_sweep g ~source:0
      ~budgets:[ 0; full.Broadcast.advice_bits / 4; full.Broadcast.advice_bits ]
  in
  let informed = List.map (fun r -> r.LB.sv_informed) rows in
  (match (informed, List.rev informed) with
  | first :: _, last :: _ ->
    check_bool "more budget, at least as many informed" true (last >= first)
  | _ -> Alcotest.fail "empty sweep");
  check_bool "full budget completes" true (List.nth rows 2).LB.sv_completed

let suite =
  [
    Alcotest.test_case "G_{n,S} shape" `Quick test_wakeup_hard_graph_shape;
    Alcotest.test_case "G_{n,S} deterministic" `Quick test_wakeup_hard_graph_deterministic;
    Alcotest.test_case "wakeup experiment row" `Quick test_wakeup_experiment_row;
    Alcotest.test_case "Θ(n log n) threshold growth" `Quick test_threshold_growth;
    Alcotest.test_case "G_{n,S,C} shape" `Quick test_broadcast_hard_graph_shape;
    Alcotest.test_case "G_{n,S,C} input validation" `Quick test_broadcast_hard_graph_rejects;
    Alcotest.test_case "broadcast experiment row" `Quick test_broadcast_experiment_row;
    Alcotest.test_case "clique price grows with k" `Quick test_clique_price_grows_with_k;
    Alcotest.test_case "starvation sweep" `Quick test_starvation_sweep;
    Alcotest.test_case "starvation endpoints" `Quick test_starvation_monotone_endpoints;
  ]

let test_remark_family_shape () =
  let n, c = (10, 3) in
  let g, chosen = LB.wakeup_hard_graph_c ~n ~c ~seed:229 in
  check_int "(1+c)n nodes" ((1 + c) * n) (Graph.n g);
  check_int "cn chosen" (c * n) (List.length chosen);
  check_bool "valid" true (Graph.validate g = Ok ());
  check_bool "connected" true (Graph.is_connected g);
  (* A wakeup with full advice still spends exactly N-1 messages there. *)
  let o = Oracle_core.Wakeup.run g ~source:0 in
  check_int "N-1 messages" (Graph.n g - 1) o.Oracle_core.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent

let test_remark_threshold_ordering () =
  (* At a fixed n the normalized threshold increases with c, matching the
     c/(c+1) ordering of the Remark. *)
  let ratio c =
    let n = 2048 in
    let q = LB.min_advice_for_linear_wakeup_c ~n ~c ~budget_factor:3.0 in
    let nodes = (1 + c) * n in
    float_of_int q /. (float_of_int nodes *. Float.log2 (float_of_int nodes))
  in
  let r1 = ratio 1 and r2 = ratio 2 and r3 = ratio 3 in
  check_bool "c=1 < c=2" true (r1 < r2);
  check_bool "c=2 < c=3" true (r2 < r3);
  check_bool "all below their limits" true (r1 < 0.5 && r2 < 2.0 /. 3.0 && r3 < 0.75)

let test_remark_consistent_with_base_case () =
  (* c = 1 must agree with the original pipeline. *)
  let n = 512 in
  check_int "same threshold"
    (LB.min_advice_for_linear_wakeup ~n ~budget_factor:3.0)
    (LB.min_advice_for_linear_wakeup_c ~n ~c:1 ~budget_factor:3.0)

let suite =
  suite
  @ [
      Alcotest.test_case "Remark: cn-subdivided family" `Quick test_remark_family_shape;
      Alcotest.test_case "Remark: threshold ordering in c" `Quick
        test_remark_threshold_ordering;
      Alcotest.test_case "Remark: c=1 is the base case" `Quick
        test_remark_consistent_with_base_case;
    ]
