open Oracle_core
module ED = Edge_discovery

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_edge_normalisation () =
  Alcotest.(check (pair int int)) "ordered" (2, 5) (ED.edge 5 2);
  Alcotest.(check (pair int int)) "already ordered" (2, 5) (ED.edge 2 5);
  (match ED.edge 3 3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "equal labels rejected");
  match ED.edge 0 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive labels rejected"

let test_all_edges () =
  let es = ED.all_edges ~n:5 in
  check_int "C(5,2)" 10 (List.length es);
  check_bool "sorted" true (List.sort compare es = es);
  check_bool "first" true (List.hd es = (1, 2))

let test_make_instance_validation () =
  let ok =
    ED.make_instance ~n:4 ~specials:[ ((1, 2), 2); ((3, 4), 1) ] ~excluded:[ (1, 3) ]
  in
  check_int "n" 4 ok.ED.n;
  (match ED.make_instance ~n:4 ~specials:[ ((1, 2), 1); ((1, 2), 2) ] ~excluded:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate special");
  (match ED.make_instance ~n:4 ~specials:[ ((1, 2), 1) ] ~excluded:[ (1, 2) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "X ∩ Y ≠ ∅");
  (match ED.make_instance ~n:4 ~specials:[ ((1, 2), 3) ] ~excluded:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad labels");
  match ED.make_instance ~n:3 ~specials:[ ((1, 5), 1) ] ~excluded:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "edge outside K*_n"

let test_enumeration_count () =
  (* C(C(4,2) - 1, 2) * 2! = C(5,2) * 2 = 20 *)
  let instances = ED.enumerate_instances ~n:4 ~x_size:2 ~excluded:[ (1, 2) ] in
  check_int "count" 20 (List.length instances)

let test_sampling () =
  let st = Random.State.make [| 3 |] in
  let instances = ED.sample_instances ~n:6 ~x_size:3 ~excluded:[ (1, 2); (3, 4) ] ~count:25 st in
  check_int "count" 25 (List.length instances);
  List.iter
    (fun i ->
      check_int "x size" 3 (List.length i.ED.specials);
      List.iter
        (fun (e, _) -> check_bool "not excluded" false (List.mem e i.ED.excluded))
        i.ED.specials)
    instances

let test_adversary_rejects_bad_families () =
  (match ED.adversary [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty family");
  let a = ED.make_instance ~n:4 ~specials:[ ((1, 2), 1) ] ~excluded:[] in
  let b = ED.make_instance ~n:5 ~specials:[ ((1, 2), 1) ] ~excluded:[] in
  match ED.adversary [ a; b ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-uniform family"

let test_probe_mechanics () =
  let instances = ED.enumerate_instances ~n:4 ~x_size:1 ~excluded:[ (3, 4) ] in
  let adv = ED.adversary instances in
  check_int "initial active" 5 (ED.active adv);
  (* Probing the excluded edge answers Regular, costs a message, discards
     nothing. *)
  check_bool "excluded regular" true (ED.probe adv (3, 4) = ED.Regular);
  check_int "one probe" 1 (ED.probes adv);
  check_int "nothing discarded" 5 (ED.active adv);
  (* Re-probing a decided edge repeats the answer. *)
  check_bool "repeat" true (ED.probe adv (3, 4) = ED.Regular);
  check_int "still costs" 2 (ED.probes adv)

let test_adversary_majority_keeps_half () =
  let instances = ED.enumerate_instances ~n:4 ~x_size:1 ~excluded:[] in
  let adv = ED.adversary instances in
  let before = ED.active adv in
  ignore (ED.probe adv (1, 2));
  check_bool "at least half survive" true (2 * ED.active adv >= before)

let test_play_sequential_meets_bound () =
  List.iter
    (fun (n, x_size) ->
      let instances = ED.enumerate_instances ~n ~x_size ~excluded:[] in
      let adv = ED.adversary instances in
      let out = ED.play adv ED.sequential in
      check_bool
        (Printf.sprintf "n=%d x=%d: %d >= %.2f" n x_size out.ED.probes_used out.ED.bound)
        true
        (float_of_int out.ED.probes_used >= out.ED.bound -. 1e-6);
      check_int "found all" x_size (List.length out.ED.found))
    [ (4, 1); (4, 2); (5, 1); (5, 2); (6, 2) ]

let test_play_random_meets_bound () =
  let instances = ED.enumerate_instances ~n:5 ~x_size:2 ~excluded:[ (4, 5) ] in
  List.iter
    (fun seed ->
      let adv = ED.adversary instances in
      let out = ED.play adv (ED.random_strategy ~seed) in
      check_bool
        (Printf.sprintf "seed %d" seed)
        true
        (float_of_int out.ED.probes_used >= out.ED.bound -. 1e-6))
    [ 1; 2; 3; 4; 5 ]

let test_discovered_labels () =
  let instances = ED.enumerate_instances ~n:5 ~x_size:3 ~excluded:[] in
  let adv = ED.adversary instances in
  let out = ED.play adv ED.sequential in
  Alcotest.(check (list int))
    "labels are a permutation of 1..3"
    [ 1; 2; 3 ]
    (List.sort compare (List.map snd out.ED.found));
  check_bool "solved" true (ED.solved adv);
  check_bool "at least one instance remains" true (ED.active adv >= 1)

let test_final_answers_consistent () =
  (* After play, some surviving instance must agree with every recorded
     answer: the adversary never lies. *)
  let instances = ED.enumerate_instances ~n:5 ~x_size:2 ~excluded:[] in
  let adv = ED.adversary instances in
  let out = ED.play adv ED.sequential in
  check_bool "survivor matches discovered X" true
    (ED.active adv >= 1
    && List.for_all
         (fun (e, l) ->
           (* every discovered (e,l) appears in the adversary's record *)
           List.mem (e, l) out.ED.found)
         out.ED.found)

let test_stalling_strategy_fails () =
  let instances = ED.enumerate_instances ~n:4 ~x_size:1 ~excluded:[] in
  let adv = ED.adversary instances in
  let stubborn =
    {
      ED.strategy_name = "stubborn";
      next_probe = (fun ~n:_ ~x_size:_ ~excluded:_ ~history:_ -> (1, 2));
    }
  in
  (* If (1,2) comes back Regular the strategy can never finish. *)
  match ED.play adv stubborn with
  | exception Failure _ -> ()
  | out ->
    (* The adversary may have declared (1,2) special, in which case the
       stubborn strategy wins instantly; that is legal. *)
    check_int "lucky hit" 1 (List.length out.ED.found)

let test_bound_matches_formula () =
  let instances = ED.enumerate_instances ~n:5 ~x_size:2 ~excluded:[] in
  let adv = ED.adversary instances in
  let expected =
    Float.log2 (float_of_int (List.length instances)) -. Bitstring.Binary.log2_factorial 2
  in
  Alcotest.(check (float 1e-9)) "log2(|I|/|X|!)" expected (ED.lower_bound adv)

let sampled_play ~n ~x_size ~seed =
  let st = Random.State.make [| n; x_size; seed |] in
  let instances = ED.sample_instances ~n ~x_size ~excluded:[] ~count:40 st in
  (* sampling with replacement may duplicate; dedupe for a set family *)
  let uniq = List.sort_uniq compare instances in
  let adv = ED.adversary uniq in
  (adv, ED.play adv (ED.random_strategy ~seed))

let qcheck_adversary_sound =
  (* Random strategies against random sampled families: the bound from
     Lemma 2.1 never exceeds the probes actually used, and the adversary's
     internal counting invariant (checked on every probe) never trips.
     QCheck2's integrated shrinking keeps every component in its range. *)
  QCheck2.Test.make ~name:"Lemma 2.1 bound holds on sampled families" ~count:25
    ~print:QCheck2.Print.(triple int int int)
    QCheck2.Gen.(triple (int_range 4 7) (int_range 1 3) (int_range 0 999))
    (fun (n, x_size, seed) ->
      let adv, out = sampled_play ~n ~x_size ~seed in
      float_of_int out.ED.probes_used >= out.ED.bound -. 1e-6 && ED.solved adv)

let test_sampled_duplicates_count_once () =
  (* The inputs on which the property above once failed, all n = 4,
     |X| = 2.  Each sample draws one instance twice, its special edges
     in two orders.  Were the copies kept apart, both would survive
     every answer and the bound would claim one probe too many; since
     [make_instance] sorts and the adversary counts a set, play ends
     with exactly one live instance and meets the bound. *)
  List.iter
    (fun seed ->
      let adv, out = sampled_play ~n:4 ~x_size:2 ~seed in
      let name = Printf.sprintf "seed %d" seed in
      check_bool (name ^ " solved") true (ED.solved adv);
      check_int (name ^ " one instance left") 1 (ED.active adv);
      check_bool
        (Printf.sprintf "%s: %d probes >= bound %.3f" name out.ED.probes_used out.ED.bound)
        true
        (float_of_int out.ED.probes_used >= out.ED.bound -. 1e-6))
    [ 29; 98; 172; 205; 930; 992 ]

let test_adversary_counts_a_set () =
  let a = ED.make_instance ~n:4 ~specials:[ ((1, 2), 1); ((3, 4), 2) ] ~excluded:[] in
  let b = ED.make_instance ~n:4 ~specials:[ ((3, 4), 2); ((1, 2), 1) ] ~excluded:[] in
  check_bool "listing order does not matter" true (a = b);
  let c = { a with ED.specials = List.rev a.ED.specials } in
  check_int "a family listing one instance twice has one" 1 (ED.active (ED.adversary [ a; c ]))

let suite =
  [
    Alcotest.test_case "edge normalisation" `Quick test_edge_normalisation;
    Alcotest.test_case "all_edges" `Quick test_all_edges;
    Alcotest.test_case "instance validation" `Quick test_make_instance_validation;
    Alcotest.test_case "enumeration count" `Quick test_enumeration_count;
    Alcotest.test_case "sampling" `Quick test_sampling;
    Alcotest.test_case "adversary input validation" `Quick test_adversary_rejects_bad_families;
    Alcotest.test_case "probe mechanics" `Quick test_probe_mechanics;
    Alcotest.test_case "majority rule keeps half" `Quick test_adversary_majority_keeps_half;
    Alcotest.test_case "sequential play meets the bound" `Quick test_play_sequential_meets_bound;
    Alcotest.test_case "random play meets the bound" `Quick test_play_random_meets_bound;
    Alcotest.test_case "discovered labels" `Quick test_discovered_labels;
    Alcotest.test_case "final answers consistent" `Quick test_final_answers_consistent;
    Alcotest.test_case "stalling strategy fails" `Quick test_stalling_strategy_fails;
    Alcotest.test_case "bound formula" `Quick test_bound_matches_formula;
    Alcotest.test_case "sampled duplicates count once" `Quick test_sampled_duplicates_count_once;
    Alcotest.test_case "adversary counts a set" `Quick test_adversary_counts_a_set;
    QCheck_alcotest.to_alcotest qcheck_adversary_sound;
  ]
