open Bitstring

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-6))

let test_bits_values () =
  List.iter
    (fun (w, expected) -> check_int (Printf.sprintf "#2(%d)" w) expected (Binary.bits w))
    [ (0, 1); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4); (255, 8); (256, 9); (1023, 10) ]

let test_bits_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Binary.bits: negative") (fun () ->
      ignore (Binary.bits (-1)))

let test_ceil_log2 () =
  List.iter
    (fun (n, expected) -> check_int (Printf.sprintf "ceil_log2 %d" n) expected (Binary.ceil_log2 n))
    [ (1, 0); (2, 1); (3, 2); (4, 2); (5, 3); (8, 3); (9, 4); (1024, 10); (1025, 11) ]

let test_floor_log2 () =
  List.iter
    (fun (n, expected) ->
      check_int (Printf.sprintf "floor_log2 %d" n) expected (Binary.floor_log2 n))
    [ (1, 0); (2, 1); (3, 1); (4, 2); (7, 2); (8, 3); (1023, 9); (1024, 10) ]

let test_log_invalid () =
  Alcotest.check_raises "ceil 0" (Invalid_argument "Binary.ceil_log2") (fun () ->
      ignore (Binary.ceil_log2 0));
  Alcotest.check_raises "floor 0" (Invalid_argument "Binary.floor_log2") (fun () ->
      ignore (Binary.floor_log2 0))

let test_to_bools () =
  Alcotest.(check (list bool)) "5" [ true; false; true ] (Binary.to_bools 5);
  Alcotest.(check (list bool)) "0" [ false ] (Binary.to_bools 0);
  Alcotest.(check (list bool)) "1" [ true ] (Binary.to_bools 1);
  Alcotest.(check (list bool)) "8" [ true; false; false; false ] (Binary.to_bools 8)

let test_log2_factorial_small () =
  check_float "0!" 0.0 (Binary.log2_factorial 0);
  check_float "1!" 0.0 (Binary.log2_factorial 1);
  check_float "5!" (Float.log2 120.0) (Binary.log2_factorial 5);
  check_float "10!" (Float.log2 3628800.0) (Binary.log2_factorial 10)

let test_log2_factorial_stirling_continuity () =
  (* The exact/Stirling switchover must be seamless. *)
  let a = Binary.log2_factorial 4096 in
  let b = Binary.log2_factorial 4097 in
  let step = b -. a in
  Alcotest.(check bool)
    "step equals log2 4097"
    (Float.abs (step -. Float.log2 4097.0) < 1e-6)
    true

let test_log2_factorial_monotone () =
  let prev = ref neg_infinity in
  List.iter
    (fun n ->
      let v = Binary.log2_factorial n in
      Alcotest.(check bool) (Printf.sprintf "monotone at %d" n) true (v > !prev);
      prev := v)
    [ 2; 10; 100; 1000; 4095; 4096; 4097; 10000; 100000 ]

let test_log2_choose () =
  check_float "C(5,2)" (Float.log2 10.0) (Binary.log2_choose 5 2);
  check_float "C(10,0)" 0.0 (Binary.log2_choose 10 0);
  check_float "C(10,10)" 0.0 (Binary.log2_choose 10 10);
  Alcotest.(check bool) "k<0" true (Binary.log2_choose 5 (-1) = neg_infinity);
  Alcotest.(check bool) "k>n" true (Binary.log2_choose 5 6 = neg_infinity)

let test_log2_choose_symmetry () =
  check_float "C(20,7)=C(20,13)" (Binary.log2_choose 20 7) (Binary.log2_choose 20 13)

let test_log2_choose_pascal () =
  (* C(12,5) = C(11,4) + C(11,5), checked in linear space. *)
  let c a b = Float.exp2 (Binary.log2_choose a b) in
  Alcotest.(check (float 1e-6)) "pascal" (c 12 5) (c 11 4 +. c 11 5)

let suite =
  [
    Alcotest.test_case "#2 values" `Quick test_bits_values;
    Alcotest.test_case "#2 rejects negatives" `Quick test_bits_negative;
    Alcotest.test_case "ceil_log2" `Quick test_ceil_log2;
    Alcotest.test_case "floor_log2" `Quick test_floor_log2;
    Alcotest.test_case "log2 of 0 rejected" `Quick test_log_invalid;
    Alcotest.test_case "to_bools" `Quick test_to_bools;
    Alcotest.test_case "log2_factorial small values" `Quick test_log2_factorial_small;
    Alcotest.test_case "log2_factorial Stirling continuity" `Quick
      test_log2_factorial_stirling_continuity;
    Alcotest.test_case "log2_factorial monotone" `Quick test_log2_factorial_monotone;
    Alcotest.test_case "log2_choose values" `Quick test_log2_choose;
    Alcotest.test_case "log2_choose symmetry" `Quick test_log2_choose_symmetry;
    Alcotest.test_case "log2_choose Pascal identity" `Quick test_log2_choose_pascal;
  ]
