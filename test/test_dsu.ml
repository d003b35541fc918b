open Netgraph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_initial () =
  let d = Dsu.create 5 in
  check_int "components" 5 (Dsu.components d);
  for i = 0 to 4 do
    check_int (Printf.sprintf "find %d" i) i (Dsu.find d i)
  done

let test_union () =
  let d = Dsu.create 6 in
  check_bool "fresh union" true (Dsu.union d 0 1);
  check_bool "already joined" false (Dsu.union d 1 0);
  check_bool "chain" true (Dsu.union d 1 2);
  check_int "components" 4 (Dsu.components d);
  check_int "same root" (Dsu.find d 0) (Dsu.find d 2)

let test_union_all () =
  let d = Dsu.create 100 in
  for i = 1 to 99 do
    ignore (Dsu.union d 0 i)
  done;
  check_int "one component" 1 (Dsu.components d)

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial;
    Alcotest.test_case "union/find" `Quick test_union;
    Alcotest.test_case "union everything" `Quick test_union_all;
  ]
