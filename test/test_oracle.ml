module Bitbuf = Bitstring.Bitbuf
module Graph = Netgraph.Graph
module Advice = Oracles.Advice
module Oracle = Oracles.Oracle
module Wakeup = Oracle_core.Wakeup
module Gossip = Oracle_core.Gossip

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
  let f = Oracle.advice_fun (Wakeup.oracle ()) g ~source:0 in
  check_int "leaf empty" 0 (Bitbuf.length (f 3));
  check_bool "root nonempty" true (Bitbuf.length (f 0) > 0)

let test_truncate_zero () =
  let g = Netgraph.Gen.complete 6 in
  let t = Oracle.truncate (Wakeup.oracle ()) ~budget:0 in
  check_int "all clipped" 0 (Oracle.size_on t g ~source:0)

let test_truncate_generous () =
  let g = Netgraph.Gen.complete 6 in
  let full = Oracle.size_on (Wakeup.oracle ()) g ~source:0 in
  let t = Oracle.truncate (Wakeup.oracle ()) ~budget:(full * 2) in
  check_int "unchanged" full (Oracle.size_on t g ~source:0)

let test_truncate_prefix () =
  let g = Netgraph.Gen.path 5 in
  let budget = 7 in
  let t = Oracle.truncate (Wakeup.oracle ()) ~budget in
  let full_advice = (Wakeup.oracle ()).Oracle.advise g ~source:0 in
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
  ]

let test_union_oracle () =
  let g = Netgraph.Gen.grid ~rows:3 ~cols:3 in
  let u = Oracle.union ~name:"both" (Gossip.oracle ()) (Wakeup.oracle ()) in
  check_int "size adds"
    (Oracle.size_on (Gossip.oracle ()) g ~source:0 + Oracle.size_on (Wakeup.oracle ()) g ~source:0)
    (Oracle.size_on u g ~source:0);
  (* The first component decodes off the front: the gossip advice opens
     with a has-parent bit, then the gamma-coded (self-delimiting)
     parent port. *)
  let advice = u.Oracle.advise g ~source:0 in
  let r = Bitbuf.reader (Advice.get advice 8) in
  check_bool "has a parent" true (Bitbuf.read_bit r);
  let tree = Netgraph.Spanning.bfs g ~root:0 in
  let expected_parent =
    match Netgraph.Spanning.parent tree 8 with Some (_, p) -> p | None -> -1
  in
  check_int "first component readable" expected_parent (Bitstring.Codes.read_gamma r)

let suite =
  suite @ [ Alcotest.test_case "union oracle" `Quick test_union_oracle ]
