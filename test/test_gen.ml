open Netgraph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let assert_valid name g =
  (match Graph.validate g with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: invalid graph: %s" name msg);
  check_bool (name ^ " connected") true (Graph.is_connected g)

let test_path () =
  let g = Gen.path 5 in
  assert_valid "path" g;
  check_int "m" 4 (Graph.m g);
  check_int "deg end" 1 (Graph.degree g 0);
  check_int "deg middle" 2 (Graph.degree g 2)

let test_path_single_node () =
  let g = Gen.path 1 in
  check_int "n" 1 (Graph.n g);
  check_int "m" 0 (Graph.m g)

let test_cycle () =
  let g = Gen.cycle 6 in
  assert_valid "cycle" g;
  check_int "m" 6 (Graph.m g);
  for v = 0 to 5 do
    check_int (Printf.sprintf "deg %d" v) 2 (Graph.degree g v)
  done

let test_star () =
  let g = Gen.star 7 in
  assert_valid "star" g;
  check_int "center degree" 6 (Graph.degree g 0);
  for v = 1 to 6 do
    check_int (Printf.sprintf "leaf %d" v) 1 (Graph.degree g v)
  done

let test_complete_structure () =
  let n = 8 in
  let g = Gen.complete n in
  assert_valid "complete" g;
  check_int "m" (n * (n - 1) / 2) (Graph.m g);
  for v = 0 to n - 1 do
    check_int (Printf.sprintf "deg %d" v) (n - 1) (Graph.degree g v)
  done

let test_complete_port_rule () =
  (* Port p at node i leads to node (i + p + 1) mod n. *)
  let n = 9 in
  let g = Gen.complete n in
  for i = 0 to n - 1 do
    for p = 0 to n - 2 do
      let j, _ = Graph.endpoint g i p in
      check_int (Printf.sprintf "i=%d p=%d" i p) ((i + p + 1) mod n) j
    done
  done

let test_complete_port_symmetry () =
  (* Following the reverse port comes back. *)
  let g = Gen.complete 7 in
  for i = 0 to 6 do
    for p = 0 to 5 do
      let j, q = Graph.endpoint g i p in
      let i', p' = Graph.endpoint g j q in
      check_int "returns" i i';
      check_int "same port" p p'
    done
  done

let test_balanced_tree () =
  let g = Gen.balanced_tree ~arity:2 ~depth:3 in
  assert_valid "binary tree" g;
  check_int "nodes" 15 (Graph.n g);
  check_int "edges" 14 (Graph.m g);
  check_int "root degree" 2 (Graph.degree g 0);
  let g3 = Gen.balanced_tree ~arity:3 ~depth:2 in
  check_int "ternary nodes" 13 (Graph.n g3);
  let g0 = Gen.balanced_tree ~arity:2 ~depth:0 in
  check_int "single node" 1 (Graph.n g0)

let test_grid () =
  let g = Gen.grid ~rows:3 ~cols:4 in
  assert_valid "grid" g;
  check_int "n" 12 (Graph.n g);
  check_int "m" ((2 * 4) + (3 * 3)) (Graph.m g);
  check_int "corner degree" 2 (Graph.degree g 0);
  check_int "interior degree" 4 (Graph.degree g 5)

let test_torus () =
  let g = Gen.torus ~rows:3 ~cols:5 in
  assert_valid "torus" g;
  check_int "n" 15 (Graph.n g);
  check_int "m" 30 (Graph.m g);
  for v = 0 to 14 do
    check_int (Printf.sprintf "deg %d" v) 4 (Graph.degree g v)
  done

let test_hypercube () =
  let g = Gen.hypercube ~dim:4 in
  assert_valid "hypercube" g;
  check_int "n" 16 (Graph.n g);
  check_int "m" 32 (Graph.m g);
  (* Port k at node u leads to u lxor (1 lsl k). *)
  for u = 0 to 15 do
    for k = 0 to 3 do
      let v, q = Graph.endpoint g u k in
      check_int "flip" (u lxor (1 lsl k)) v;
      check_int "same dimension port" k q
    done
  done

let test_random_tree () =
  let st = Random.State.make [| 11 |] in
  List.iter
    (fun n ->
      let g = Gen.random_tree ~n st in
      assert_valid (Printf.sprintf "random tree %d" n) g;
      check_int "tree edges" (n - 1) (Graph.m g))
    [ 1; 2; 3; 10; 64 ]

let test_random_connected_p0 () =
  let st = Random.State.make [| 12 |] in
  let g = Gen.random_connected ~n:30 ~p:0.0 st in
  assert_valid "p=0" g;
  check_int "spanning tree only" 29 (Graph.m g)

let test_random_connected_p1 () =
  let st = Random.State.make [| 13 |] in
  let g = Gen.random_connected ~n:12 ~p:1.0 st in
  assert_valid "p=1" g;
  check_int "complete" (12 * 11 / 2) (Graph.m g)

let test_lollipop () =
  let g = Gen.lollipop ~clique:5 ~tail:4 in
  assert_valid "lollipop" g;
  check_int "n" 9 (Graph.n g);
  check_int "m" (10 + 4) (Graph.m g);
  check_int "tail end degree" 1 (Graph.degree g 8)

let test_invalid_parameters () =
  let expect name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect "path 0" (fun () -> Gen.path 0);
  expect "cycle 2" (fun () -> Gen.cycle 2);
  expect "star 1" (fun () -> Gen.star 1);
  expect "complete 1" (fun () -> Gen.complete 1);
  expect "torus 2x3" (fun () -> Gen.torus ~rows:2 ~cols:3);
  expect "hypercube 0" (fun () -> Gen.hypercube ~dim:0);
  expect "negative tail" (fun () -> Gen.lollipop ~clique:4 ~tail:(-1));
  expect "bad p" (fun () ->
      Gen.random_connected ~n:5 ~p:1.5 (Random.State.make [| 0 |]))

let qcheck_random_connected =
  QCheck.Test.make ~name:"random_connected is valid and connected" ~count:60
    QCheck.(pair (int_range 2 40) (float_bound_inclusive 1.0))
    (fun (n, p) ->
      let st = Random.State.make [| n; int_of_float (p *. 1000.0) |] in
      let g = Gen.random_connected ~n ~p st in
      Graph.validate g = Ok () && Graph.is_connected g && Graph.n g = n)

let qcheck_random_tree_shape =
  QCheck.Test.make ~name:"random_tree is a spanning tree" ~count:60
    QCheck.(int_range 1 60)
    (fun n ->
      let st = Random.State.make [| n; 77 |] in
      let g = Gen.random_tree ~n st in
      Graph.validate g = Ok () && Graph.is_connected g && Graph.m g = n - 1)

let suite =
  [
    Alcotest.test_case "path" `Quick test_path;
    Alcotest.test_case "path of one node" `Quick test_path_single_node;
    Alcotest.test_case "cycle" `Quick test_cycle;
    Alcotest.test_case "star" `Quick test_star;
    Alcotest.test_case "complete: structure" `Quick test_complete_structure;
    Alcotest.test_case "complete: port rule" `Quick test_complete_port_rule;
    Alcotest.test_case "complete: port symmetry" `Quick test_complete_port_symmetry;
    Alcotest.test_case "balanced tree" `Quick test_balanced_tree;
    Alcotest.test_case "grid" `Quick test_grid;
    Alcotest.test_case "torus" `Quick test_torus;
    Alcotest.test_case "hypercube" `Quick test_hypercube;
    Alcotest.test_case "random tree" `Quick test_random_tree;
    Alcotest.test_case "random connected p=0" `Quick test_random_connected_p0;
    Alcotest.test_case "random connected p=1" `Quick test_random_connected_p1;
    Alcotest.test_case "lollipop" `Quick test_lollipop;
    Alcotest.test_case "invalid parameters rejected" `Quick test_invalid_parameters;
    QCheck_alcotest.to_alcotest qcheck_random_connected;
    QCheck_alcotest.to_alcotest qcheck_random_tree_shape;
  ]

(* New generators *)

let test_complete_bipartite () =
  let g = Gen.complete_bipartite 3 4 in
  assert_valid "K_{3,4}" g;
  check_int "n" 7 (Graph.n g);
  check_int "m" 12 (Graph.m g);
  for v = 0 to 2 do
    check_int (Printf.sprintf "left %d" v) 4 (Graph.degree g v)
  done;
  for v = 3 to 6 do
    check_int (Printf.sprintf "right %d" v) 3 (Graph.degree g v)
  done;
  check_bool "no edge within sides" false (Graph.has_edge g 0 1)

let test_wheel () =
  let g = Gen.wheel 8 in
  assert_valid "wheel" g;
  check_int "hub degree" 7 (Graph.degree g 0);
  for v = 1 to 7 do
    check_int (Printf.sprintf "rim %d" v) 3 (Graph.degree g v)
  done;
  check_int "m" 14 (Graph.m g)

let test_cube_connected_cycles () =
  let g = Gen.cube_connected_cycles ~dim:3 in
  assert_valid "CCC(3)" g;
  check_int "n = d*2^d" 24 (Graph.n g);
  for v = 0 to 23 do
    check_int (Printf.sprintf "3-regular %d" v) 3 (Graph.degree g v)
  done;
  (* Port 2 goes across a hypercube dimension and returns. *)
  let v, q = Graph.endpoint g 0 2 in
  check_int "across port" 2 q;
  let back, _ = Graph.endpoint g v 2 in
  check_int "involution" 0 back

let test_random_regular () =
  let st = Random.State.make [| 41 |] in
  let g = Gen.random_regular ~n:20 ~d:3 st in
  assert_valid "3-regular" g;
  for v = 0 to 19 do
    check_int (Printf.sprintf "degree %d" v) 3 (Graph.degree g v)
  done;
  let g4 = Gen.random_regular ~n:15 ~d:4 st in
  assert_valid "4-regular odd n" g4;
  (match Gen.random_regular ~n:15 ~d:3 st with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "odd n*d rejected");
  match Gen.random_regular ~n:4 ~d:2 st with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "d < 3 rejected"

(* {1 Pinning the seeded generators}

   The random families as first written: per-node incidence lists built
   by prepending, each turned into an array, shuffled, and handed to
   [Graph_helpers.of_adjacency].  The generators build CSR directly; these
   restatements pin that the graphs, ports and random draws did not move. *)

let reference_of_pairs_shuffled ~n st pairs =
  let incident = Array.make n [] in
  List.iter
    (fun (u, v) ->
      incident.(u) <- v :: incident.(u);
      incident.(v) <- u :: incident.(v))
    pairs;
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done
  in
  Graph_helpers.of_adjacency
    (Array.map
       (fun ns ->
         let a = Array.of_list ns in
         shuffle a;
         Array.to_list a)
       incident)

let reference_tree_pairs ~n st =
  if n = 1 then []
  else if n = 2 then [ (0, 1) ]
  else begin
    let seq = Array.init (n - 2) (fun _ -> Random.State.int st n) in
    let deg = Array.make n 1 in
    Array.iter (fun v -> deg.(v) <- deg.(v) + 1) seq;
    let pairs = ref [] in
    let ptr = ref 0 in
    while deg.(!ptr) <> 1 do
      incr ptr
    done;
    let leaf = ref !ptr in
    Array.iter
      (fun v ->
        pairs := (!leaf, v) :: !pairs;
        deg.(v) <- deg.(v) - 1;
        if deg.(v) = 1 && v < !ptr then leaf := v
        else begin
          incr ptr;
          while deg.(!ptr) <> 1 do
            incr ptr
          done;
          leaf := !ptr
        end)
      seq;
    (!leaf, n - 1) :: !pairs
  end

let reference_random_tree ~n st = reference_of_pairs_shuffled ~n st (reference_tree_pairs ~n st)

let reference_random_connected ~n ~p st =
  let tree = reference_tree_pairs ~n st in
  let present = Hashtbl.create (4 * n) in
  List.iter (fun (u, v) -> Hashtbl.replace present (min u v, max u v) ()) tree;
  let extra = ref [] in
  let add u v = if not (Hashtbl.mem present (u, v)) then extra := (u, v) :: !extra in
  if p >= 1.0 then
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        add u v
      done
    done
  else if p > 0.0 then begin
    let total = n * (n - 1) / 2 in
    let log1mp = log (1.0 -. p) in
    let idx = ref (-1) and u = ref 0 and row_start = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let r = Random.State.float st 1.0 in
      idx := !idx + 1 + int_of_float (log (1.0 -. r) /. log1mp);
      if !idx >= total then continue_ := false
      else begin
        while !idx - !row_start >= n - 1 - !u do
          row_start := !row_start + (n - 1 - !u);
          incr u
        done;
        add !u (!u + 1 + (!idx - !row_start))
      end
    done
  end;
  reference_of_pairs_shuffled ~n st (tree @ List.rev !extra)

let reference_random_regular ~n ~d st =
  let rec attempt () =
    let stubs = Array.init (n * d) (fun i -> i / d) in
    for i = Array.length stubs - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let tmp = stubs.(i) in
      stubs.(i) <- stubs.(j);
      stubs.(j) <- tmp
    done;
    let pairs = ref [] and ok = ref true and i = ref 0 in
    let seen = Hashtbl.create (n * d) in
    while !ok && !i < n * d do
      let u = stubs.(!i) and v = stubs.(!i + 1) in
      if u = v || Hashtbl.mem seen (min u v, max u v) then ok := false
      else begin
        Hashtbl.add seen (min u v, max u v) ();
        pairs := (u, v) :: !pairs
      end;
      i := !i + 2
    done;
    if not !ok then attempt ()
    else begin
      let g = reference_of_pairs_shuffled ~n st !pairs in
      if Graph.is_connected g then g else attempt ()
    end
  in
  attempt ()

let test_generators_match_reference () =
  let same name reference actual =
    check_bool name true (Graph.equal reference actual);
    assert_valid name actual
  in
  List.iter
    (fun n ->
      for seed = 1 to 4 do
        let st () = Random.State.make [| n; seed |] in
        let name what = Printf.sprintf "%s n=%d seed=%d" what n seed in
        same (name "random_tree") (reference_random_tree ~n (st ())) (Gen.random_tree ~n (st ()));
        List.iter
          (fun p ->
            same
              (name (Printf.sprintf "random_connected p=%g" p))
              (reference_random_connected ~n ~p (st ()))
              (Gen.random_connected ~n ~p (st ())))
          (* Dense overlays only up to n = 257: at n = 1000 they are
             Θ(n²) pairs through two Hashtbl passes for no new path. *)
          (Float.min 1.0 (4.0 /. float_of_int n) :: (if n <= 257 then [ 0.0; 0.5; 1.0 ] else []));
        if n >= 4 then begin
          let n = n + (n mod 2) in
          same (name "random_regular d=3")
            (reference_random_regular ~n ~d:3 (st ()))
            (Gen.random_regular ~n ~d:3 (st ()))
        end
      done)
    [ 1; 2; 3; 4; 7; 17; 64; 257; 1000 ]

(* One golden digest of a seeded family's CSR arrays: any change to the
   generator's random draw order, row order or port assignment changes
   it. *)
let test_sparse_random_digest () =
  let g = Families.build Families.Sparse_random ~n:1000 ~seed:1 in
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun a ->
      Array.iter (fun x -> Buffer.add_string b (string_of_int x); Buffer.add_char b ',') a;
      Buffer.add_char b '|')
    [ Graph.csr_offsets g; Graph.csr_neighbors g; Graph.csr_ports g ];
  Alcotest.(check string) "sparse-random n=1000 seed=1 CSR digest" "cd82da9b07e1c8dc5488adb793d7e13b"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let extra_suite =
  [
    Alcotest.test_case "complete bipartite" `Quick test_complete_bipartite;
    Alcotest.test_case "wheel" `Quick test_wheel;
    Alcotest.test_case "cube-connected cycles" `Quick test_cube_connected_cycles;
    Alcotest.test_case "random regular" `Quick test_random_regular;
    Alcotest.test_case "seeded generators match the list-based reference" `Quick
      test_generators_match_reference;
    Alcotest.test_case "sparse-random CSR golden digest" `Quick test_sparse_random_digest;
  ]

let suite = suite @ extra_suite
