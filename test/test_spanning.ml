open Netgraph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let assert_tree name g t =
  match Spanning.check g t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: bad tree: %s" name msg

let sample_graphs =
  [
    ("path", Gen.path 10);
    ("cycle", Gen.cycle 9);
    ("complete", Gen.complete 8);
    ("grid", Gen.grid ~rows:4 ~cols:5);
    ("hypercube", Gen.hypercube ~dim:4);
    ("lollipop", Gen.lollipop ~clique:5 ~tail:5);
    ("random", Gen.random_connected ~n:25 ~p:0.2 (Random.State.make [| 5 |]));
  ]

let test_bfs_trees () =
  List.iter (fun (name, g) -> assert_tree name g (Spanning.bfs g ~root:0)) sample_graphs

let test_dfs_trees () =
  List.iter (fun (name, g) -> assert_tree name g (Spanning.dfs g ~root:0)) sample_graphs

let test_random_trees () =
  let st = Random.State.make [| 9 |] in
  List.iter (fun (name, g) -> assert_tree name g (Spanning.random g ~root:0 st)) sample_graphs

let test_light_trees () =
  List.iter (fun (name, g) -> assert_tree name g (Spanning.light g ~root:0)) sample_graphs

let test_edges_count () =
  List.iter
    (fun (name, g) ->
      let t = Spanning.bfs g ~root:0 in
      check_int (name ^ " edge count") (Graph.n g - 1) (List.length (Spanning.edges t)))
    sample_graphs

let test_nontrivial_root () =
  let g = Gen.grid ~rows:3 ~cols:3 in
  let t = Spanning.light g ~root:4 in
  assert_tree "root 4" g t;
  check_int "root" 4 t.Spanning.root;
  Alcotest.(check bool) "root has no parent" true (Spanning.parent t 4 = None)

let test_depth () =
  let g = Gen.path 5 in
  let t = Spanning.bfs g ~root:0 in
  Alcotest.(check (array int)) "depths" [| 0; 1; 2; 3; 4 |] (Spanning.depth t)

let test_children_ports_sorted () =
  let g = Gen.complete 6 in
  let t = Spanning.bfs g ~root:0 in
  let ports = Spanning.children_ports t 0 in
  check_bool "sorted" true (List.sort compare ports = ports);
  check_int "root has all children" 5 (List.length ports)

let test_of_parents_rejects_cycle () =
  let g = Gen.cycle 4 in
  (* 0→1→2→3→0 is a cycle, not a tree. *)
  let parents = [| 3; 0; 1; 2 |] in
  (match Spanning.of_parents g ~root:0 parents with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection");
  (* root can't have a parent *)
  match Spanning.of_parents g ~root:1 [| -1; 0; 1; 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection: non-rooted"

let test_of_parents_rejects_non_edge () =
  let g = Gen.path 4 in
  (* 0-2 is not an edge of the path. *)
  match Spanning.of_parents g ~root:0 [| -1; 0; 0; 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_contribution_small () =
  (* Path ports: interior nodes have ports 0 (to the left) and 1 (to the
     right); each edge has weight min = 0 except none... check directly. *)
  let g = Gen.path 4 in
  let t = Spanning.bfs g ~root:0 in
  let contribution = Spanning.contribution g (Spanning.edges t) in
  (* Every edge weight is 0 (each edge is port 0 at its right endpoint or
     left endpoint): #2(0) = 1 per edge. *)
  check_int "three edges, weight-0" 3 contribution

let test_light_contribution_bound () =
  (* Claim 3.1: the light tree's contribution is at most 4n, on every
     family. *)
  List.iter
    (fun (name, g) ->
      let t = Spanning.light g ~root:0 in
      let c = Spanning.contribution g (Spanning.edges t) in
      check_bool
        (Printf.sprintf "%s: %d <= 4*%d" name c (Graph.n g))
        true
        (c <= 4 * Graph.n g))
    sample_graphs

let test_light_beats_naive_on_complete () =
  (* On K*_n a BFS tree's contribution grows like n log n while the light
     tree stays linear; at n = 64 the gap must already be visible. *)
  let g = Gen.complete 64 in
  let light = Spanning.contribution g (Spanning.edges (Spanning.light g ~root:0)) in
  let bfs = Spanning.contribution g (Spanning.edges (Spanning.bfs g ~root:0)) in
  check_bool "light within 4n" true (light <= 4 * 64);
  check_bool "light strictly better" true (light < bfs)

let qcheck_light_tree =
  QCheck.Test.make ~name:"light tree: valid and within 4n (random graphs)" ~count:50
    QCheck.(pair (int_range 2 50) (int_range 0 1000))
    (fun (n, seed) ->
      let st = Random.State.make [| n; seed |] in
      let g = Gen.random_connected ~n ~p:0.3 st in
      let t = Spanning.light g ~root:0 in
      Spanning.check g t = Ok ()
      && Spanning.contribution g (Spanning.edges t) <= 4 * n)

let qcheck_random_spanning =
  QCheck.Test.make ~name:"random spanning tree is valid" ~count:50
    QCheck.(pair (int_range 2 40) (int_range 0 1000))
    (fun (n, seed) ->
      let st = Random.State.make [| n; seed |] in
      let g = Gen.random_connected ~n ~p:0.25 st in
      Spanning.check g (Spanning.random g ~root:(n / 2) st) = Ok ())

(* The Claim 3.1 phase loop, kept as an independent oracle:
   [Spanning.light] builds its tree by Kruskal over (weight, table order)
   instead, and must match these Borůvka phases edge for edge.  Each
   phase, every component smaller than 2^k picks its lightest outgoing
   edge, first in [Graph.fold_edges] order among equals; a [Dsu] merges
   the picks, and component sizes are kept beside it.  The edges sit in
   flat arrays in fold order, and each phase's scan keeps only those that
   still cross two components, so no later phase re-walks an edge inside
   a component.  Returns the tree's edges as sorted (u, v) pairs. *)
let reference_light_pairs g =
  let n = Graph.n g and m = Graph.m g in
  let eu = Array.make m 0 and ev = Array.make m 0 and ew = Array.make m 0 in
  ignore
    (Graph.fold_edges
       (fun e i ->
         eu.(i) <- e.Graph.u;
         ev.(i) <- e.Graph.v;
         ew.(i) <- Graph.edge_weight g e;
         i + 1)
       g 0);
  let dsu = Dsu.create n in
  let size = Array.make n 1 in
  let pairs = ref [] in
  (* [crossing.(0 .. live-1)]: the edge indices still in play, in fold order. *)
  let crossing = Array.init m Fun.id and live = ref m in
  let k = ref 1 in
  while Dsu.components dsu > 1 do
    let threshold = 1 lsl !k in
    let small_roots =
      List.filter (fun r -> Dsu.find dsu r = r && size.(r) < threshold) (List.init n Fun.id)
    in
    let best_w = Array.make n max_int and best = Array.make n (-1) in
    let consider r i =
      if ew.(i) < best_w.(r) then begin
        best_w.(r) <- ew.(i);
        best.(r) <- i
      end
    in
    let kept = ref 0 in
    for x = 0 to !live - 1 do
      let i = crossing.(x) in
      let ru = Dsu.find dsu eu.(i) and rv = Dsu.find dsu ev.(i) in
      if ru <> rv then begin
        consider ru i;
        consider rv i;
        crossing.(!kept) <- i;
        incr kept
      end
    done;
    live := !kept;
    let selected = List.filter (fun i -> i >= 0) (List.map (fun r -> best.(r)) small_roots) in
    if small_roots <> [] && selected = [] then Alcotest.fail "reference: disconnected graph";
    List.iter
      (fun i ->
        let u = eu.(i) and v = ev.(i) in
        let merged = size.(Dsu.find dsu u) + size.(Dsu.find dsu v) in
        if Dsu.union dsu u v then begin
          size.(Dsu.find dsu u) <- merged;
          pairs := (u, v) :: !pairs
        end)
      selected;
    incr k
  done;
  List.sort compare !pairs

let light_pairs t = List.sort compare (List.map (fun e -> (e.Graph.u, e.Graph.v)) (Spanning.edges t))

let test_light_matches_reference () =
  let st = Random.State.make [| 31 |] in
  List.iter
    (fun fam ->
      List.iter
        (fun n ->
          let first = Families.build fam ~n ~seed:1 in
          for seed = 1 to 5 do
            let g = Families.build fam ~n ~seed in
            (* Unseeded families build the same graph every time; check
               it as built once, and under five port permutations. *)
            let as_built = if seed = 1 || not (Graph.equal g first) then [ ("ports as built", g) ] else [] in
            List.iter
              (fun (how, g) ->
                let name = Printf.sprintf "%s n=%d seed=%d %s" (Families.name fam) n seed how in
                let t = Spanning.light g ~root:0 in
                assert_tree name g t;
                Alcotest.(check (list (pair int int))) name (reference_light_pairs g) (light_pairs t);
                let c = Spanning.contribution g (Spanning.edges t) in
                check_bool (Printf.sprintf "%s: Claim 3.1 %d <= 4n" name c) true (c <= 4 * Graph.n g))
              (as_built @ [ ("ports permuted", Transform.permute_ports g st) ])
          done)
        [ 2; 3; 7; 16; 33; 100; 257; 1000 ])
    Families.all

let test_light_tiny () =
  (* n = 1: a root-only tree with empty child rows. *)
  let t = Spanning.light (Graph.make ~n:1 []) ~root:0 in
  Alcotest.(check (array int)) "n=1 parents" [| -1 |] t.Spanning.parent_node;
  Alcotest.(check (array int)) "n=1 child offsets" [| 0; 0 |] t.Spanning.child_off;
  check_int "n=1 no children" 0 (Array.length t.Spanning.child_node);
  (* n = 2: the one edge, oriented towards either root. *)
  let g = Gen.path 2 in
  List.iter
    (fun root ->
      let t = Spanning.light g ~root in
      assert_tree (Printf.sprintf "n=2 root=%d" root) g t;
      Alcotest.(check (array int))
        (Printf.sprintf "n=2 root=%d parents" root)
        (if root = 0 then [| -1; 0 |] else [| 1; -1 |])
        t.Spanning.parent_node;
      Alcotest.(check (list (pair int int))) "n=2 edge" [ (0, 1) ] (light_pairs t))
    [ 0; 1 ]

(* Every minimum spanning tree under w has the same multiset of weights,
   and #₂ is monotone, so the light tree — the MST under (w, table
   order) — has the same Σ w and Σ #₂(w) as [Mst.kruskal]'s tree under
   (w, labels), even where the two trees differ. *)
let qcheck_light_is_mst =
  QCheck.Test.make ~name:"light tree has an MST's weight and contribution" ~count:50
    QCheck.(pair (int_range 1 60) (int_range 0 1000))
    (fun (n, seed) ->
      let st = Random.State.make [| n; seed |] in
      let g = Gen.random_connected ~n ~p:0.3 st in
      let light = Spanning.edges (Spanning.light g ~root:(n / 2)) and mst = Mst.kruskal g in
      Mst.weight g light = Mst.weight g mst
      && Spanning.contribution g light = Spanning.contribution g mst)

let test_light_rejects_disconnected () =
  (* Two disjoint edges: 0-1 and 2-3. *)
  let g = Graph_helpers.of_adjacency [| [ 1 ]; [ 0 ]; [ 3 ]; [ 2 ] |] in
  match Spanning.light g ~root:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Spanning.light to reject a disconnected graph"

(* {1 The list-based tree as a reference model}

   Traversals and trees as first written: [Graph.neighbors] tuple lists
   and a [Queue] for BFS, one recursive call per tree level for DFS, an
   option per node for the parent and a list per node for the children,
   edges paired up through [List.assoc_opt].  The flat arrays must
   reproduce every parent, port, child order, edge and advice bit. *)
module Ref = struct
  type t = {
    root : int;
    parent : (int * int) option array;
    children : (int * int) list array;
  }

  let bfs g ~root =
    let n = Graph.n g in
    let dist = Array.make n (-1) in
    let parent = Array.make n None in
    let q = Queue.create () in
    dist.(root) <- 0;
    Queue.add root q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun (_, v, _) ->
          if dist.(v) < 0 then begin
            dist.(v) <- dist.(u) + 1;
            parent.(v) <- Some u;
            Queue.add v q
          end)
        (Graph.neighbors g u)
    done;
    (dist, parent)

  let dfs_parents g ~root =
    let n = Graph.n g in
    let parent = Array.make n None in
    let seen = Array.make n false in
    let rec go u =
      seen.(u) <- true;
      List.iter
        (fun (_, v, _) ->
          if not seen.(v) then begin
            parent.(v) <- Some u;
            go v
          end)
        (Graph.neighbors g u)
    in
    go root;
    parent

  let of_parents g ~root parents =
    let n = Graph.n g in
    let parent =
      Array.mapi
        (fun v p ->
          match p with
          | None -> if v <> root then invalid_arg "reference: no parent" else None
          | Some u -> (
            match Graph.port_to g v u with
            | Some pv -> Some (u, pv)
            | None -> invalid_arg "reference: not an edge"))
        parents
    in
    let children =
      Array.init n (fun u ->
          List.filter_map
            (fun (p, v, _) ->
              match parent.(v) with Some (w, _) when w = u -> Some (v, p) | _ -> None)
            (Graph.neighbors g u))
    in
    { root; parent; children }

  let edges t =
    let acc = ref [] in
    Array.iteri
      (fun v p ->
        match p with
        | None -> ()
        | Some (u, pv) ->
          let pu = match List.assoc_opt v t.children.(u) with Some p -> p | None -> -1 in
          let e =
            if u < v then { Graph.u; pu; v; pv } else { Graph.u = v; pu = pv; v = u; pv = pu }
          in
          acc := e :: !acc)
      t.parent;
    List.rev !acc

  let weight_assignment g t =
    let out = Array.make (Graph.n g) [] in
    List.iter
      (fun e ->
        let w = Graph.edge_weight g e in
        let x = if e.Graph.pu = w then e.Graph.u else e.Graph.v in
        out.(x) <- w :: out.(x))
      (edges t);
    Array.map List.rev out

  let children_ports t u = List.map snd t.children.(u)
end

let to_options parents = Array.map (fun u -> if u < 0 then None else Some u) parents

(* Every family at a spread of sizes, as built and with ports permuted,
   each from a seeded random root. *)
let reference_draws () =
  let st = Random.State.make [| 18 |] in
  List.concat_map
    (fun fam ->
      List.concat_map
        (fun (n, seed) ->
          let g = Families.build fam ~n ~seed in
          List.map
            (fun (how, g) ->
              let root = Random.State.int st (Graph.n g) in
              (Printf.sprintf "%s n=%d seed=%d root=%d %s" (Families.name fam) n seed root how, g, root))
            [ ("ports as built", g); ("ports permuted", Transform.permute_ports g st) ])
        [ (2, 1); (3, 2); (7, 3); (16, 4); (33, 5); (100, 6); (257, 7); (600, 8) ])
    Families.all

let test_light_same_weights_as_mst () =
  List.iter
    (fun (name, g, root) ->
      let light = Spanning.edges (Spanning.light g ~root) and mst = Mst.kruskal g in
      check_int (name ^ ": Mst.weight") (Mst.weight g mst) (Mst.weight g light);
      check_int (name ^ ": contribution") (Spanning.contribution g mst)
        (Spanning.contribution g light))
    (reference_draws ())

(* [Transform.permute_ports] as first written: per-node permutation
   arrays, the edge list rewritten and rebuilt by [Graph.make].  The
   CSR-to-CSR version must draw the same permutations and build an equal
   graph. *)
let reference_permute_ports g st =
  let perms =
    Array.init (Graph.n g) (fun v ->
        let d = Graph.degree g v in
        let p = Array.init d (fun i -> i) in
        for i = d - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let tmp = p.(i) in
          p.(i) <- p.(j);
          p.(j) <- tmp
        done;
        p)
  in
  Graph.make ~labels:(Graph.labels g) ~n:(Graph.n g)
    (List.map
       (fun e ->
         { e with Graph.pu = perms.(e.Graph.u).(e.Graph.pu); pv = perms.(e.Graph.v).(e.Graph.pv) })
       (Graph.edges g))

let test_permute_ports_matches_reference () =
  List.iteri
    (fun i (name, g, _) ->
      let permuted = Transform.permute_ports g (Random.State.make [| i |]) in
      check_bool (name ^ ": permute_ports") true
        (Graph.equal (reference_permute_ports g (Random.State.make [| i |])) permuted))
    (reference_draws ())

let check_same_tree name g (t : Spanning.t) (r : Ref.t) =
  let n = Graph.n g in
  check_int (name ^ ": root") r.Ref.root t.Spanning.root;
  Alcotest.(check (array (option (pair int int))))
    (name ^ ": parents and parent ports")
    r.Ref.parent
    (Array.init n (Spanning.parent t));
  Alcotest.(check (array (list (pair int int))))
    (name ^ ": children in port order")
    r.Ref.children
    (Array.init n (Spanning.children t));
  check_bool (name ^ ": edge list") true (Ref.edges r = Spanning.edges t)

let test_traversals_match_reference () =
  List.iter
    (fun (name, g, root) ->
      let dist, parents = Traverse.bfs g ~root in
      let ref_dist, ref_parents = Ref.bfs g ~root in
      Alcotest.(check (array int)) (name ^ ": bfs dist") ref_dist dist;
      Alcotest.(check (array (option int))) (name ^ ": bfs parents") ref_parents (to_options parents);
      Alcotest.(check (array (option int)))
        (name ^ ": dfs parents")
        (Ref.dfs_parents g ~root)
        (to_options (Traverse.dfs_parents g ~root)))
    (reference_draws ())

let test_trees_match_reference () =
  List.iter
    (fun (name, g, root) ->
      List.iter
        (fun (kind, (t : Spanning.t)) ->
          let name = name ^ " " ^ kind in
          assert_tree name g t;
          let r = Ref.of_parents g ~root (to_options t.Spanning.parent_node) in
          check_same_tree name g t r;
          Alcotest.(check (array (list int)))
            (name ^ ": weight assignment")
            (Ref.weight_assignment g r)
            (Oracle_core.Broadcast.weight_assignment g t))
        [
          ("bfs", Spanning.bfs g ~root);
          ("dfs", Spanning.dfs g ~root);
          ("light", Spanning.light g ~root);
        ];
      check_same_tree (name ^ " bfs from reference parents") g (Spanning.bfs g ~root)
        (Ref.of_parents g ~root (snd (Ref.bfs g ~root)));
      check_same_tree (name ^ " dfs from reference parents") g (Spanning.dfs g ~root)
        (Ref.of_parents g ~root (Ref.dfs_parents g ~root)))
    (reference_draws ())

(* The oracles' advice, node by node, against the encoders applied to
   the reference trees: children ports for Thm 2.1 (BFS tree), light-tree
   weights for Thm 3.1. *)
let test_advice_matches_reference () =
  let module Bitbuf = Bitstring.Bitbuf in
  let module Codes = Bitstring.Codes in
  let module Binary = Bitstring.Binary in
  let wakeup_bits enc ~n ports =
    let buf = Bitbuf.create () in
    (match (ports, enc) with
    | [], _ -> ()
    | _, Oracle_core.Wakeup.Paper ->
      Codes.write_port_list buf ~width:(max 1 (Binary.ceil_log2 n)) ports
    | _, Oracle_core.Wakeup.Paper_minimal ->
      Codes.write_port_list buf ~width:(Binary.bits (List.fold_left max 0 ports)) ports
    | _, Oracle_core.Wakeup.Gamma -> List.iter (Codes.write_gamma buf) ports);
    buf
  in
  let broadcast_bits enc ws =
    let buf = Bitbuf.create () in
    (match enc with
    | Oracle_core.Broadcast.Marked -> Codes.write_marked_list buf ws
    | Oracle_core.Broadcast.Gamma -> List.iter (Codes.write_gamma buf) ws);
    buf
  in
  let same name advice expected =
    Array.iteri
      (fun v buf ->
        if not (Bitbuf.equal buf (Oracles.Advice.get advice v)) then
          Alcotest.failf "%s: advice of node %d differs" name v)
      expected
  in
  List.iter
    (fun (name, g, root) ->
      let n = Graph.n g in
      let bfs = Ref.of_parents g ~root (snd (Ref.bfs g ~root)) in
      List.iter
        (fun enc ->
          let o = Oracle_core.Wakeup.oracle ~encoding:enc () in
          same
            (name ^ " wakeup " ^ Oracle_core.Wakeup.encoding_name enc)
            (o.Oracles.Oracle.advise g ~source:root)
            (Array.init n (fun v -> wakeup_bits enc ~n (Ref.children_ports bfs v))))
        Oracle_core.Wakeup.[ Paper; Paper_minimal; Gamma ];
      let light = Spanning.light g ~root in
      let weights =
        Ref.weight_assignment g (Ref.of_parents g ~root (to_options light.Spanning.parent_node))
      in
      List.iter
        (fun enc ->
          let o = Oracle_core.Broadcast.oracle ~encoding:enc () in
          same
            (name ^ " broadcast " ^ Oracle_core.Broadcast.encoding_name enc)
            (o.Oracles.Oracle.advise g ~source:root)
            (Array.map (broadcast_bits enc) weights))
        Oracle_core.Broadcast.[ Marked; Gamma ])
    (reference_draws ())

let suite =
  [
    Alcotest.test_case "bfs trees valid" `Quick test_bfs_trees;
    Alcotest.test_case "dfs trees valid" `Quick test_dfs_trees;
    Alcotest.test_case "random trees valid" `Quick test_random_trees;
    Alcotest.test_case "light trees valid" `Quick test_light_trees;
    Alcotest.test_case "n-1 edges" `Quick test_edges_count;
    Alcotest.test_case "non-zero root" `Quick test_nontrivial_root;
    Alcotest.test_case "depth" `Quick test_depth;
    Alcotest.test_case "children ports sorted" `Quick test_children_ports_sorted;
    Alcotest.test_case "of_parents rejects cycles" `Quick test_of_parents_rejects_cycle;
    Alcotest.test_case "of_parents rejects non-edges" `Quick test_of_parents_rejects_non_edge;
    Alcotest.test_case "contribution on a path" `Quick test_contribution_small;
    Alcotest.test_case "Claim 3.1: light tree within 4n" `Quick test_light_contribution_bound;
    Alcotest.test_case "light beats BFS on K*_n" `Quick test_light_beats_naive_on_complete;
    Alcotest.test_case "light tree matches the reference phase loop" `Quick
      test_light_matches_reference;
    Alcotest.test_case "light rejects a disconnected graph" `Quick test_light_rejects_disconnected;
    Alcotest.test_case "light tree on one and two nodes" `Quick test_light_tiny;
    Alcotest.test_case "light tree has an MST's weight and contribution" `Quick
      test_light_same_weights_as_mst;
    Alcotest.test_case "permute_ports matches the list-built graph" `Quick
      test_permute_ports_matches_reference;
    Alcotest.test_case "bfs and dfs parents match the list-based walks" `Quick
      test_traversals_match_reference;
    Alcotest.test_case "flat trees match the list-based trees" `Quick test_trees_match_reference;
    Alcotest.test_case "advice matches the list-based trees" `Quick test_advice_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_light_tree;
    QCheck_alcotest.to_alcotest qcheck_light_is_mst;
    QCheck_alcotest.to_alcotest qcheck_random_spanning;
  ]
