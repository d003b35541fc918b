let fail fmt = Printf.ksprintf invalid_arg fmt

let edge_key e = (min e.Graph.u e.Graph.v, max e.Graph.u e.Graph.v)

let max_label g =
  let best = ref min_int in
  for i = 0 to Graph.n g - 1 do
    best := max !best (Graph.label g i)
  done;
  !best

let check_chosen g chosen =
  let seen = Hashtbl.create (List.length chosen) in
  List.iter
    (fun e ->
      let key = edge_key e in
      if Hashtbl.mem seen key then fail "Transform: edge %d-%d chosen twice" (fst key) (snd key);
      Hashtbl.add seen key ();
      match Graph.port_to g e.Graph.u e.Graph.v with
      | Some p when p = e.Graph.pu ->
        (match Graph.port_to g e.Graph.v e.Graph.u with
        | Some q when q = e.Graph.pv -> ()
        | _ -> fail "Transform: edge %d-%d has wrong ports" e.Graph.u e.Graph.v)
      | _ -> fail "Transform: edge %d-%d not in graph" e.Graph.u e.Graph.v)
    chosen;
  seen

let subdivide g ~chosen =
  let n = Graph.n g in
  let (_ : (int * int, unit) Hashtbl.t) = check_chosen g chosen in
  let base = max_label g in
  let s = List.length chosen in
  (* Host nodes keep their port numbering, so the subdivided graph is the
     host's port map with the two slots of each chosen edge redirected to
     a fresh degree-2 middle node.  Building that map in place and handing
     it to [Graph.of_port_map] skips the three m-length edge lists the
     edge-list path would allocate — for G_{n,S} the host is a clique, so
     those lists are the dominant setup cost. *)
  let adj =
    Array.init (n + s) (fun u ->
        if u < n then Array.init (Graph.degree g u) (fun p -> Graph.endpoint g u p)
        else Array.make 2 (-1, -1))
  in
  List.iteri
    (fun i e ->
      let w = n + i in
      let u, pu, v, pv = (e.Graph.u, e.Graph.pu, e.Graph.v, e.Graph.pv) in
      let lu = Graph.label g u and lv = Graph.label g v in
      (* Port 0 at the middle node towards the smaller-labeled endpoint. *)
      let port_u_side, port_v_side = if lu < lv then (0, 1) else (1, 0) in
      adj.(u).(pu) <- (w, port_u_side);
      adj.(w).(port_u_side) <- (u, pu);
      adj.(v).(pv) <- (w, port_v_side);
      adj.(w).(port_v_side) <- (v, pv))
    chosen;
  let labels = Array.init (n + s) (fun i -> if i < n then Graph.label g i else base + (i - n) + 1) in
  Graph.of_port_map ~labels adj

(* Internal clique port rule: port p at local node x (0-based) leads to
   local node (x + p + 1) mod k; hence the port at x towards y is
   (y - x - 1) mod k, always in 0..k-2. *)
let clique_port ~k x y = (((y - x - 1) mod k) + k) mod k

let substitute_cliques g ~k ~chosen ~missing =
  if k < 3 then fail "Transform.substitute_cliques: k = %d < 3" k;
  if List.length chosen <> List.length missing then
    fail "Transform.substitute_cliques: %d edges but %d missing pairs" (List.length chosen)
      (List.length missing);
  let n = Graph.n g in
  let chosen_set = check_chosen g chosen in
  let base = max_label g in
  let host_edges =
    List.filter (fun e -> not (Hashtbl.mem chosen_set (edge_key e))) (Graph.edges g)
  in
  let q = List.length chosen in
  let labels =
    Array.init
      (n + (q * k))
      (fun i -> if i < n then Graph.label g i else base + (i - n) + 1)
  in
  let new_edges = ref [] in
  List.iteri
    (fun i (e, (a, b)) ->
      if a < 1 || b > k || a >= b then fail "Transform.substitute_cliques: bad pair (%d,%d)" a b;
      (* Orient the host edge so that label u < label v, as in the paper. *)
      let u, pu, v, pv =
        if Graph.label g e.Graph.u < Graph.label g e.Graph.v then
          (e.Graph.u, e.Graph.pu, e.Graph.v, e.Graph.pv)
        else (e.Graph.v, e.Graph.pv, e.Graph.u, e.Graph.pu)
      in
      let node_of_local a = n + (i * k) + (a - 1) in
      (* Internal edges: all pairs except {a, b}. *)
      for x = 1 to k do
        for y = x + 1 to k do
          if not (x = a && y = b) then
            new_edges :=
              {
                Graph.u = node_of_local x;
                pu = clique_port ~k (x - 1) (y - 1);
                v = node_of_local y;
                pv = clique_port ~k (y - 1) (x - 1);
              }
              :: !new_edges
        done
      done;
      (* External edges re-use the freed ports. *)
      new_edges :=
        { Graph.u; pu; v = node_of_local a; pv = clique_port ~k (a - 1) (b - 1) } :: !new_edges;
      new_edges :=
        { Graph.u = v; pu = pv; v = node_of_local b; pv = clique_port ~k (b - 1) (a - 1) }
        :: !new_edges)
    (List.combine chosen missing);
  Graph.make ~labels ~n:(n + (q * k)) (host_edges @ !new_edges)

let clique_pairs ~k ~count st =
  if k < 2 then fail "Transform.clique_pairs: k = %d < 2" k;
  List.init count (fun _ ->
      let a = 1 + Random.State.int st k in
      let rec pick () =
        let b = 1 + Random.State.int st k in
        if b = a then pick () else b
      in
      let b = pick () in
      (min a b, max a b))

let choose_edges g ~count st =
  let edges = Array.of_list (Graph.edges g) in
  let m = Array.length edges in
  if count > m then fail "Transform.choose_edges: %d > %d edges" count m;
  for i = m - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = edges.(i) in
    edges.(i) <- edges.(j);
    edges.(j) <- tmp
  done;
  Array.to_list (Array.sub edges 0 count)

let permute_labels g st =
  let n = Graph.n g in
  let labels = Graph.labels g in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = labels.(i) in
    labels.(i) <- labels.(j);
    labels.(j) <- tmp
  done;
  Graph.make ~labels ~n (Graph.edges g)

(* CSR to CSR: the permutations are drawn node by node into one
   slot-indexed array (that draw order is what seeded callers
   reproduce), and the edge behind old port [p] of [u] moves to slot
   [perm (u, p)], its far end renumbered by the neighbor's permutation.
   Offsets are unchanged. *)
let permute_ports g st =
  let n = Graph.n g in
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g and prt = Graph.csr_ports g in
  let perm = Array.make off.(n) 0 in
  for v = 0 to n - 1 do
    let base = off.(v) in
    let d = off.(v + 1) - base in
    for i = 0 to d - 1 do
      perm.(base + i) <- i
    done;
    for i = d - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let tmp = perm.(base + i) in
      perm.(base + i) <- perm.(base + j);
      perm.(base + j) <- tmp
    done
  done;
  let nbr' = Array.make off.(n) 0 and prt' = Array.make off.(n) 0 in
  for u = 0 to n - 1 do
    for i = off.(u) to off.(u + 1) - 1 do
      let v = nbr.(i) in
      let slot = off.(u) + perm.(i) in
      nbr'.(slot) <- v;
      prt'.(slot) <- perm.(off.(v) + prt.(i))
    done
  done;
  Graph.of_csr ~labels:(Graph.labels g) ~n ~off:(Array.copy off) ~nbr:nbr' ~prt:prt' ()
