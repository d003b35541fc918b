type t = {
  root : int;
  parent : (int * int) option array;
  children : (int * int) list array;
}

let fail fmt = Printf.ksprintf invalid_arg fmt

let of_parents g ~root parents =
  let n = Graph.n g in
  if Array.length parents <> n then fail "Spanning.of_parents: wrong array size";
  if parents.(root) <> None then fail "Spanning.of_parents: root has a parent";
  let parent = Array.make n None in
  Array.iteri
    (fun v p ->
      match p with
      | None -> if v <> root then fail "Spanning.of_parents: node %d has no parent" v
      | Some u ->
        (match Graph.port_to g v u with
        | None -> fail "Spanning.of_parents: edge %d-%d not in graph" v u
        | Some pv -> parent.(v) <- Some (u, pv)))
    parents;
  (* Acyclicity + reachability in O(n) total: walk up from each node,
     stopping at the first node already certified as rooted; nodes on the
     current chain are marked in-progress, so meeting one again is a
     cycle.  Each node is walked over at most twice across all starts
     (once in-progress, once certifying), so a million-node path costs a
     linear pass, not the quadratic per-node climb it used to. *)
  let state = Array.make n 0 in
  (* 0 = unknown, 1 = on the current chain, 2 = certified rooted. *)
  state.(root) <- 2;
  for v = 0 to n - 1 do
    if state.(v) = 0 then begin
      let u = ref v in
      while state.(!u) = 0 do
        state.(!u) <- 1;
        match parent.(!u) with
        | Some (w, _) -> u := w
        | None -> fail "Spanning.of_parents: node %d not rooted" v
      done;
      if state.(!u) = 1 then fail "Spanning.of_parents: cycle through node %d" v;
      let u = ref v in
      while state.(!u) = 1 do
        state.(!u) <- 2;
        match parent.(!u) with Some (w, _) -> u := w | None -> ()
      done
    end
  done;
  (* Children in port order: walk each row from its last port down and
     keep the neighbors whose parent is this node (no parallel edges, so
     the edge back is the one the parent port names). *)
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g in
  let children = Array.make n [] in
  for u = 0 to n - 1 do
    for i = off.(u + 1) - 1 downto off.(u) do
      let v = nbr.(i) in
      match parent.(v) with
      | Some (w, _) when w = u -> children.(u) <- (v, i - off.(u)) :: children.(u)
      | _ -> ()
    done
  done;
  { root; parent; children }

let bfs g ~root =
  let _, parents = Traverse.bfs g ~root in
  of_parents g ~root parents

let dfs g ~root =
  let parents = Traverse.dfs_parents g ~root in
  of_parents g ~root parents

let parents_from_edges g ~root ~count eu ev =
  (* Orient an (acyclic, spanning) edge set, the first [count] entries of
     [eu]/[ev], towards [root]: a BFS over the set's own CSR adjacency.
     For a spanning tree the orientation is unique, so neither the edge
     order nor the BFS order shows in the result. *)
  let n = Graph.n g in
  let off = Array.make (n + 1) 0 in
  for i = 0 to count - 1 do
    off.(eu.(i) + 1) <- off.(eu.(i) + 1) + 1;
    off.(ev.(i) + 1) <- off.(ev.(i) + 1) + 1
  done;
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u + 1) + off.(u)
  done;
  let fill = Array.sub off 0 n in
  let adj = Array.make (2 * count) 0 in
  for i = 0 to count - 1 do
    let u = eu.(i) and v = ev.(i) in
    adj.(fill.(u)) <- v;
    fill.(u) <- fill.(u) + 1;
    adj.(fill.(v)) <- u;
    fill.(v) <- fill.(v) + 1
  done;
  let parents = Array.make n None in
  let seen = Array.make n false in
  let queue = Array.make n 0 in
  seen.(root) <- true;
  queue.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for i = off.(u) to off.(u + 1) - 1 do
      let v = adj.(i) in
      if not seen.(v) then begin
        seen.(v) <- true;
        parents.(v) <- Some u;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  if !tail < n then fail "Spanning: edge set does not span";
  parents

let random g ~root st =
  let edges = Array.of_list (Graph.edges g) in
  for i = Array.length edges - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = edges.(i) in
    edges.(i) <- edges.(j);
    edges.(j) <- tmp
  done;
  let n = Graph.n g in
  let dsu = Dsu.create n in
  let tu = Array.make (n - 1) 0 and tv = Array.make (n - 1) 0 in
  let count = ref 0 in
  Array.iter
    (fun e ->
      if Dsu.union dsu e.Graph.u e.Graph.v then begin
        tu.(!count) <- e.Graph.u;
        tv.(!count) <- e.Graph.v;
        incr count
      end)
    edges;
  of_parents g ~root (parents_from_edges g ~root ~count:!count tu tv)

(* Claim 3.1.  Phases k = 1, 2, …: every component of size < 2^k selects a
   minimum-weight outgoing edge (w(e) = min of the two ports); selected
   edges are merged, a cycle-closing selection being skipped (the paper
   erases one edge per cycle, which is the same tree up to the arbitrary
   choice).

   The edges live in one flat table (u, v, w) built once from the CSR
   arrays in [Graph.fold_edges] order: u ascending, then port.  Each
   phase scans the table once, and the scan also compacts it in place,
   dropping edges whose endpoints already share a component while keeping
   the rest in order, so later phases touch only the edges still between
   components.  A component's candidate is replaced only by a strictly
   lighter edge, so ties go to the first minimum in table order; the
   selections are merged in ascending root order.  Those two rules fix
   the tree. *)
let light g ~root =
  let n = Graph.n g in
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g and prt = Graph.csr_ports g in
  let m = Graph.m g in
  let eu = Array.make m 0 and ev = Array.make m 0 and ew = Array.make m 0 in
  let len = ref 0 in
  for u = 0 to n - 1 do
    let base = off.(u) in
    for pu = 0 to off.(u + 1) - base - 1 do
      let v = nbr.(base + pu) in
      if u < v then begin
        eu.(!len) <- u;
        ev.(!len) <- v;
        ew.(!len) <- min pu prt.(base + pu);
        incr len
      end
    done
  done;
  let dsu = Dsu.create n in
  (* Per root: the lightest outgoing edge seen this phase (an index into
     the compacted table); [max_int] means none. *)
  let best_w = Array.make n max_int and best_e = Array.make n 0 in
  let picked = Array.make n 0 in
  let tu = Array.make (n - 1) 0 and tv = Array.make (n - 1) 0 in
  let count = ref 0 in
  let k = ref 1 in
  while Dsu.components dsu > 1 do
    let threshold = 1 lsl !k in
    let kept = ref 0 in
    for i = 0 to !len - 1 do
      let u = eu.(i) and v = ev.(i) in
      let ru = Dsu.find dsu u and rv = Dsu.find dsu v in
      if ru <> rv then begin
        let j = !kept and w = ew.(i) in
        eu.(j) <- u;
        ev.(j) <- v;
        ew.(j) <- w;
        incr kept;
        if w < best_w.(ru) then begin
          best_w.(ru) <- w;
          best_e.(ru) <- j
        end;
        if w < best_w.(rv) then begin
          best_w.(rv) <- w;
          best_e.(rv) <- j
        end
      end
    done;
    len := !kept;
    (* Collect every small component's selection before merging any, so
       the roots and sizes tested are this phase's. *)
    let small = ref 0 and selected = ref 0 in
    for r = 0 to n - 1 do
      if Dsu.find dsu r = r then begin
        if Dsu.size dsu r < threshold then begin
          incr small;
          if best_w.(r) < max_int then begin
            picked.(!selected) <- best_e.(r);
            incr selected
          end
        end;
        best_w.(r) <- max_int
      end
    done;
    (* A phase in which no component is small simply advances k; but a
       small component with no outgoing edge means the graph is
       disconnected. *)
    if !small > 0 && !selected = 0 then fail "Spanning.light: disconnected graph";
    for i = 0 to !selected - 1 do
      let e = picked.(i) in
      if Dsu.union dsu eu.(e) ev.(e) then begin
        tu.(!count) <- eu.(e);
        tv.(!count) <- ev.(e);
        incr count
      end
    done;
    incr k
  done;
  of_parents g ~root (parents_from_edges g ~root ~count:!count tu tv)

let size t = Array.length t.parent

let edges t =
  let acc = ref [] in
  Array.iteri
    (fun v p ->
      match p with
      | None -> ()
      | Some (u, pv) ->
        let pu =
          match t.children.(u) |> List.assoc_opt v with
          | Some p -> p
          | None -> -1
        in
        let e =
          if u < v then { Graph.u; pu; v; pv } else { Graph.u = v; pu = pv; v = u; pv = pu }
        in
        acc := e :: !acc)
    t.parent;
  List.rev !acc

let check g t =
  try
    let n = Graph.n g in
    if Array.length t.parent <> n then failwith "size mismatch";
    if t.parent.(t.root) <> None then failwith "root has a parent";
    let count = ref 0 in
    Array.iteri
      (fun v p ->
        match p with
        | None -> if v <> t.root then failwith "non-root without parent"
        | Some (u, pv) ->
          incr count;
          (match Graph.port_to g v u with
          | Some p' when p' = pv -> ()
          | _ -> failwith "parent port does not match graph");
          (match List.assoc_opt v t.children.(u) with
          | Some pu ->
            (match Graph.port_to g u v with
            | Some p' when p' = pu -> ()
            | _ -> failwith "child port does not match graph")
          | None -> failwith "child missing from parent's list"))
      t.parent;
    if !count <> n - 1 then failwith "wrong edge count";
    let listed = Array.fold_left (fun acc l -> acc + List.length l) 0 t.children in
    if listed <> n - 1 then failwith "children lists inconsistent";
    (* Reachability from root via children links — explicit stack, so
       deep (path-like) trees cannot overflow the call stack. *)
    let seen = Array.make n false in
    let stack = ref [ t.root ] in
    seen.(t.root) <- true;
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | u :: rest ->
        stack := rest;
        List.iter
          (fun (v, _) ->
            if seen.(v) then failwith "cycle"
            else begin
              seen.(v) <- true;
              stack := v :: !stack
            end)
          t.children.(u)
    done;
    if not (Array.for_all (fun b -> b) seen) then failwith "not spanning";
    Ok ()
  with Failure msg -> Error msg

let depth t =
  let n = size t in
  let d = Array.make n (-1) in
  let stack = ref [ (t.root, 0) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (u, depth_u) :: rest ->
      stack := rest;
      d.(u) <- depth_u;
      List.iter (fun (v, _) -> stack := (v, depth_u + 1) :: !stack) t.children.(u)
  done;
  d

let contribution g es =
  List.fold_left (fun acc e -> acc + Bitstring.Binary.bits (Graph.edge_weight g e)) 0 es

let children_ports t u = List.map snd t.children.(u)
