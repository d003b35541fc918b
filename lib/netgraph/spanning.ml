(* Flat layout: per-node parent and port arrays, and the children of
   every node in one CSR block (offsets, child, port at the parent), each
   row in ascending port order.  No option, tuple or list cell per node;
   [parent] and [children] rebuild the boxed views for callers off the
   set-up path. *)
type t = {
  root : int;
  parent_node : int array;
  parent_port : int array;
  child_off : int array;
  child_node : int array;
  child_port : int array;
}

let fail fmt = Printf.ksprintf invalid_arg fmt

let of_parents g ~root parents =
  let n = Graph.n g in
  if Array.length parents <> n then fail "Spanning.of_parents: wrong array size";
  if parents.(root) >= 0 then fail "Spanning.of_parents: root has a parent";
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g in
  let parent_port = Array.make n (-1) in
  for v = 0 to n - 1 do
    let u = parents.(v) in
    if u < 0 then begin
      if v <> root then fail "Spanning.of_parents: node %d has no parent" v
    end
    else begin
      let stop = off.(v + 1) in
      let i = ref off.(v) in
      while !i < stop && nbr.(!i) <> u do
        incr i
      done;
      if !i = stop then fail "Spanning.of_parents: edge %d-%d not in graph" v u;
      parent_port.(v) <- !i - off.(v)
    end
  done;
  (* Acyclicity + reachability in O(n) total: walk up from each node,
     stopping at the first node already certified as rooted; nodes on the
     current chain are marked in-progress, so meeting one again is a
     cycle.  Each node is walked over at most twice across all starts
     (once in-progress, once certifying), so a million-node path costs a
     linear pass, not the quadratic per-node climb.  Every non-root node
     has a parent by now, and the root is certified, so a climb always
     ends. *)
  let state = Array.make n 0 in
  (* 0 = unknown, 1 = on the current chain, 2 = certified rooted. *)
  state.(root) <- 2;
  for v = 0 to n - 1 do
    if state.(v) = 0 then begin
      let u = ref v in
      while state.(!u) = 0 do
        state.(!u) <- 1;
        u := parents.(!u)
      done;
      if state.(!u) = 1 then fail "Spanning.of_parents: cycle through node %d" v;
      let u = ref v in
      while state.(!u) = 1 do
        state.(!u) <- 2;
        u := parents.(!u)
      done
    end
  done;
  (* Children in port order: scanning [u]'s slots in port order, the
     neighbor behind a slot is a child exactly when its parent is [u]
     (there are no parallel edges). *)
  let child_off = Array.make (n + 1) 0 in
  let child_node = Array.make (n - 1) 0 and child_port = Array.make (n - 1) 0 in
  let k = ref 0 in
  for u = 0 to n - 1 do
    let base = off.(u) in
    for i = base to off.(u + 1) - 1 do
      let v = nbr.(i) in
      if parents.(v) = u then begin
        child_node.(!k) <- v;
        child_port.(!k) <- i - base;
        incr k
      end
    done;
    child_off.(u + 1) <- !k
  done;
  { root; parent_node = parents; parent_port; child_off; child_node; child_port }

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
  (* Degrees summed to block ends, then each endpoint placed by
     decrementing its end, which leaves [off.(u)] at the block start. *)
  let off = Array.make (n + 1) 0 in
  off.(n) <- 2 * count;
  for i = 0 to count - 1 do
    off.(eu.(i)) <- off.(eu.(i)) + 1;
    off.(ev.(i)) <- off.(ev.(i)) + 1
  done;
  for u = 1 to n - 1 do
    off.(u) <- off.(u) + off.(u - 1)
  done;
  let adj = Array.make (2 * count) 0 in
  for i = 0 to count - 1 do
    let u = eu.(i) and v = ev.(i) in
    off.(u) <- off.(u) - 1;
    adj.(off.(u)) <- v;
    off.(v) <- off.(v) - 1;
    adj.(off.(v)) <- u
  done;
  (* [-1] marks a node not reached yet; the root keeps it. *)
  let parents = Array.make n (-1) in
  let queue = Array.make n 0 in
  queue.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for i = off.(u) to off.(u + 1) - 1 do
      let v = adj.(i) in
      if parents.(v) < 0 && v <> root then begin
        parents.(v) <- u;
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

(* Claim 3.1.  The paper grows the tree in Borůvka-style phases: in phase
   k every component of size < 2^k selects a minimum-weight outgoing edge
   (w(e) = min of the two ports), and the selections are merged.  Fix the
   ties by a strict total order — weight, then position in the edge table
   of [Graph.fold_edges] order (u ascending, then port) — and every such
   selection is the lightest edge leaving its component, so by the cut
   property it lies in the unique minimum spanning tree for that order.
   The phases therefore build exactly the tree Kruskal builds over the
   same order, which is what this does: a stable counting sort of the
   edges by weight (max degree bounds w), then one DSU pass that stops
   at n-1 unions.  The accepted edges are compacted into the front of
   the sorted arrays, which never overtakes the scan. *)
let light g ~root =
  let n = Graph.n g in
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g and prt = Graph.csr_ports g in
  let max_deg = ref 0 in
  for u = 0 to n - 1 do
    max_deg := max !max_deg (off.(u + 1) - off.(u))
  done;
  (* [start.(w + 1)] counts the edges of weight w, then the prefix sums
     make [start.(w)] the first slot of weight w. *)
  let start = Array.make (!max_deg + 1) 0 in
  for u = 0 to n - 1 do
    let base = off.(u) in
    for i = base to off.(u + 1) - 1 do
      if u < nbr.(i) then begin
        let w = min (i - base) prt.(i) in
        start.(w + 1) <- start.(w + 1) + 1
      end
    done
  done;
  for w = 1 to !max_deg do
    start.(w) <- start.(w) + start.(w - 1)
  done;
  let m = Graph.m g in
  let eu = Array.make m 0 and ev = Array.make m 0 in
  for u = 0 to n - 1 do
    let base = off.(u) in
    for i = base to off.(u + 1) - 1 do
      let v = nbr.(i) in
      if u < v then begin
        let w = min (i - base) prt.(i) in
        let j = start.(w) in
        eu.(j) <- u;
        ev.(j) <- v;
        start.(w) <- j + 1
      end
    done
  done;
  let dsu = Dsu.create n in
  let count = ref 0 and i = ref 0 in
  while !count < n - 1 && !i < m do
    let u = eu.(!i) and v = ev.(!i) in
    if Dsu.union dsu u v then begin
      eu.(!count) <- u;
      ev.(!count) <- v;
      incr count
    end;
    incr i
  done;
  if !count < n - 1 then fail "Spanning.light: disconnected graph";
  of_parents g ~root (parents_from_edges g ~root ~count:!count eu ev)

let size t = Array.length t.parent_node

let parent t v = if t.parent_node.(v) < 0 then None else Some (t.parent_node.(v), t.parent_port.(v))

let children t u =
  let acc = ref [] in
  for k = t.child_off.(u + 1) - 1 downto t.child_off.(u) do
    acc := (t.child_node.(k), t.child_port.(k)) :: !acc
  done;
  !acc

let children_ports t u =
  let acc = ref [] in
  for k = t.child_off.(u + 1) - 1 downto t.child_off.(u) do
    acc := t.child_port.(k) :: !acc
  done;
  !acc

(* In ascending child index: the order the broadcast oracle's weight
   lists follow. *)
let edges t =
  let n = size t in
  let down = Array.make n 0 in
  for k = 0 to Array.length t.child_node - 1 do
    down.(t.child_node.(k)) <- t.child_port.(k)
  done;
  let acc = ref [] in
  for v = n - 1 downto 0 do
    let u = t.parent_node.(v) in
    if u >= 0 then begin
      let pu = down.(v) and pv = t.parent_port.(v) in
      let e =
        if u < v then { Graph.u; pu; v; pv } else { Graph.u = v; pu = pv; v = u; pv = pu }
      in
      acc := e :: !acc
    end
  done;
  !acc

let check g t =
  try
    let n = Graph.n g in
    let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g in
    let deg u = off.(u + 1) - off.(u) in
    if
      Array.length t.parent_node <> n
      || Array.length t.parent_port <> n
      || Array.length t.child_off <> n + 1
    then failwith "size mismatch";
    if t.root < 0 || t.root >= n then failwith "root out of range";
    if t.parent_node.(t.root) >= 0 then failwith "root has a parent";
    let count = ref 0 in
    for v = 0 to n - 1 do
      let u = t.parent_node.(v) in
      if u < 0 then begin
        if v <> t.root then failwith "non-root without parent"
      end
      else begin
        incr count;
        let pv = t.parent_port.(v) in
        if u >= n || pv < 0 || pv >= deg v || nbr.(off.(v) + pv) <> u then
          failwith "parent port does not match graph"
      end
    done;
    if !count <> n - 1 then failwith "wrong edge count";
    if
      Array.length t.child_node <> n - 1
      || Array.length t.child_port <> n - 1
      || t.child_off.(0) <> 0
      || t.child_off.(n) <> n - 1
    then failwith "children lists inconsistent";
    (* Each listed child names this node as its parent, through the
       port the row gives, in ascending port order.  Ports are distinct
       and there are no parallel edges, so no child is listed twice;
       with n-1 slots every non-root node is listed exactly once. *)
    for u = 0 to n - 1 do
      let first = t.child_off.(u) and stop = t.child_off.(u + 1) in
      if stop < first then failwith "children lists inconsistent";
      for k = first to stop - 1 do
        let v = t.child_node.(k) and pu = t.child_port.(k) in
        if v < 0 || v >= n || t.parent_node.(v) <> u then failwith "child missing from parent's list";
        if pu < 0 || pu >= deg u || nbr.(off.(u) + pu) <> v then
          failwith "child port does not match graph";
        if k > first && t.child_port.(k - 1) >= pu then failwith "children not in port order"
      done
    done;
    (* Reachability from root via children links, on an explicit stack. *)
    let seen = Array.make n false in
    let stack = Array.make n 0 in
    let top = ref 0 in
    stack.(0) <- t.root;
    seen.(t.root) <- true;
    while !top >= 0 do
      let u = stack.(!top) in
      decr top;
      for k = t.child_off.(u) to t.child_off.(u + 1) - 1 do
        let v = t.child_node.(k) in
        if seen.(v) then failwith "cycle";
        seen.(v) <- true;
        incr top;
        stack.(!top) <- v
      done
    done;
    if not (Array.for_all (fun b -> b) seen) then failwith "not spanning";
    Ok ()
  with Failure msg -> Error msg

let depth t =
  let n = size t in
  let d = Array.make n (-1) in
  let queue = Array.make n 0 in
  d.(t.root) <- 0;
  queue.(0) <- t.root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for k = t.child_off.(u) to t.child_off.(u + 1) - 1 do
      let v = t.child_node.(k) in
      d.(v) <- d.(u) + 1;
      queue.(!tail) <- v;
      incr tail
    done
  done;
  d

let contribution g es =
  List.fold_left (fun acc e -> acc + Bitstring.Binary.bits (Graph.edge_weight g e)) 0 es
