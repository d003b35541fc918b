(* Every walk reads the CSR arrays directly and keeps its frontier in a
   preallocated int array: no neighbor tuple list per visited node, no
   [Queue] cell per push.  Rows are scanned from [off.(u)] up, which is
   port order. *)

let bfs g ~root =
  let n = Graph.n g in
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g in
  let dist = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let queue = Array.make n 0 in
  dist.(root) <- 0;
  queue.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) + 1 in
    for i = off.(u) to off.(u + 1) - 1 do
      let v = nbr.(i) in
      if dist.(v) < 0 then begin
        dist.(v) <- du;
        parent.(v) <- u;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  (dist, parent)

(* The recursive walk, unrolled onto two int stacks: the node and the
   CSR slot it resumes from.  A node's next unseen neighbor is entered
   before the rest of its row is looked at, exactly as a recursive call
   per neighbor would, so the parents are the recursive DFS's; the depth
   is bounded by [n] array cells instead of [n] call frames. *)
let dfs_parents g ~root =
  let n = Graph.n g in
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g in
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  let node = Array.make n 0 and slot = Array.make n 0 in
  seen.(root) <- true;
  node.(0) <- root;
  slot.(0) <- off.(root);
  let top = ref 0 in
  while !top >= 0 do
    let u = node.(!top) and i = slot.(!top) in
    if i = off.(u + 1) then decr top
    else begin
      slot.(!top) <- i + 1;
      let v = nbr.(i) in
      if not seen.(v) then begin
        seen.(v) <- true;
        parent.(v) <- u;
        incr top;
        node.(!top) <- v;
        slot.(!top) <- off.(v)
      end
    end
  done;
  parent

let components g =
  let n = Graph.n g in
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g in
  let comp = Array.make n (-1) in
  let queue = Array.make n 0 in
  let k = ref 0 in
  for s = 0 to n - 1 do
    if comp.(s) < 0 then begin
      comp.(s) <- !k;
      queue.(0) <- s;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        for i = off.(u) to off.(u + 1) - 1 do
          let v = nbr.(i) in
          if comp.(v) < 0 then begin
            comp.(v) <- !k;
            queue.(!tail) <- v;
            incr tail
          end
        done
      done;
      incr k
    end
  done;
  (comp, !k)

let eccentricity g u =
  let dist, _ = bfs g ~root:u in
  Array.fold_left
    (fun acc d ->
      if d < 0 then invalid_arg "Traverse.eccentricity: disconnected graph" else max acc d)
    0 dist

let diameter g =
  let n = Graph.n g in
  let rec loop u acc = if u >= n then acc else loop (u + 1) (max acc (eccentricity g u)) in
  loop 0 0

let distance g u v =
  let dist, _ = bfs g ~root:u in
  if dist.(v) < 0 then None else Some dist.(v)
