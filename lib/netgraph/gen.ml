let fail fmt = Printf.ksprintf invalid_arg fmt

(* Build a graph from an unordered edge list (pairs of node indices),
   assigning ports at each node in edge-list order. *)
let of_pairs ?labels ~n pairs =
  let next = Array.make n 0 in
  let edges =
    List.map
      (fun (u, v) ->
        let pu = next.(u) in
        next.(u) <- pu + 1;
        let pv = next.(v) in
        next.(v) <- pv + 1;
        { Graph.u; pu; v; pv })
      pairs
  in
  Graph.make ?labels ~n edges

let path n =
  if n < 1 then fail "Gen.path: n = %d" n;
  (* CSR built directly — same port assignment the edge-list path
     produced (edge (i, i+1) in order, ports claimed first-come): node 0
     reaches 1 on port 0; interior node i reaches i-1 on port 0 and i+1
     on port 1; the last node reaches its predecessor on port 0.  The
     edge-list construction allocated Θ(n) list cells and records just
     for [Graph.make] to tear apart; at n = 10⁷ the three int arrays are
     the whole build. *)
  if n = 1 then Graph.of_csr ~n ~off:[| 0; 0 |] ~nbr:[||] ~prt:[||] ()
  else begin
    let off = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      let deg = if i = 0 || i = n - 1 then 1 else 2 in
      off.(i + 1) <- off.(i) + deg
    done;
    let total = off.(n) in
    let nbr = Array.make total 0 in
    let prt = Array.make total 0 in
    (* Port of edge {i, i+1} at i is (i = 0 ? 0 : 1); at i+1 it is 0. *)
    nbr.(off.(0)) <- 1;
    prt.(off.(0)) <- 0;
    for i = 1 to n - 1 do
      let base = off.(i) in
      nbr.(base) <- i - 1;
      prt.(base) <- (if i - 1 = 0 then 0 else 1);
      if i < n - 1 then begin
        nbr.(base + 1) <- i + 1;
        prt.(base + 1) <- 0
      end
    done;
    Graph.of_csr ~n ~off ~nbr ~prt ()
  end

let cycle n =
  if n < 3 then fail "Gen.cycle: n = %d < 3" n;
  of_pairs ~n (List.init n (fun i -> (i, (i + 1) mod n)))

let star n =
  if n < 2 then fail "Gen.star: n = %d < 2" n;
  of_pairs ~n (List.init (n - 1) (fun i -> (0, i + 1)))

let complete n =
  if n < 2 then fail "Gen.complete: n = %d < 2" n;
  (* Adjacency built directly into the CSR arrays: port p at i leads to
     (i + p + 1) mod n, and the port at j back to i is the q solving
     (j + q + 1) mod n = i.  The edge-list path would allocate an
     n²-record list just to have [Graph.make] tear it apart again; at
     n = 10³ that list alone dominates grid setup. *)
  let off = Array.init (n + 1) (fun i -> i * (n - 1)) in
  let total = n * (n - 1) in
  let nbr = Array.make total 0 in
  let prt = Array.make total 0 in
  for i = 0 to n - 1 do
    let base = off.(i) in
    for p = 0 to n - 2 do
      let j = (i + p + 1) mod n in
      nbr.(base + p) <- j;
      prt.(base + p) <- ((i - j - 1) mod n + n) mod n
    done
  done;
  Graph.of_csr ~n ~off ~nbr ~prt ()

let balanced_tree ~arity ~depth =
  if arity < 1 then fail "Gen.balanced_tree: arity = %d" arity;
  if depth < 0 then fail "Gen.balanced_tree: depth = %d" depth;
  (* Count nodes; build pairs level by level. *)
  let pairs = ref [] in
  let next_id = ref 1 in
  let rec expand node level =
    if level < depth then
      for _ = 1 to arity do
        let child = !next_id in
        incr next_id;
        pairs := (node, child) :: !pairs;
        expand child (level + 1)
      done
  in
  expand 0 0;
  of_pairs ~n:!next_id (List.rev !pairs)

let grid ~rows ~cols =
  if rows < 1 || cols < 1 then fail "Gen.grid: %dx%d" rows cols;
  if rows * cols < 1 then fail "Gen.grid: empty";
  let id r c = (r * cols) + c in
  let pairs = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then pairs := (id r c, id r (c + 1)) :: !pairs;
      if r + 1 < rows then pairs := (id r c, id (r + 1) c) :: !pairs
    done
  done;
  of_pairs ~n:(rows * cols) (List.rev !pairs)

let torus ~rows ~cols =
  if rows < 3 || cols < 3 then fail "Gen.torus: %dx%d (need ≥3x3)" rows cols;
  let id r c = (r * cols) + c in
  let pairs = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      pairs := (id r c, id r ((c + 1) mod cols)) :: !pairs;
      pairs := (id r c, id ((r + 1) mod rows) c) :: !pairs
    done
  done;
  of_pairs ~n:(rows * cols) (List.rev !pairs)

let hypercube ~dim =
  if dim < 1 then fail "Gen.hypercube: dim = %d" dim;
  if dim > 24 then fail "Gen.hypercube: dim = %d too large" dim;
  let n = 1 lsl dim in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for k = 0 to dim - 1 do
      let v = u lxor (1 lsl k) in
      if u < v then edges := { Graph.u; pu = k; v; pv = k } :: !edges
    done
  done;
  Graph.make ~n !edges

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* Build with per-node shuffled port order so port numbers are not
   correlated with construction order.  The CSR arrays are filled
   directly: each row first lists its neighbors in reverse pair order,
   then gets a Fisher–Yates shuffle, rows in node order, so the draws
   from [st] are exactly one per slot past the first of each row.  Every
   slot carries the edge end it holds (pair i's end at u is 2i, at v
   2i + 1), so a reverse port is the slot of the other end, found in one
   lookup instead of a scan of the neighbor's row.  Pair [i] is
   [(pu.(i), pv.(i))]. *)
let of_pairs_shuffled ~n st pu pv =
  let count = Array.length pu in
  let off = Array.make (n + 1) 0 in
  for i = 0 to count - 1 do
    off.(pu.(i) + 1) <- off.(pu.(i) + 1) + 1;
    off.(pv.(i) + 1) <- off.(pv.(i) + 1) + 1
  done;
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u + 1) + off.(u)
  done;
  let total = off.(n) in
  let nbr = Array.make total 0 in
  let side = Array.make total 0 in
  (* Fill each row from its end, so the last pair lands on the first
     slot. *)
  let fill = Array.sub off 1 n in
  for i = 0 to count - 1 do
    let u = pu.(i) and v = pv.(i) in
    let su = fill.(u) - 1 in
    fill.(u) <- su;
    nbr.(su) <- v;
    side.(su) <- 2 * i;
    let sv = fill.(v) - 1 in
    fill.(v) <- sv;
    nbr.(sv) <- u;
    side.(sv) <- (2 * i) + 1
  done;
  for u = 0 to n - 1 do
    let base = off.(u) in
    for i = off.(u + 1) - base - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let a = base + i and b = base + j in
      let tmp = nbr.(a) in
      nbr.(a) <- nbr.(b);
      nbr.(b) <- tmp;
      let tmp = side.(a) in
      side.(a) <- side.(b);
      side.(b) <- tmp
    done
  done;
  let slot = Array.make total 0 in
  for s = 0 to total - 1 do
    slot.(side.(s)) <- s
  done;
  let prt = Array.make total 0 in
  for s = 0 to total - 1 do
    prt.(s) <- slot.(side.(s) lxor 1) - off.(nbr.(s))
  done;
  Graph.of_csr ~n ~off ~nbr ~prt ()

(* The [n-1] pairs of a uniform random labeled tree, as two arrays.  The
   last pair decoded comes first and the first comes last: the order the
   shuffled build, and so the port draws, were pinned with.  Each pair is
   (leaf, neighbor) with the leaf removed as it is paired, so every node
   but [n-1] is the first entry of exactly one pair. *)
let prufer_tree_pairs ~n st =
  let pu = Array.make (n - 1) 0 and pv = Array.make (n - 1) 0 in
  if n = 2 then pv.(0) <- 1
  else if n > 2 then begin
    let seq = Array.init (n - 2) (fun _ -> Random.State.int st n) in
    let deg = Array.make n 1 in
    Array.iter (fun v -> deg.(v) <- deg.(v) + 1) seq;
    (* Standard Prüfer decoding with a simple scan pointer + leaf var. *)
    let ptr = ref 0 in
    while deg.(!ptr) <> 1 do
      incr ptr
    done;
    let leaf = ref !ptr in
    Array.iteri
      (fun k v ->
        pu.(n - 2 - k) <- !leaf;
        pv.(n - 2 - k) <- v;
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
    pu.(0) <- !leaf;
    pv.(0) <- n - 1
  end;
  (pu, pv)

let random_tree ~n st =
  if n < 1 then fail "Gen.random_tree: n = %d" n;
  let pu, pv = prufer_tree_pairs ~n st in
  of_pairs_shuffled ~n st pu pv

(* A growable pair of int arrays. *)
type pairs = { mutable us : int array; mutable vs : int array; mutable len : int }

let push ps u v =
  if ps.len = Array.length ps.us then begin
    let grow a = Array.append a (Array.make (max 16 ps.len) 0) in
    ps.us <- grow ps.us;
    ps.vs <- grow ps.vs
  end;
  ps.us.(ps.len) <- u;
  ps.vs.(ps.len) <- v;
  ps.len <- ps.len + 1

let random_connected ~n ~p st =
  if n < 1 then fail "Gen.random_connected: n = %d" n;
  if p < 0.0 || p > 1.0 then fail "Gen.random_connected: p = %f" p;
  let tu, tv = prufer_tree_pairs ~n st in
  (* Tree membership is two reads of the Prüfer tree as a parent array
     rooted at [n-1], where a hash set keyed on boxed pairs cost a tuple
     and a bucket per tree edge. *)
  let up = Array.make n (-1) in
  Array.iteri (fun i u -> up.(u) <- tv.(i)) tu;
  let in_tree u v = up.(u) = v || up.(v) = u in
  let pairs = { us = tu; vs = tv; len = n - 1 } in
  let add u v = if not (in_tree u v) then push pairs u v in
  (* G(n,p) overlay without the Θ(n²) per-pair Bernoulli loop: walk the
     lexicographic pair order (u < v) with geometric skips of mean 1/p
     (Batagelj–Brandes), so sampling costs O(m + n) — the fix that makes
     sparse families feasible at n = 10⁶.  Every pair is still included
     independently with probability p (tree pairs are filtered out by
     [in_tree], which leaves the non-tree pairs iid); only
     p = 1 keeps a dense loop, since its skip length degenerates to 1. *)
  if p >= 1.0 then
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        add u v
      done
    done
  else if p > 0.0 then begin
    let total = n * (n - 1) / 2 in
    let log1mp = log (1.0 -. p) in
    let idx = ref (-1) in
    let u = ref 0 in
    let row_start = ref 0 in
    (* [row_start] is the linear index of pair (u, u+1). *)
    let continue_ = ref true in
    while !continue_ do
      let r = Random.State.float st 1.0 in
      let skip = 1 + int_of_float (log (1.0 -. r) /. log1mp) in
      idx := !idx + skip;
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
  of_pairs_shuffled ~n st (Array.sub pairs.us 0 pairs.len) (Array.sub pairs.vs 0 pairs.len)

let lollipop ~clique ~tail =
  if clique < 3 then fail "Gen.lollipop: clique = %d < 3" clique;
  if tail < 0 then fail "Gen.lollipop: tail = %d" tail;
  let n = clique + tail in
  let pairs = ref [] in
  for u = 0 to clique - 1 do
    for v = u + 1 to clique - 1 do
      pairs := (u, v) :: !pairs
    done
  done;
  for i = 0 to tail - 1 do
    let prev = if i = 0 then clique - 1 else clique + i - 1 in
    pairs := (prev, clique + i) :: !pairs
  done;
  of_pairs ~n (List.rev !pairs)

let complete_bipartite a b =
  if a < 1 || b < 1 then fail "Gen.complete_bipartite: %d,%d" a b;
  let pairs = ref [] in
  for u = 0 to a - 1 do
    for v = a to a + b - 1 do
      pairs := (u, v) :: !pairs
    done
  done;
  of_pairs ~n:(a + b) (List.rev !pairs)

let wheel n =
  if n < 4 then fail "Gen.wheel: n = %d < 4" n;
  let rim = n - 1 in
  let pairs = ref [] in
  for i = 1 to rim do
    pairs := (0, i) :: !pairs;
    pairs := (i, if i = rim then 1 else i + 1) :: !pairs
  done;
  of_pairs ~n (List.rev !pairs)

let cube_connected_cycles ~dim =
  if dim < 3 then fail "Gen.cube_connected_cycles: dim = %d < 3" dim;
  if dim > 20 then fail "Gen.cube_connected_cycles: dim = %d too large" dim;
  let corners = 1 lsl dim in
  let id corner pos = (corner * dim) + pos in
  let edges = ref [] in
  for corner = 0 to corners - 1 do
    for pos = 0 to dim - 1 do
      let u = id corner pos in
      (* Port 0: next around the cycle; port 1: previous; port 2: across
         the hypercube dimension [pos].  Every cycle edge is exactly one
         node's "next" edge, so each is listed once. *)
      let next = id corner ((pos + 1) mod dim) in
      edges := { Graph.u; pu = 0; v = next; pv = 1 } :: !edges;
      let across = id (corner lxor (1 lsl pos)) pos in
      if u < across then edges := { Graph.u; pu = 2; v = across; pv = 2 } :: !edges
    done
  done;
  Graph.make ~n:(corners * dim) !edges

let random_regular ~n ~d st =
  if d < 3 || d >= n then fail "Gen.random_regular: d = %d, n = %d" d n;
  if n * d mod 2 <> 0 then fail "Gen.random_regular: n*d must be even";
  (* Configuration model with rejection: pair up stubs, retry on
     self-loops, parallel edges, or disconnection. *)
  let max_attempts = 1000 in
  let rec attempt k =
    if k > max_attempts then fail "Gen.random_regular: too many rejections";
    let stubs = Array.init (n * d) (fun i -> i / d) in
    shuffle st stubs;
    (* Pairs are stored last-drawn first, the order the port draws were
       pinned with. *)
    let m = n * d / 2 in
    let pu = Array.make m 0 and pv = Array.make m 0 in
    let ok = ref true in
    let seen = Hashtbl.create (n * d) in
    let i = ref 0 in
    while !ok && !i < n * d do
      let u = stubs.(!i) and v = stubs.(!i + 1) in
      if u = v || Hashtbl.mem seen (min u v, max u v) then ok := false
      else begin
        Hashtbl.add seen (min u v, max u v) ();
        pu.(m - 1 - (!i / 2)) <- u;
        pv.(m - 1 - (!i / 2)) <- v
      end;
      i := !i + 2
    done;
    if not !ok then attempt (k + 1)
    else begin
      let g = of_pairs_shuffled ~n st pu pv in
      if Graph.is_connected g then g else attempt (k + 1)
    end
  in
  attempt 0
