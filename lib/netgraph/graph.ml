type edge = { u : int; pu : int; v : int; pv : int }

(* Label lookup: the default labeling 1..n needs no table at all —
   [node_of_label] is arithmetic — and skipping the Hashtbl keeps
   million-node graph construction allocation-light.  Arbitrary labelings
   pay for the table they need. *)
type label_index = Identity | Table of (int, int) Hashtbl.t

(* Adjacency in CSR (compressed sparse row) form: three flat int arrays
   instead of an array of (neighbor, port) tuple rows.  Port [p] at node
   [u] lives at index [off.(u) + p]; [nbr] holds the neighbor and [prt]
   the arrival port there.  The tuple-row layout cost two pointer chases
   plus a boxed-tuple read per hop — at n = 10⁶ with a shuffled node
   order that is a cache miss per message and was the measured wakeup
   throughput cliff (3.1M → 0.47M msgs/s).  Flat int arrays make a hop
   two reads from (usually) one cache line, and let the runner's emit
   loop read both ends of a send straight from the arrays
   ({!csr_offsets}, {!csr_neighbors}, {!csr_ports}) without a tuple. *)
type t = {
  size : int;
  node_labels : int array;
  off : int array;  (* length size + 1; off.(size) = 2m *)
  nbr : int array;  (* nbr.(off.(u) + p) = v *)
  prt : int array;  (* prt.(off.(u) + p) = q, the port of the edge at v *)
  label_index : label_index;
}

let fail fmt = Printf.ksprintf invalid_arg fmt

let is_default_labels a =
  let n = Array.length a in
  let rec go i = i >= n || (a.(i) = i + 1 && go (i + 1)) in
  go 0

let build_labels ~ctx ~size labels =
  let node_labels =
    match labels with
    | None -> Array.init size (fun i -> i + 1)
    | Some a ->
      if Array.length a <> size then fail "%s: %d labels for %d nodes" ctx (Array.length a) size;
      Array.copy a
  in
  let label_index =
    if labels = None || is_default_labels node_labels then Identity
    else begin
      let tbl = Hashtbl.create size in
      Array.iteri
        (fun i l ->
          if Hashtbl.mem tbl l then fail "%s: duplicate label %d" ctx l;
          Hashtbl.add tbl l i)
        node_labels;
      Table tbl
    end
  in
  (node_labels, label_index)

(* Shared structural check over finished CSR arrays: mirror symmetry,
   no self-loops, no parallel edges (one shared mark array with a
   per-node epoch — a fresh Hashtbl per node would dominate million-node
   builds). *)
let check_csr ~ctx ~size ~off ~nbr ~prt =
  let mark = Array.make size (-1) in
  for u = 0 to size - 1 do
    let base = off.(u) in
    let deg = off.(u + 1) - base in
    for p = 0 to deg - 1 do
      let v = nbr.(base + p) in
      let q = prt.(base + p) in
      if v < 0 || v >= size then fail "%s: node %d port %d: neighbor %d out of range" ctx u p v;
      if v = u then fail "%s: self-loop at node %d" ctx u;
      if q < 0 || q >= off.(v + 1) - off.(v) then
        fail "%s: node %d port %d: reverse port %d out of range" ctx u p q;
      if nbr.(off.(v) + q) <> u || prt.(off.(v) + q) <> p then
        fail "%s: asymmetric port map between %d and %d" ctx u v;
      if mark.(v) = u then fail "%s: parallel edge between %d and %d" ctx u v;
      mark.(v) <- u
    done
  done

let of_csr ?labels ~n:size ~off ~nbr ~prt () =
  if size < 1 then fail "Graph.of_csr: n = %d < 1" size;
  if Array.length off <> size + 1 then
    fail "Graph.of_csr: offset array has length %d, want %d" (Array.length off) (size + 1);
  if off.(0) <> 0 then fail "Graph.of_csr: off.(0) = %d, want 0" off.(0);
  for u = 0 to size - 1 do
    if off.(u + 1) < off.(u) then fail "Graph.of_csr: offsets not monotone at node %d" u
  done;
  let total = off.(size) in
  if Array.length nbr <> total || Array.length prt <> total then
    fail "Graph.of_csr: slot arrays have lengths %d/%d, want %d" (Array.length nbr)
      (Array.length prt) total;
  let node_labels, label_index = build_labels ~ctx:"Graph.of_csr" ~size labels in
  check_csr ~ctx:"Graph.of_csr" ~size ~off ~nbr ~prt;
  { size; node_labels; off; nbr; prt; label_index }

let make ?labels ~n:size edge_list =
  if size < 1 then fail "Graph.make: n = %d < 1" size;
  let node_labels, label_index = build_labels ~ctx:"Graph.make" ~size labels in
  let deg = Array.make size 0 in
  List.iter
    (fun e ->
      if e.u < 0 || e.u >= size then fail "Graph.make: node out of range in edge";
      if e.v < 0 || e.v >= size then fail "Graph.make: node out of range in edge";
      if e.u = e.v then fail "Graph.make: self-loop at node %d" e.u;
      deg.(e.u) <- deg.(e.u) + 1;
      deg.(e.v) <- deg.(e.v) + 1)
    edge_list;
  let off = Array.make (size + 1) 0 in
  for u = 0 to size - 1 do
    off.(u + 1) <- off.(u) + deg.(u)
  done;
  let total = off.(size) in
  let nbr = Array.make total (-1) in
  let prt = Array.make total (-1) in
  let place u p v q =
    if p < 0 || p >= deg.(u) then fail "Graph.make: port %d out of range 0..%d at node %d" p (deg.(u) - 1) u;
    if nbr.(off.(u) + p) <> -1 then fail "Graph.make: duplicate port %d at node %d" p u;
    nbr.(off.(u) + p) <- v;
    prt.(off.(u) + p) <- q
  in
  List.iter
    (fun e ->
      place e.u e.pu e.v e.pv;
      place e.v e.pv e.u e.pu)
    edge_list;
  (* Every port slot must be filled: no gaps in 0..deg-1. *)
  for u = 0 to size - 1 do
    for p = 0 to deg.(u) - 1 do
      if nbr.(off.(u) + p) = -1 then fail "Graph.make: port %d at node %d unassigned" p u
    done
  done;
  (* Symmetry holds by construction (both directions placed together);
     the shared check also catches parallel edges. *)
  check_csr ~ctx:"Graph.make" ~size ~off ~nbr ~prt;
  { size; node_labels; off; nbr; prt; label_index }

let of_port_map ?labels adj =
  let size = Array.length adj in
  if size < 1 then fail "Graph.of_port_map: n = %d < 1" size;
  let node_labels, label_index = build_labels ~ctx:"Graph.of_port_map" ~size labels in
  let off = Array.make (size + 1) 0 in
  for u = 0 to size - 1 do
    off.(u + 1) <- off.(u) + Array.length adj.(u)
  done;
  let total = off.(size) in
  let nbr = Array.make total (-1) in
  let prt = Array.make total (-1) in
  Array.iteri
    (fun u row ->
      let base = off.(u) in
      Array.iteri
        (fun p (v, q) ->
          nbr.(base + p) <- v;
          prt.(base + p) <- q)
        row)
    adj;
  check_csr ~ctx:"Graph.of_port_map" ~size ~off ~nbr ~prt;
  { size; node_labels; off; nbr; prt; label_index }

let n t = t.size

let m t = Array.length t.nbr / 2

let degree t u = t.off.(u + 1) - t.off.(u)

let label t u = t.node_labels.(u)

let labels t = Array.copy t.node_labels

let node_of_label t l =
  match t.label_index with
  | Identity -> if l >= 1 && l <= t.size then l - 1 else raise Not_found
  | Table tbl -> (
    match Hashtbl.find_opt tbl l with Some i -> i | None -> raise Not_found)

let check_port t u p =
  if u < 0 || u >= t.size then fail "Graph.endpoint: node %d out of range" u;
  if p < 0 || p >= t.off.(u + 1) - t.off.(u) then
    fail "Graph.endpoint: port %d out of range at node %d" p u

let endpoint t u p =
  check_port t u p;
  let i = t.off.(u) + p in
  (t.nbr.(i), t.prt.(i))

let csr_offsets t = t.off

let csr_neighbors t = t.nbr

let csr_ports t = t.prt

let neighbors t u =
  let base = t.off.(u) in
  List.init (degree t u) (fun p -> (p, t.nbr.(base + p), t.prt.(base + p)))

let port_to t u v =
  let base = t.off.(u) in
  let deg = degree t u in
  let rec loop p = if p >= deg then None else if t.nbr.(base + p) = v then Some p else loop (p + 1) in
  loop 0

let has_edge t u v = port_to t u v <> None

let fold_edges f t acc =
  let acc = ref acc in
  for u = 0 to t.size - 1 do
    let base = t.off.(u) in
    for pu = 0 to t.off.(u + 1) - base - 1 do
      let v = t.nbr.(base + pu) in
      if u < v then acc := f { u; pu; v; pv = t.prt.(base + pu) } !acc
    done
  done;
  !acc

let edges t = List.rev (fold_edges (fun e acc -> e :: acc) t [])

let edge_weight _t e = min e.pu e.pv

let is_connected t =
  (* Explicit stack: recursion depth would be Θ(n) on path-like graphs. *)
  let seen = Array.make t.size false in
  let stack = ref [ 0 ] in
  seen.(0) <- true;
  let count = ref 0 in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | u :: rest ->
      stack := rest;
      incr count;
      for i = t.off.(u) to t.off.(u + 1) - 1 do
        let v = t.nbr.(i) in
        if not seen.(v) then begin
          seen.(v) <- true;
          stack := v :: !stack
        end
      done
  done;
  !count = t.size

let validate t =
  try
    if Array.length t.node_labels <> t.size then failwith "label array size mismatch";
    if Array.length t.off <> t.size + 1 || t.off.(0) <> 0 then failwith "offset array malformed";
    for u = 0 to t.size - 1 do
      if t.off.(u + 1) < t.off.(u) then failwith (Printf.sprintf "offsets not monotone at %d" u)
    done;
    if Array.length t.nbr <> t.off.(t.size) || Array.length t.prt <> t.off.(t.size) then
      failwith "slot array size mismatch";
    let seen_labels = Hashtbl.create t.size in
    Array.iter
      (fun l ->
        if Hashtbl.mem seen_labels l then failwith (Printf.sprintf "duplicate label %d" l);
        Hashtbl.add seen_labels l ())
      t.node_labels;
    (try check_csr ~ctx:"validate" ~size:t.size ~off:t.off ~nbr:t.nbr ~prt:t.prt
     with Invalid_argument msg -> failwith msg);
    Ok ()
  with Failure msg -> Error msg

let equal a b =
  a.size = b.size && a.node_labels = b.node_labels && a.off = b.off && a.nbr = b.nbr
  && a.prt = b.prt

let to_edge_list_string t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "n=%d m=%d\n" t.size (m t));
  List.iter
    (fun e -> Buffer.add_string b (Printf.sprintf "%d[%d]--%d[%d]\n" e.u e.pu e.v e.pv))
    (edges t);
  Buffer.contents b

let pp fmt t =
  Format.fprintf fmt "@[<v>graph n=%d m=%d" t.size (m t);
  for u = 0 to t.size - 1 do
    Format.fprintf fmt "@,%d(lbl %d):" u t.node_labels.(u);
    let base = t.off.(u) in
    for p = 0 to t.off.(u + 1) - base - 1 do
      Format.fprintf fmt " %d->%d[%d]" p t.nbr.(base + p) t.prt.(base + p)
    done
  done;
  Format.fprintf fmt "@]"
