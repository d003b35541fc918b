(* Graphs from neighbor lists, for tests: port [p] at node [u] is the
   [p]-th entry of [u]'s list.  The library's generators fill CSR
   arrays directly; this is the plain constructor the tests write small
   graphs and reference generators with.  Reverse ports come from a
   scan of the neighbor's row, which suits short rows.  The lists must
   be symmetric; [Graph.of_csr] checks the rest. *)

open Netgraph

let of_adjacency ?labels lists =
  let n = Array.length lists in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + List.length lists.(u)
  done;
  let nbr = Array.make off.(n) (-1) in
  Array.iteri (fun u ns -> List.iteri (fun p v -> nbr.(off.(u) + p) <- v) ns) lists;
  let prt = Array.make off.(n) (-1) in
  for u = 0 to n - 1 do
    for i = off.(u) to off.(u + 1) - 1 do
      let v = nbr.(i) in
      if v < 0 || v >= n then invalid_arg (Printf.sprintf "of_adjacency: neighbor %d out of range" v);
      let j = ref off.(v) in
      while !j < off.(v + 1) && nbr.(!j) <> u do
        incr j
      done;
      if !j = off.(v + 1) then
        invalid_arg (Printf.sprintf "of_adjacency: missing symmetric entry %d -> %d" v u);
      prt.(i) <- !j - off.(v)
    done
  done;
  Graph.of_csr ?labels ~n ~off ~nbr ~prt ()
