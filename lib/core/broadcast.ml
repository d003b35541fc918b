module Bitbuf = Bitstring.Bitbuf
module Codes = Bitstring.Codes
module Graph = Netgraph.Graph
module Spanning = Netgraph.Spanning

type tree_builder = Graph.t -> root:int -> Spanning.t

type encoding = Marked | Gamma

let encoding_name = function Marked -> "marked" | Gamma -> "gamma"

(* For every tree edge {u,v}, hand w(e) = min(pu, pv) to the endpoint whose
   port number equals w(e); a pu = pv tie goes to the smaller index.  The
   edge of child [v] is read off the flat tree and the graph's CSR
   arrays: [v]'s parent port, and the arrival port stored in that slot.
   Children are visited in descending index and each weight is pushed
   onto its node's list, so every list ends up in ascending order of the
   child index, the order {!Spanning.edges} gives. *)
let weight_assignment g (tree : Spanning.t) =
  let n = Graph.n g in
  let off = Graph.csr_offsets g and prt = Graph.csr_ports g in
  let out = Array.make n [] in
  for v = n - 1 downto 0 do
    let u = tree.parent_node.(v) in
    if u >= 0 then begin
      let pv = tree.parent_port.(v) in
      let pu = prt.(off.(v) + pv) in
      let w = min pu pv in
      let x = if (if u < v then pu else pv) = w then min u v else max u v in
      out.(x) <- w :: out.(x)
    end
  done;
  out

let encode_weights encoding ws buf =
  match encoding with
  | Marked -> Codes.write_marked_list buf ws
  | Gamma -> List.iter (Codes.write_gamma buf) ws

let decode_known_ports encoding buf =
  let r = Bitbuf.reader buf in
  match encoding with
  | Marked -> Codes.read_marked_list r
  | Gamma ->
    let rec loop acc = if Bitbuf.at_end r then List.rev acc else loop (Codes.read_gamma r :: acc) in
    loop []

let decode_known_ports_result encoding buf =
  let r = Bitbuf.reader buf in
  match encoding with
  | Marked -> Codes.read_marked_list_result r
  | Gamma -> Codes.read_gamma_list_result r

let oracle ?(tree = fun g ~root -> Spanning.light g ~root) ?(encoding = Marked) () =
  let name = Printf.sprintf "broadcast-thm3.1(%s)" (encoding_name encoding) in
  Oracles.Oracle.make ~name (fun g ~source ->
      let t = tree g ~root:source in
      let weights = weight_assignment g t in
      Oracles.Advice.make
        (Array.map
           (fun ws ->
             let buf = Bitbuf.create () in
             encode_weights encoding ws buf;
             buf)
           weights))

(* Scheme B.  kx = known incident ports; sx = ports through which M has
   transited (sent or received); informed = has M.

   The state lives as two small sorted port lists, not functional sets
   and not a per-port bitmap: [pending] holds kx \ sx in ascending port
   order (the order [Set.elements] used to give, so traces are
   unchanged), [retired] holds kx ∩ sx.  kx is tiny — the advised tree
   ports plus ports the message transited — so membership is an O(|kx|)
   scan.  The previous degree-sized membership bitmap allocated Θ(deg)
   bytes per node, which on a clique is Θ(n²) bytes across the run:
   measured ~190 minor words per message at n = 2000, all of it that
   bitmap.  A flush still hands off [pending] whole instead of paying a
   diff/union/elements round trip per delivery — the set churn, not the
   runner, dominated the broadcast profile at n = 10^5.  The plain and
   the hardened scheme run this one state and its steps; the hardened
   one only adds the recovery overlay around them. *)
let rec sends_to msg = function
  | [] -> []
  | p :: rest -> (msg, p) :: sends_to msg rest

let rec insert_port (p : int) l =
  match l with
  | [] -> [ p ]
  | q :: rest -> if p < q then p :: l else if p = q then l else q :: insert_port p rest

let rec remove_port (p : int) = function
  | [] -> []
  | q :: rest -> if q = p then rest else q :: remove_port p rest

let rec mem_port (p : int) = function
  | [] -> false
  | q :: rest -> q = p || (q < p && mem_port p rest)

(* Merge two ascending lists (duplicates cannot arise: pending and
   retired are disjoint by construction). *)
let rec merge_ports (a : int list) b =
  match a, b with
  | [], l | l, [] -> l
  | p :: ra, q :: _ when p < q -> p :: merge_ports ra b
  | _, q :: rb -> q :: merge_ports a rb

(* One mutable record per node: a delivery touches a single heap block
   for the whole Scheme B state, not three refs and two closures. *)
type state = { mutable pending : int list; mutable retired : int list; mutable informed : bool }

let flush st =
  if st.informed then begin
    let fresh = st.pending in
    st.pending <- [];
    (* Flushed ports stay in kx (they are now also in sx). *)
    st.retired <- merge_ports st.retired fresh;
    sends_to Sim.Message.Source fresh
  end
  else []

(* kx and sx start as the advised ports (ascending, distinct) and ∅. *)
let initial ports ~is_source =
  { pending = List.sort_uniq Int.compare ports; retired = []; informed = is_source }

(* The port a message arrived through joins kx and sx at once: an
   advised port we have not yet used is retired unsent, a new port never
   becomes pending at all. *)
let retire st port =
  if mem_port port st.pending then begin
    st.pending <- remove_port port st.pending;
    st.retired <- insert_port port st.retired
  end
  else if not (mem_port port st.retired) then st.retired <- insert_port port st.retired

let start st ~is_source = if is_source then flush st else sends_to Sim.Message.Hello st.pending

(* Scheme B's two deliveries; control messages are not its business. *)
let receive st msg ~port =
  match msg with
  | Sim.Message.Source ->
    retire st port;
    st.informed <- true;
    flush st
  | Sim.Message.Hello ->
    if not (mem_port port st.pending || mem_port port st.retired) then
      st.pending <- insert_port port st.pending;
    flush st
  | Sim.Message.Control _ -> []

let scheme ?(encoding = Marked) () static =
  let is_source = static.Sim.History.is_source in
  (* Note an advised port beyond the degree stays in [pending]: sending
     on it aborts the run exactly as it did when kx was a set.  It can
     never collide with a queried port (arrival ports are < degree). *)
  let st = initial (decode_known_ports encoding static.Sim.History.advice) ~is_source in
  let on_start () = start st ~is_source in
  let on_receive msg ~port = receive st msg ~port in
  { Sim.Scheme.on_start; on_receive }

let hardened_scheme ?(encoding = Marked) ?(protect = Bitstring.Ecc.Raw) ?on_fallback ?on_corrected
    () =
  (* One decoder closure per factory, not one per node. *)
  let decode = decode_known_ports_result encoding in
  fun static ->
    let degree = static.Sim.History.degree in
    let is_source = static.Sim.History.is_source in
    let advised = Hardened.advised ~protect ~decode ?on_fallback ?on_corrected static in
    (* The recovery overlay is shared by both modes: an informed node that
       sees a link time out refloods, and a reflood informs like a source
       message through the same port. *)
    let reflood_from = Hardened.reflood ~degree in
    match advised with
    | Some ports ->
      (* Scheme B itself, on validated advice (the ports are in range and
         distinct), plus the overlay. *)
      let st = initial ports ~is_source in
      let on_start () = start st ~is_source in
      let on_receive msg ~port =
        match msg with
        | Sim.Message.Control _ when Sim.Message.is_timeout msg ->
          if st.informed then reflood_from (Some port) else []
        | Sim.Message.Control _ when Sim.Message.is_reflood msg ->
          let first = not st.informed in
          st.informed <- true;
          retire st port;
          (if first then flush st else []) @ reflood_from (Some port)
        | _ -> receive st msg ~port
      in
      { Sim.Scheme.on_start; on_receive }
    | None ->
      (* Degraded mode.  Flooding when informed restores correctness at the
         advice-free Θ(m) cost; the Hello on {e every} port at start tells
         advised neighbours — whose legitimately-empty advice the adversary
         could not touch — how to reach us, exactly as Scheme B's Hellos on
         known ports do.  Without it an advised node whose tree edges are
         all known from the degraded side would never learn them. *)
      let informed = ref is_source in
      let flood arrival = Hardened.flood Sim.Message.Source ~degree arrival in
      let on_start () =
        if is_source then flood None else Hardened.flood Sim.Message.Hello ~degree None
      in
      let on_receive msg ~port =
        match msg with
        | Sim.Message.Source when not !informed ->
          informed := true;
          flood (Some port)
        | Sim.Message.Control _ when Sim.Message.is_timeout msg ->
          if !informed then reflood_from (Some port) else []
        | Sim.Message.Control _ when Sim.Message.is_reflood msg ->
          let first = not !informed in
          informed := true;
          (if first then flood (Some port) else []) @ reflood_from (Some port)
        | Sim.Message.Source | Sim.Message.Hello | Sim.Message.Control _ -> []
      in
      { Sim.Scheme.on_start; on_receive }

type outcome = {
  result : Sim.Runner.result;
  advice_bits : int;
  tree_contribution : int;
}

let run ?(tree = fun g ~root -> Spanning.light g ~root) ?(encoding = Marked)
    ?(scheduler = Sim.Scheduler.Async_fifo) ?(sinks = []) ?(shards = 1) g ~source =
  let t = tree g ~root:source in
  let tree_contribution = Spanning.contribution g (Spanning.edges t) in
  let o = oracle ~tree:(fun _ ~root:_ -> t) ~encoding () in
  let advice = o.Oracles.Oracle.advise g ~source in
  let advice_bits = Oracles.Advice.size_bits advice in
  let result =
    Sim.Shard.run ~scheduler ~sinks ~shards
      ~advice:(Oracles.Advice.get advice)
      g ~source (scheme ~encoding ())
  in
  { result; advice_bits; tree_contribution }
