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

(* The one decoder: fold [f] over the advised ports in code order.  The
   port list, the plain scheme's state and the hardened scheme's checked
   state are all built through it. *)
let fold_known_ports encoding buf f acc =
  let read = match encoding with Marked -> Codes.read_marked | Gamma -> Codes.read_gamma in
  Codes.fold_to_end read (Bitbuf.reader buf) f acc

let decode_known_ports encoding buf =
  List.rev (fold_known_ports encoding buf (fun ps p -> p :: ps) [])

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

   The state is one record per node holding kx \ sx ([pending]) and
   kx ∩ sx ([retired]).  Each set keeps ports 0..61 as bits of an [int]
   word and any other port in a sorted overflow list, so on a node of
   degree ≤ 62 a delivery reads and writes only ints in its record and
   allocates nothing but its send list: no fresh cells stored into a
   promoted record, no remembered-set entries for the minor GC.  kx is
   tiny on sparse graphs (the advised tree ports plus the arrival ports),
   so the overflow list, scanned in O(|kx|), only fills on high-degree
   nodes; a degree-sized bitmap would cost Θ(n²) bytes on a clique.
   Sends go out in ascending port order: the word's bits low to high,
   then the overflow list (decoded ports are never negative, so every
   overflow port is above 61).  A flush hands off [pending] whole and
   merges it into [retired], so [pending] is empty whenever the node is
   informed: a second source message only retires its port.  The
   hardened scheme relies on this when it hands an informed node a
   reflood marker as a source message ({!Hardened.scheme}). *)
let word_ports = 62

let in_word (p : int) = 0 <= p && p < word_ports

let rec sends_to msg = function
  | [] -> []
  | p :: rest -> (msg, p) :: sends_to msg rest

(* One walk of the word from bit 0 up, consing on the way back so the
   list comes out ascending with [tail] after the word's ports. *)
let rec word_sends msg w p tail =
  if w = 0 then tail
  else if w land 1 = 0 then word_sends msg (w lsr 1) (p + 1) tail
  else (msg, p) :: word_sends msg (w lsr 1) (p + 1) tail

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

(* [*_word] holds the set's ports 0..61, bit p for port p; [*_over] the
   rest, ascending. *)
type state = {
  mutable pending_word : int;
  mutable retired_word : int;
  mutable informed : bool;
  mutable pending_over : int list;
  mutable retired_over : int list;
}

let sends msg st = word_sends msg st.pending_word 0 (sends_to msg st.pending_over)

let flush st =
  if st.informed then begin
    let fresh = sends Sim.Message.Source st in
    (* Flushed ports stay in kx (they are now also in sx). *)
    st.retired_word <- st.retired_word lor st.pending_word;
    st.pending_word <- 0;
    (match st.pending_over with
     | [] -> ()
     | over ->
       st.retired_over <- merge_ports st.retired_over over;
       st.pending_over <- []);
    fresh
  end
  else []

(* kx and sx start as the advised ports and ∅.  [advise] collects
   overflow ports unsorted and [seal] sorts them once, so a node advised
   many high ports does not pay a quadratic insertion. *)
let empty ~is_source =
  {
    pending_word = 0;
    retired_word = 0;
    informed = is_source;
    pending_over = [];
    retired_over = [];
  }

let advise st p =
  if in_word p then st.pending_word <- st.pending_word lor (1 lsl p)
  else st.pending_over <- p :: st.pending_over

let seal st =
  (match st.pending_over with
   | [] | [ _ ] -> ()
   | over -> st.pending_over <- List.sort_uniq Int.compare over);
  st

(* The plain scheme reads its advice straight into the state, without
   the intermediate port list. *)
let decoded encoding buf ~is_source =
  seal
    (fold_known_ports encoding buf
       (fun st p ->
         advise st p;
         st)
       (empty ~is_source))

(* The port a message arrived through joins kx and sx at once: an
   advised port we have not yet used is retired unsent, a new port never
   becomes pending at all. *)
let retire st port =
  if in_word port then begin
    let bit = 1 lsl port in
    st.pending_word <- st.pending_word land lnot bit;
    st.retired_word <- st.retired_word lor bit
  end
  else if mem_port port st.pending_over then begin
    st.pending_over <- remove_port port st.pending_over;
    st.retired_over <- insert_port port st.retired_over
  end
  else if not (mem_port port st.retired_over) then
    st.retired_over <- insert_port port st.retired_over

let start st ~is_source = if is_source then flush st else sends Sim.Message.Hello st

(* Scheme B's two deliveries; control messages are not its business. *)
let receive st msg ~port =
  match msg with
  | Sim.Message.Source ->
    retire st port;
    st.informed <- true;
    flush st
  | Sim.Message.Hello ->
    (if in_word port then
       st.pending_word <- st.pending_word lor ((1 lsl port) land lnot st.retired_word)
     else if not (mem_port port st.pending_over || mem_port port st.retired_over) then
       st.pending_over <- insert_port port st.pending_over);
    flush st
  | Sim.Message.Control _ -> []

let node st ~is_source =
  let on_start () = start st ~is_source in
  let on_receive msg ~port = receive st msg ~port in
  { Sim.Scheme.on_start; on_receive }

let scheme ?(encoding = Marked) () static =
  let is_source = static.Sim.History.is_source in
  (* Note an advised port beyond the degree stays in [pending]: sending
     on it aborts the run at that send, in ascending port order.  It can
     never collide with a queried port (arrival ports are < degree). *)
  node (decoded encoding static.Sim.History.advice ~is_source) ~is_source

(* The hardened reader: the same fold, into the port rule's checked
   set, whose word and sorted overflow list become [pending]. *)
let checked_read encoding (static : Sim.History.static) =
  let c =
    fold_known_ports encoding static.advice Hardened.admit (Hardened.ports ~degree:static.degree)
  in
  match Hardened.check c with
  | Ok () ->
    let st = empty ~is_source:static.is_source in
    st.pending_word <- c.word;
    st.pending_over <- c.over;
    Ok (node st ~is_source:static.is_source)
  | Error msg -> Error msg

let hardened_scheme ?(encoding = Marked) ?(protect = Bitstring.Ecc.Raw) ?on_fallback ?on_corrected
    () =
  let name = match encoding with Marked -> "read_marked_list" | Gamma -> "read_gamma_list" in
  Hardened.scheme ~protect ~hello:true ?on_fallback ?on_corrected
    (Codes.guard name (checked_read encoding))

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
