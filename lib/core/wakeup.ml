module Bitbuf = Bitstring.Bitbuf
module Binary = Bitstring.Binary
module Codes = Bitstring.Codes
module Graph = Netgraph.Graph
module Spanning = Netgraph.Spanning

type encoding = Paper | Paper_minimal | Gamma

let encoding_name = function
  | Paper -> "paper"
  | Paper_minimal -> "paper-minimal"
  | Gamma -> "gamma"

type tree_builder = Graph.t -> root:int -> Spanning.t

let encode_ports encoding ~n ports buf =
  match ports, encoding with
  | [], _ -> ()
  | _, Paper -> Codes.write_port_list buf ~width:(max 1 (Binary.ceil_log2 n)) ports
  | _, Paper_minimal ->
    let maxp = List.fold_left max 0 ports in
    Codes.write_port_list buf ~width:(Binary.bits maxp) ports
  | _, Gamma -> List.iter (Codes.write_gamma buf) ports

let decode_ports encoding buf =
  let r = Bitbuf.reader buf in
  match encoding with
  | Paper | Paper_minimal -> Codes.read_port_list r
  | Gamma ->
    let rec loop acc = if Bitbuf.at_end r then List.rev acc else loop (Codes.read_gamma r :: acc) in
    loop []

let oracle ?(tree = fun g ~root -> Spanning.bfs g ~root) ?(encoding = Paper) () =
  let name = Printf.sprintf "wakeup-thm2.1(%s)" (encoding_name encoding) in
  Oracles.Oracle.make ~name (fun g ~source ->
      let t = tree g ~root:source in
      let n = Graph.n g in
      Oracles.Advice.make
        (Array.init n (fun v ->
             let buf = Bitbuf.create () in
             encode_ports encoding ~n (Spanning.children_ports t v) buf;
             buf)))

(* [rev_map (fun p -> ...) ports] without the closure; advised order is
   not significant (the runner delivers each send independently), but we
   keep stream order anyway for trace stability. *)
let rec sends_of_ports = function
  | [] -> []
  | p :: rest -> (Sim.Message.Source, p) :: sends_of_ports rest

let nothing () = []

let scheme ?(encoding = Paper) () static =
  (* Capture the one field the node needs, not the whole [History]
     record: a million instantiations otherwise keep a million histories
     live for the length of the run, and the minor GC promotes them all.
     Same spirit for the closures themselves — the wake logic is inlined
     into [on_receive] rather than shared via a [wake] closure, and the
     non-source [on_start] is one closure for the whole run, so a
     non-source node's live footprint is one record, one closure and one
     ref.  Only the source (there is one) pays for an on-start
     closure. *)
  let advice = static.Sim.History.advice in
  let woken = ref false in
  let on_receive msg ~port:_ =
    match msg with
    | Sim.Message.Source when not !woken ->
      woken := true;
      sends_of_ports (decode_ports encoding advice)
    | Sim.Message.Source | Sim.Message.Hello | Sim.Message.Control _ -> []
  in
  let on_start =
    if static.Sim.History.is_source then (fun () ->
      woken := true;
      sends_of_ports (decode_ports encoding advice))
    else nothing
  in
  { Sim.Scheme.on_start; on_receive }

(* The hardened reader runs when the node is built, which must know
   then whether to run the plain scheme or flood: one fold over the
   ports into the port rule's checked set, no list.  The plain scheme
   decodes them at wake. *)
let checked_read encoding plain (static : Sim.History.static) =
  let r = Bitbuf.reader static.advice and c = Hardened.ports ~degree:static.degree in
  let c =
    match encoding with
    | Paper | Paper_minimal -> Codes.fold_port_list r Hardened.admit c
    | Gamma -> Codes.fold_to_end Codes.read_gamma r Hardened.admit c
  in
  match Hardened.check c with Ok () -> Ok (plain static) | Error msg -> Error msg

let hardened_scheme ?(encoding = Paper) ?(protect = Bitstring.Ecc.Raw) ?on_fallback ?on_corrected
    () =
  let name =
    match encoding with Paper | Paper_minimal -> "read_port_list" | Gamma -> "read_gamma_list"
  in
  let read = checked_read encoding (scheme ~encoding ()) in
  Hardened.scheme ~protect ~hello:false ?on_fallback ?on_corrected (Codes.guard name read)

type outcome = { result : Sim.Runner.result; advice_bits : int; tree_ok : bool }

let run ?(tree = fun g ~root -> Spanning.bfs g ~root) ?(encoding = Paper)
    ?(scheduler = Sim.Scheduler.Async_fifo) ?(sinks = []) ?(shards = 1) g ~source =
  let t = tree g ~root:source in
  let tree_ok = Spanning.check g t = Ok () in
  let o = oracle ~tree:(fun _ ~root:_ -> t) ~encoding () in
  let advice = o.Oracles.Oracle.advise g ~source in
  let advice_bits = Oracles.Advice.size_bits advice in
  let factory = Sim.Scheme.check_wakeup (scheme ~encoding ()) in
  let result =
    Sim.Shard.run ~scheduler ~sinks ~shards ~advice:(Oracles.Advice.get advice) g ~source factory
  in
  { result; advice_bits; tree_ok }
