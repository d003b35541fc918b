module Bitbuf = Bitstring.Bitbuf
module Codes = Bitstring.Codes
module Graph = Netgraph.Graph
module Spanning = Netgraph.Spanning
module IS = Set.Make (Int)

let encode_advice buf ~parent ~children =
  (match parent with
  | None -> Bitbuf.add_bit buf false
  | Some p ->
    Bitbuf.add_bit buf true;
    Codes.write_gamma buf p);
  Codes.write_gamma buf (List.length children);
  List.iter (Codes.write_gamma buf) children

let decode_advice buf =
  if Bitbuf.is_empty buf then (None, [])
  else begin
    let r = Bitbuf.reader buf in
    let parent = if Bitbuf.read_bit r then Some (Codes.read_gamma r) else None in
    let count = Codes.read_gamma r in
    (parent, List.init count (fun _ -> Codes.read_gamma r))
  end

let oracle ?(tree = fun g ~root -> Spanning.bfs g ~root) () =
  Oracles.Oracle.make ~name:"gossip-tree" (fun g ~source ->
      let t = tree g ~root:source in
      Oracles.Advice.make
        (Array.init (Graph.n g) (fun v ->
             let buf = Bitbuf.create () in
             let parent = Option.map snd (Spanning.parent t v) in
             encode_advice buf ~parent ~children:(Spanning.children_ports t v);
             buf)))

let encode_rumors set =
  let buf = Bitbuf.create () in
  Codes.write_gamma buf (IS.cardinal set);
  IS.iter (fun l -> Codes.write_gamma buf l) set;
  buf

let decode_rumors buf =
  let r = Bitbuf.reader buf in
  let count = Codes.read_gamma r in
  let rec loop acc k = if k = 0 then acc else loop (IS.add (Codes.read_gamma r) acc) (k - 1) in
  loop IS.empty count

type outcome = {
  result : Sim.Runner.result;
  advice_bits : int;
  learned : int list array;
  complete : bool;
}

(* Convergecast-then-broadcast over the advised tree. *)
let tree_scheme sink static =
  let parent, children = decode_advice static.Sim.History.advice in
  let rumors = ref (IS.singleton static.Sim.History.id) in
  let pending = ref (List.length children) in
  sink static.Sim.History.id rumors;
  let send_up () =
    match parent with
    | Some p -> [ (Sim.Message.Control (encode_rumors !rumors), p) ]
    | None -> []
  in
  let send_down () =
    List.map (fun p -> (Sim.Message.Control (encode_rumors !rumors), p)) children
  in
  let on_start () = if !pending = 0 then if parent = None then send_down () else send_up () else [] in
  let on_receive msg ~port =
    match msg with
    | Sim.Message.Control payload ->
      rumors := IS.union !rumors (decode_rumors payload);
      if Some port = parent then send_down ()
      else begin
        (* a child reported *)
        pending := !pending - 1;
        if !pending = 0 then if parent = None then send_down () else send_up () else []
      end
    | Sim.Message.Source | Sim.Message.Hello -> []
  in
  { Sim.Scheme.on_start; on_receive }

let flooding_scheme sink static =
  let rumors = ref (IS.singleton static.Sim.History.id) in
  sink static.Sim.History.id rumors;
  let all_ports = List.init static.Sim.History.degree (fun p -> p) in
  let broadcast_except port =
    let payload = encode_rumors !rumors in
    List.filter_map
      (fun p -> if Some p = port then None else Some (Sim.Message.Control (Bitbuf.copy payload), p))
      all_ports
  in
  let on_start () = broadcast_except None in
  let on_receive msg ~port =
    match msg with
    | Sim.Message.Control payload ->
      let incoming = decode_rumors payload in
      if IS.subset incoming !rumors then []
      else begin
        rumors := IS.union !rumors incoming;
        broadcast_except (Some port)
      end
    | Sim.Message.Source | Sim.Message.Hello -> []
  in
  { Sim.Scheme.on_start; on_receive }

let collect ?max_messages ?(sinks = []) g scheduler ~advice ~advice_bits ~source make_scheme =
  let n = Graph.n g in
  let cells : (int, IS.t ref) Hashtbl.t = Hashtbl.create n in
  let sink label rumors = Hashtbl.replace cells label rumors in
  let result =
    Sim.Runner.run ?max_messages ~scheduler ~sinks ~advice g ~source (make_scheme sink)
  in
  let learned =
    Array.init n (fun v ->
        match Hashtbl.find_opt cells (Graph.label g v) with
        | Some r -> IS.elements !r
        | None -> [])
  in
  let complete = Array.for_all (fun l -> List.length l = n) learned in
  { result; advice_bits; learned; complete }

let run ?(tree = fun g ~root -> Spanning.bfs g ~root) ?(scheduler = Sim.Scheduler.Async_fifo)
    ?(sinks = []) g ~source =
  let o = oracle ~tree () in
  let advice = o.Oracles.Oracle.advise g ~source in
  collect ~sinks g scheduler
    ~advice:(Oracles.Advice.get advice)
    ~advice_bits:(Oracles.Advice.size_bits advice)
    ~source tree_scheme

let run_flooding ?(scheduler = Sim.Scheduler.Async_fifo) ?(sinks = []) g ~source =
  let advice _ = Bitbuf.create () in
  (* Flooding gossip legitimately needs Θ(n·m) messages. *)
  let max_messages = 40 * Netgraph.Graph.n g * Netgraph.Graph.m g in
  collect ~max_messages ~sinks g scheduler ~advice ~advice_bits:0 ~source flooding_scheme
