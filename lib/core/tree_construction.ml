module Bitbuf = Bitstring.Bitbuf
module Graph = Netgraph.Graph
module Spanning = Netgraph.Spanning

type node_output = {
  mutable parent_port : int option;
  mutable child_ports : int list;
  mutable has_output : bool;
}

type outcome = {
  result : Sim.Runner.result;
  advice_bits : int;
  tree : Netgraph.Spanning.t option;
  is_bfs : bool;
}

(* Claims ride as Hello (one bit); the construction token is Source. *)
let flood_scheme sink static =
  let out = { parent_port = None; child_ports = []; has_output = false } in
  sink static.Sim.History.id out;
  let degree = static.Sim.History.degree in
  let adopted = ref static.Sim.History.is_source in
  let on_start () =
    if static.Sim.History.is_source then begin
      out.has_output <- true;
      Sim.Scheme.flood Sim.Message.Source ~degree None
    end
    else []
  in
  let on_receive msg ~port =
    match msg with
    | Sim.Message.Source ->
      if !adopted then []
      else begin
        adopted := true;
        out.parent_port <- Some port;
        out.has_output <- true;
        (* Claim the parent, then keep flooding. *)
        (Sim.Message.Hello, port) :: Sim.Scheme.flood Sim.Message.Source ~degree (Some port)
      end
    | Sim.Message.Hello ->
      out.child_ports <- port :: out.child_ports;
      []
    | Sim.Message.Control _ -> []
  in
  { Sim.Scheme.on_start; on_receive }

let advised_scheme sink static =
  let parent_port, child_ports = Gossip.decode_advice static.Sim.History.advice in
  sink static.Sim.History.id { parent_port; child_ports; has_output = true };
  { Sim.Scheme.on_start = (fun () -> []); on_receive = (fun _ ~port:_ -> []) }

let assemble g ~source outputs =
  let n = Graph.n g in
  let parents = Array.make n (-1) in
  try
    for v = 0 to n - 1 do
      let out = Hashtbl.find outputs (Graph.label g v) in
      if not out.has_output then raise Exit;
      match out.parent_port with
      | None -> if v <> source then raise Exit
      | Some p ->
        let parent, _ = Graph.endpoint g v p in
        parents.(v) <- parent;
        (* The parent must list the reverse port as a child. *)
        let parent_out = Hashtbl.find outputs (Graph.label g parent) in
        let _, q = Graph.endpoint g v p in
        if not (List.mem q parent_out.child_ports) then raise Exit
    done;
    Some (Spanning.of_parents g ~root:source parents)
  with Exit | Invalid_argument _ | Not_found -> None

let check_bfs g ~source tree =
  match tree with
  | None -> false
  | Some t ->
    let dist, _ = Netgraph.Traverse.bfs g ~root:source in
    Spanning.depth t = dist

let collect ?max_messages g scheduler ~advice ~advice_bits ~source make_scheme =
  let outputs : (int, node_output) Hashtbl.t = Hashtbl.create (Graph.n g) in
  let sink label out = Hashtbl.replace outputs label out in
  let result = Sim.Runner.run ?max_messages ~scheduler ~advice g ~source (make_scheme sink) in
  let tree = assemble g ~source outputs in
  { result; advice_bits; tree; is_bfs = check_bfs g ~source tree }

let flood_build ?(scheduler = Sim.Scheduler.Async_fifo) g ~source =
  let advice _ = Bitbuf.create () in
  let max_messages = (4 * Graph.m g) + (2 * Graph.n g) in
  collect ~max_messages g scheduler ~advice ~advice_bits:0 ~source flood_scheme

let advised_build ?(scheduler = Sim.Scheduler.Async_fifo) g ~source =
  let oracle = Gossip.oracle () in
  let advice = oracle.Oracles.Oracle.advise g ~source in
  collect g scheduler
    ~advice:(Oracles.Advice.get advice)
    ~advice_bits:(Oracles.Advice.size_bits advice)
    ~source advised_scheme
