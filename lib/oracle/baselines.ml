module Bitbuf = Bitstring.Bitbuf
module Binary = Bitstring.Binary
module Codes = Bitstring.Codes
module Graph = Netgraph.Graph

let full_map =
  Oracle.make ~name:"full-map" (fun g ~source:_ ->
      let encoded = Netgraph.Codec.encode g in
      Advice.make (Array.init (Graph.n g) (fun _ -> Bitbuf.copy encoded)))

let source_map =
  Oracle.make ~name:"source-map" (fun g ~source ->
      Advice.make
        (Array.init (Graph.n g) (fun v ->
             if v = source then Netgraph.Codec.encode g else Bitbuf.create ())))

let neighbor_labels =
  Oracle.make ~name:"neighbor-labels" (fun g ~source:_ ->
      Advice.make
        (Array.init (Graph.n g) (fun v ->
             let buf = Bitbuf.create () in
             List.iter
               (fun (_, nbr, _) -> Codes.write_gamma buf (Graph.label g nbr))
               (Graph.neighbors g v);
             buf)))

let bfs_children_fixed =
  Oracle.make ~name:"bfs-children-fixed" (fun g ~source ->
      let tree = Netgraph.Spanning.bfs g ~root:source in
      let width = max 1 (Binary.ceil_log2 (Graph.n g)) in
      Advice.make
        (Array.init (Graph.n g) (fun v ->
             let buf = Bitbuf.create () in
             let ports = Netgraph.Spanning.children_ports tree v in
             Codes.write_gamma buf (List.length ports);
             if ports <> [] then begin
               Codes.write_gamma buf width;
               List.iter (fun p -> Bitbuf.add_int buf ~width p) ports
             end;
             buf)))

let parent_port =
  Oracle.make ~name:"parent-port" (fun g ~source ->
      let tree = Netgraph.Spanning.bfs g ~root:source in
      Advice.make
        (Array.init (Graph.n g) (fun v ->
             let buf = Bitbuf.create () in
             (match Netgraph.Spanning.parent tree v with
             | None -> ()
             | Some (_, port_to_parent) -> Codes.write_gamma buf port_to_parent);
             buf)))

let all = [ full_map; source_map; neighbor_labels; bfs_children_fixed; parent_port ]

let decode_map buf = Netgraph.Codec.decode (Bitbuf.reader buf)

let decode_children_fixed buf =
  if Bitbuf.is_empty buf then []
  else begin
    let r = Bitbuf.reader buf in
    let count = Codes.read_gamma r in
    if count = 0 then []
    else begin
      let width = Codes.read_gamma r in
      List.init count (fun _ -> Bitbuf.read_int r ~width)
    end
  end
