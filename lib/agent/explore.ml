module Bitbuf = Bitstring.Bitbuf
module Codes = Bitstring.Codes

(* Label-aware DFS.  The agent is one entity with global memory, so it can
   remember, per label: the next port to try and the entry port; and what
   its own last move was (probe, bounce-return, or backtrack), which is
   what lets it tell a bounced probe from a child's return. *)
let dfs =
  let start ~advice:_ () =
    let pointers : (int, int ref) Hashtbl.t = Hashtbl.create 64 in
    let entries : (int, int option) Hashtbl.t = Hashtbl.create 64 in
    (* What the move that produced the current arrival was. *)
    let last = ref `Probe in
    let rec try_next (view : Walker.view) =
      let pointer = Hashtbl.find pointers view.Walker.label in
      let entry = Hashtbl.find entries view.Walker.label in
      if !pointer >= view.Walker.degree then (
        match entry with
        | None -> Walker.Halt
        | Some p ->
          last := `Backtrack;
          Walker.Move p)
      else begin
        let p = !pointer in
        incr pointer;
        if Some p = entry then try_next view
        else begin
          last := `Probe;
          Walker.Move p
        end
      end
    in
    fun view ->
      match !last with
      | `Backtrack | `Bounce_return -> try_next view
      | `Probe ->
        if Hashtbl.mem pointers view.Walker.label then begin
          (* Probed an already-visited node: bounce straight back. *)
          match view.Walker.in_port with
          | Some p ->
            last := `Bounce_return;
            Walker.Move p
          | None -> Walker.Halt
        end
        else begin
          Hashtbl.replace pointers view.Walker.label (ref 0);
          Hashtbl.replace entries view.Walker.label view.Walker.in_port;
          try_next view
        end
  in
  { Walker.program_name = "dfs"; start }

let rotor_router =
  let start ~advice:_ () =
    let rotors : (int, int ref) Hashtbl.t = Hashtbl.create 64 in
    fun (view : Walker.view) ->
      let rotor =
        match Hashtbl.find_opt rotors view.Walker.label with
        | Some r -> r
        | None ->
          let r = ref 0 in
          Hashtbl.replace rotors view.Walker.label r;
          r
      in
      let p = !rotor in
      rotor := (!rotor + 1) mod view.Walker.degree;
      Walker.Move p
  in
  { Walker.program_name = "rotor-router"; start }

let random_walk ~seed =
  let start ~advice:_ () =
    let st = Random.State.make [| seed |] in
    fun (view : Walker.view) -> Walker.Move (Random.State.int st view.Walker.degree)
  in
  { Walker.program_name = Printf.sprintf "random-walk(%d)" seed; start }

let route_ports g ~start =
  let tree = Netgraph.Spanning.bfs g ~root:start in
  (* DFS tour of the tree: down through each child port, up through the
     child's parent port. *)
  let rec tour v =
    List.concat_map
      (fun (child, port_down) ->
        let port_up = tree.Netgraph.Spanning.parent_port.(child) in
        (port_down :: tour child) @ [ port_up ])
      (Netgraph.Spanning.children tree v)
  in
  tour start

let route_advice g ~start =
  let buf = Bitbuf.create () in
  List.iter (Codes.write_gamma buf) (route_ports g ~start);
  buf

let route_moves g ~start = List.length (route_ports g ~start)

let guided =
  let start ~advice () =
    let r = Bitbuf.reader advice in
    fun (_ : Walker.view) ->
      if Bitbuf.at_end r then Walker.Halt else Walker.Move (Codes.read_gamma r)
  in
  { Walker.program_name = "guided"; start }
