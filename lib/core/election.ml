module Bitbuf = Bitstring.Bitbuf
module Codes = Bitstring.Codes
module Graph = Netgraph.Graph

type role = Leader | Follower | Undecided

let role_name = function Leader -> "leader" | Follower -> "follower" | Undecided -> "undecided"

type outcome = {
  result : Sim.Runner.result;
  advice_bits : int;
  roles : role array;
  leader : int option;
  ok : bool;
}

let encode_label l =
  let buf = Bitbuf.create () in
  Codes.write_gamma buf l;
  buf

let decode_label buf = Codes.read_gamma (Bitbuf.reader buf)

(* Maximum-label flooding: every node floods its label; bigger labels
   overwrite and propagate; when the network quiesces, exactly the
   maximum-label node still believes in itself. *)
let max_finding_scheme sink static =
  let self = static.Sim.History.id in
  let best = ref self in
  sink self (fun () -> if !best = self then Leader else Follower);
  let degree = static.Sim.History.degree in
  let flood_except port l = Sim.Scheme.flood (Sim.Message.Control (encode_label l)) ~degree port in
  let on_start () = flood_except None self in
  let on_receive msg ~port =
    match msg with
    | Sim.Message.Control payload ->
      let l = decode_label payload in
      if l > !best then begin
        best := l;
        flood_except (Some port) l
      end
      else []
    | Sim.Message.Source | Sim.Message.Hello -> []
  in
  { Sim.Scheme.on_start; on_receive }

let marked_leader_oracle =
  Oracles.Oracle.make ~name:"marked-leader(1 bit)" (fun g ~source:_ ->
      let best = ref 0 in
      for v = 1 to Graph.n g - 1 do
        if Graph.label g v > Graph.label g !best then best := v
      done;
      Oracles.Advice.make
        (Array.init (Graph.n g) (fun v ->
             let buf = Bitbuf.create () in
             if v = !best then Bitbuf.add_bit buf true;
             buf)))

(* The marked node announces; everyone else forwards the first
   announcement. *)
let marked_scheme sink static =
  let self = static.Sim.History.id in
  let marked = not (Bitbuf.is_empty static.Sim.History.advice) in
  let role = ref (if marked then Leader else Undecided) in
  sink self (fun () -> !role);
  let degree = static.Sim.History.degree in
  let announce_except port l =
    Sim.Scheme.flood (Sim.Message.Control (encode_label l)) ~degree port
  in
  let on_start () = if marked then announce_except None self else [] in
  let on_receive msg ~port =
    match msg with
    | Sim.Message.Control payload ->
      if !role = Undecided then begin
        role := Follower;
        announce_except (Some port) (decode_label payload)
      end
      else []
    | Sim.Message.Source | Sim.Message.Hello -> []
  in
  { Sim.Scheme.on_start; on_receive }

let collect ?max_messages ?(sinks = []) g scheduler ~advice ~advice_bits make_scheme =
  let n = Graph.n g in
  let cells : (int * (unit -> role)) list ref = ref [] in
  let sink label get = cells := (label, get) :: !cells in
  let result =
    Sim.Runner.run ?max_messages ~scheduler ~sinks ~advice g ~source:0 (make_scheme sink)
  in
  let roles =
    Array.init n (fun v ->
        match List.assoc_opt (Graph.label g v) !cells with
        | Some get -> get ()
        | None -> Undecided)
  in
  let leaders = ref [] in
  Array.iteri (fun v r -> if r = Leader then leaders := v :: !leaders) roles;
  let leader = match !leaders with [ v ] -> Some v | [] | _ :: _ :: _ -> None in
  let max_label_node =
    let best = ref 0 in
    for v = 1 to n - 1 do
      if Graph.label g v > Graph.label g !best then best := v
    done;
    !best
  in
  let ok = leader = Some max_label_node in
  (* Decisions are protocol-level facts the runner cannot see; stamp them
     with the final sequence number and round of the run they conclude. *)
  if sinks <> [] then
    Array.iteri
      (fun v r ->
        let ev =
          {
            Obs.Event.seq = result.Sim.Runner.stats.Obs.Counting.sent;
            round = result.Sim.Runner.stats.Obs.Counting.rounds;
            kind = Obs.Event.Decide (v, role_name r);
          }
        in
        List.iter (fun s -> Obs.Sink.emit s ev) sinks)
      roles;
  { result; advice_bits; roles; leader; ok }

let max_finding ?(scheduler = Sim.Scheduler.Async_fifo) ?(sinks = []) g =
  let advice _ = Bitbuf.create () in
  (* Max-label flooding can legitimately need Theta(n*m) messages. *)
  let max_messages = 20 * Graph.n g * Graph.m g in
  collect ~max_messages ~sinks g scheduler ~advice ~advice_bits:0 max_finding_scheme

let with_marked_leader ?(scheduler = Sim.Scheduler.Async_fifo) ?(sinks = []) g =
  let advice = marked_leader_oracle.Oracles.Oracle.advise g ~source:0 in
  collect ~sinks g scheduler
    ~advice:(Oracles.Advice.get advice)
    ~advice_bits:(Oracles.Advice.size_bits advice)
    marked_scheme

let anonymous_attempt ~n =
  let g = Netgraph.Gen.cycle n in
  let roles = ref [] in
  let sink _label get = roles := get :: !roles in
  (* Hide identities: every node sees id 0. *)
  let anonymised static = max_finding_scheme sink { static with Sim.History.id = 0 } in
  let advice _ = Bitbuf.create () in
  ignore (Sim.Runner.run ~scheduler:Sim.Scheduler.Synchronous ~advice g ~source:0 anonymised);
  Array.of_list (List.map (fun get -> get ()) !roles)
