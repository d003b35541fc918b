type send = Message.t * int

type node = {
  on_start : unit -> send list;
  on_receive : Message.t -> port:int -> send list;
}

type factory = History.static -> node

let of_pure f static =
  let history = ref (History.initial static) in
  {
    on_start = (fun () -> f !history);
    on_receive =
      (fun msg ~port ->
        history := History.receive !history msg ~port;
        f !history);
  }

let silent _static =
  { on_start = (fun () -> []); on_receive = (fun _ ~port:_ -> []) }

let check_wakeup factory static =
  let node = factory static in
  let on_start () =
    let sends = node.on_start () in
    if sends <> [] && not static.History.is_source then
      failwith
        (Printf.sprintf "wakeup violation: non-source node %d transmits spontaneously"
           static.History.id);
    sends
  in
  { node with on_start }

(* Built back to front in one loop: no port list, no options, and
   constant stack depth on a high-degree node. *)
let flood msg ~degree arrival =
  let skip = match arrival with Some p -> p | None -> -1 in
  let sends = ref [] in
  for p = degree - 1 downto 0 do
    if p <> skip then sends := (msg, p) :: !sends
  done;
  !sends

let flooding static =
  let degree = static.History.degree in
  let informed = ref false in
  let on_start () =
    if static.History.is_source then begin
      informed := true;
      flood Message.Source ~degree None
    end
    else []
  in
  let on_receive msg ~port =
    match msg with
    | Message.Source when not !informed ->
      informed := true;
      flood Message.Source ~degree (Some port)
    | Message.Source | Message.Hello | Message.Control _ -> []
  in
  { on_start; on_receive }
