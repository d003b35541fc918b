(* The port rule, stated once.  A repeat in [word] is a bit already set;
   one in [over] shows as a shorter list after [List.sort_uniq], which
   only sees a list that could hold one: it allocates its closures
   before it looks. *)
type ports = { degree : int; mutable word : int; mutable over : int list; mutable ok : bool }

let ports ~degree = { degree; word = 0; over = []; ok = true }

let admit c p =
  if p >= c.degree then c.ok <- false
  else if p < 62 then
    if c.word land (1 lsl p) <> 0 then c.ok <- false else c.word <- c.word lor (1 lsl p)
  else c.over <- p :: c.over;
  c

let check c =
  (match c.over with
  | [] | [ _ ] -> ()
  | over ->
    let sorted = List.sort_uniq Int.compare over in
    if List.compare_lengths over sorted <> 0 then c.ok <- false;
    c.over <- sorted);
  if c.ok then Ok () else Error "unusable ports"

(* Advice rejected for [reason]: one node of [Sim.Scheme.flooding].  With
   [hello] a non-source node also says hello on every port at start, so
   an advised neighbour whose (legitimately empty) advice omits the
   shared edge still learns it, as Scheme B's hellos on known ports
   teach. *)
let degraded ~hello on_fallback (static : Sim.History.static) reason =
  (match on_fallback with Some f -> f static.id reason | None -> ());
  let node = Sim.Scheme.flooding static in
  if hello && not static.is_source then
    let degree = static.degree in
    { node with on_start = (fun () -> Sim.Scheme.flood Sim.Message.Hello ~degree None) }
  else node

(* The recovery overlay, the same in both modes.  An informed node that
   sees a link time out refloods; a reflood marker reaches the node as
   the source message through the same port, then goes on, at most once
   per node.  The overlay tracks [informed] itself: both modes are
   informed exactly when they are the source or have received the source
   message.  Only an informed node refloods, so the overlay keeps the
   wakeup restriction.  Its state is one record, read by one closure
   per node. *)
type overlay = {
  inner : Sim.Message.t -> port:int -> Sim.Scheme.send list;
  degree : int;
  mutable informed : bool;
  mutable reflooded : bool;
}

let reflood o port =
  if o.reflooded then []
  else begin
    o.reflooded <- true;
    Sim.Scheme.flood Sim.Message.reflood ~degree:o.degree (Some port)
  end

let receive o msg ~port =
  match msg with
  | Sim.Message.Source ->
    o.informed <- true;
    o.inner msg ~port
  | Sim.Message.Control _ when Sim.Message.is_timeout msg ->
    if o.informed then reflood o port else []
  | Sim.Message.Control _ when Sim.Message.is_reflood msg ->
    o.informed <- true;
    let sends = o.inner Sim.Message.Source ~port in
    sends @ reflood o port
  | Sim.Message.Hello | Sim.Message.Control _ -> o.inner msg ~port

let overlay (static : Sim.History.static) (node : Sim.Scheme.node) =
  let o =
    { inner = node.on_receive; degree = static.degree; informed = static.is_source; reflooded = false }
  in
  { node with on_receive = (fun msg ~port -> receive o msg ~port) }

(* Detect-and-correct first: only when the ECC layer itself gives up, or
   the checked reader rejects the corrected payload, pay for flooding. *)
let scheme ~protect ~hello ?on_fallback ?on_corrected checked (static : Sim.History.static) =
  let node =
    match Bitstring.Ecc.unprotect protect static.advice with
    | Error msg -> degraded ~hello on_fallback static ("ecc: " ^ msg)
    | Ok (payload, corrected) -> (
      let static' = if payload == static.advice then static else { static with advice = payload } in
      match checked static' with
      | Ok node ->
        if corrected > 0 then (
          match on_corrected with Some f -> f static.id corrected | None -> ());
        node
      | Error msg -> degraded ~hello on_fallback static msg)
  in
  overlay static node
