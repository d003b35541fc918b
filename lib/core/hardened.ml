(* A decoded port list is only usable if the scheme could actually have
   been advised it: every port in range, none repeated.  Tampered advice
   that still parses but fails this check must also select the fallback,
   or the runner aborts on an out-of-range send. *)
let usable_ports ~degree ports =
  let seen = Array.make (max 1 degree) false in
  List.for_all
    (fun p ->
      p >= 0 && p < degree && not seen.(p)
      &&
      (seen.(p) <- true;
       true))
    ports

let fallback on_fallback (static : Sim.History.static) reason =
  (match on_fallback with Some f -> f static.id reason | None -> ());
  None

(* Detect-and-correct first: only when the ECC layer itself gives up, or
   the corrected payload still fails validation, pay for flooding.  A
   trusted node gets its ECC-stripped payload back, for the plain scheme
   to decode again. *)
let advised ~protect ~decode ?on_fallback ?on_corrected (static : Sim.History.static) =
  match Bitstring.Ecc.unprotect protect static.advice with
  | Error msg -> fallback on_fallback static ("ecc: " ^ msg)
  | Ok (payload, corrected) -> (
    match decode payload with
    | Ok ports when usable_ports ~degree:static.degree ports ->
      if corrected > 0 then (
        match on_corrected with Some f -> f static.id corrected | None -> ());
      Some payload
    | Ok _ -> fallback on_fallback static "unusable ports"
    | Error msg -> fallback on_fallback static msg)

(* Advice rejected: one node of [Sim.Scheme.flooding].  With [hello] a
   non-source node also says hello on every port at start, so an advised
   neighbour whose (legitimately empty) advice omits the shared edge
   still learns it, as Scheme B's hellos on known ports teach. *)
let degraded ~hello (static : Sim.History.static) =
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

let scheme ~protect ~decode ~hello ?on_fallback ?on_corrected plain (static : Sim.History.static) =
  let node =
    match advised ~protect ~decode ?on_fallback ?on_corrected static with
    | Some payload ->
      plain (if payload == static.advice then static else { static with advice = payload })
    | None -> degraded ~hello static
  in
  overlay static node
