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
   the corrected payload still fails validation, pay for flooding. *)
let advised ~protect ~decode ?on_fallback ?on_corrected (static : Sim.History.static) =
  match Bitstring.Ecc.unprotect protect static.advice with
  | Error msg -> fallback on_fallback static ("ecc: " ^ msg)
  | Ok (payload, corrected) -> (
    match decode payload with
    | Ok ports when usable_ports ~degree:static.degree ports ->
      if corrected > 0 then (
        match on_corrected with Some f -> f static.id corrected | None -> ());
      Some ports
    | Ok _ -> fallback on_fallback static "unusable ports"
    | Error msg -> fallback on_fallback static msg)

(* Built back to front in one loop: no port list, no options, and
   constant stack depth on a high-degree node. *)
let flood msg ~degree arrival =
  let skip = match arrival with Some p -> p | None -> -1 in
  let sends = ref [] in
  for p = degree - 1 downto 0 do
    if p <> skip then sends := (msg, p) :: !sends
  done;
  !sends

let reflood ~degree =
  let reflooded = ref false in
  fun arrival ->
    if !reflooded then []
    else begin
      reflooded := true;
      flood Sim.Message.reflood ~degree arrival
    end
