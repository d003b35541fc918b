module Families = Netgraph.Families

let protocols = [ ("wakeup", Harness.Wakeup); ("broadcast", Harness.Broadcast) ]

let parse_grid spec =
  match Sim.Sweep.of_string spec with
  | Error _ as e -> e
  | Ok grid -> (
    match List.find_opt (fun p -> not (List.mem_assoc p protocols)) grid.Sim.Sweep.protocols with
    | Some p -> Error (Printf.sprintf "unknown protocol %S (wakeup or broadcast)" p)
    | None -> Ok grid)

let context ~protect ~retry =
  Printf.sprintf "protect=%s;retry=%d" (Bitstring.Ecc.name protect) retry

(* Each field must read back to the very text [context] would write for
   it, so only canonical strings round-trip. *)
let parse_context extra =
  let ( let* ) = Result.bind in
  let field prefix s =
    let k = String.length prefix in
    if String.length s > k && String.sub s 0 k = prefix then
      Ok (String.sub s k (String.length s - k))
    else Error (Printf.sprintf "journal context: expected %s<value>, got %S" prefix s)
  in
  match String.split_on_char ';' extra with
  | [ p; r ] ->
    let* pname = field "protect=" p in
    let* protect =
      match Bitstring.Ecc.of_name pname with
      | Ok level when Bitstring.Ecc.name level = pname -> Ok level
      | _ -> Error (Printf.sprintf "journal context: bad protect %S" pname)
    in
    let* rstr = field "retry=" r in
    let* retry =
      match int_of_string_opt rstr with
      | Some n when n >= 0 && string_of_int n = rstr -> Ok n
      | _ -> Error (Printf.sprintf "journal context: bad retry %S" rstr)
    in
    Ok (protect, retry)
  | _ -> Error (Printf.sprintf "journal context: expected protect=...;retry=..., got %S" extra)

type caches = {
  graphs : (string * int * int, Netgraph.Graph.t) Sim.Sweep.Cache.t;
  advice : (string * (string * int * int), Oracles.Advice.t) Sim.Sweep.Cache.t;
}

let caches () = { graphs = Sim.Sweep.Cache.create (); advice = Sim.Sweep.Cache.create () }

let execute grid ~protect ~retry caches p =
  let gseed = Sim.Sweep.graph_seed grid p in
  let graph_key = (Families.name p.Sim.Sweep.family, p.Sim.Sweep.n, gseed) in
  let g =
    Sim.Sweep.Cache.find caches.graphs graph_key (fun () ->
        Families.build p.Sim.Sweep.family ~n:p.Sim.Sweep.n ~seed:gseed)
  in
  Harness.cached_entry ~scheduler:p.Sim.Sweep.scheduler ~plan:p.Sim.Sweep.plan ~protect ~retry
    caches.advice ~graph_key
    (List.assoc p.Sim.Sweep.protocol protocols)
    g

let row p (e : Sim.Journal.entry) =
  Printf.sprintf
    {|{"protocol":"%s","family":"%s","n":%d,"m":%d,"scheduler":"%s","plan":"%s","rep":%d,"seed":%d,"sent":%d,"rounds":%d,"advice_bits":%d,"raw_bits":%d,"faults":%d,"fallbacks":%d,"tampered":%d,"retransmits":%d,"corrected_bits":%d,"informed":%d,"class":"%s","verdict":"%s"}|}
    (Obs.Jsonl.escape p.Sim.Sweep.protocol)
    (Obs.Jsonl.escape (Families.name p.Sim.Sweep.family))
    e.Sim.Journal.n e.Sim.Journal.m
    (Obs.Jsonl.escape (Sim.Scheduler.name p.Sim.Sweep.scheduler))
    (Obs.Jsonl.escape (Plan.to_string p.Sim.Sweep.plan))
    p.Sim.Sweep.rep p.Sim.Sweep.seed e.Sim.Journal.messages e.Sim.Journal.rounds
    e.Sim.Journal.advice_bits e.Sim.Journal.raw_advice_bits e.Sim.Journal.faults
    e.Sim.Journal.fallbacks e.Sim.Journal.tampered e.Sim.Journal.retransmits
    e.Sim.Journal.corrected_bits e.Sim.Journal.informed
    (Sim.Journal.class_name e.Sim.Journal.verdict_class)
    (Obs.Jsonl.escape e.Sim.Journal.verdict)
