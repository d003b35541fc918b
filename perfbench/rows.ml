(* One sweep point, executed and printed exactly as [oraclesize sweep]
   does it, plus the per-operation correctness checks.

   The executable's [execute_point] and [row_of_entry] are not in a
   library, so they are restated here; the test suite byte-compares
   this module's rows against [oraclesize sweep] output for the same
   grid, seed and retry budget, which is what keeps the two in step. *)

module Families = Netgraph.Families
module Graph = Netgraph.Graph

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let protocol_of_name = function
  | "wakeup" -> Fault.Harness.Wakeup
  | "broadcast" -> Fault.Harness.Broadcast
  | p -> failwith (Printf.sprintf "unknown protocol %S" p)

(* The journal context [oraclesize sweep] writes for raw protection
   and the given retry budget, so CLI workers accept it. *)
let context grid ~retry =
  {
    Sim.Journal.spec = Sim.Sweep.to_string grid;
    extra = Printf.sprintf "protect=%s;retry=%d" (Bitstring.Ecc.name Bitstring.Ecc.Raw) retry;
  }

type caches = {
  graphs : (string * int * int, Graph.t) Sim.Sweep.Cache.t;
  advice : (string * (string * int * int), Oracles.Advice.t) Sim.Sweep.Cache.t;
}

let fresh_caches () = { graphs = Sim.Sweep.Cache.create (); advice = Sim.Sweep.Cache.create () }

(* What the traced run counts inside [execute]; untouched untraced. *)
type counters = {
  mutable edges : int;  (** edges of graphs built on cache misses *)
  mutable advise_bits : int;  (** raw advice bits computed on cache misses *)
  mutable events : int;  (** harness events recorded *)
  mutable harness_minor_words : float;
  mutable verdict_mismatches : int;  (** re-timed verdicts that disagreed *)
}

let counters () =
  { edges = 0; advise_bits = 0; events = 0; harness_minor_words = 0.; verdict_mismatches = 0 }

(* Harness.run's verdict step, restated on the recorded events so the
   traced run can time it alone: the stranded-survivor BFS (retry > 0
   only) and the classification. *)
let reclassify ~retry proto g (o : Fault.Harness.outcome) =
  let n = Graph.n g in
  let unreachable =
    if retry = 0 then None
    else begin
      let failed = Array.make n false in
      List.iter
        (fun ev ->
          match ev.Obs.Event.kind with
          | Obs.Event.Fault (Obs.Event.Crashed v | Obs.Event.Dead v) -> failed.(v) <- true
          | _ -> ())
        o.events;
      let seen = Array.make n false in
      let q = Queue.create () in
      if not failed.(0) then begin
        seen.(0) <- true;
        Queue.add 0 q
      end;
      while not (Queue.is_empty q) do
        List.iter
          (fun (_, v, _) ->
            if (not seen.(v)) && not failed.(v) then begin
              seen.(v) <- true;
              Queue.add v q
            end)
          (Graph.neighbors g (Queue.pop q))
      done;
      Some (Array.init n (fun v -> (not failed.(v)) && not seen.(v)))
    end
  in
  Fault.Verdict.classify ~check_silence:(proto = Fault.Harness.Wakeup)
    ~quiescent:o.result.Sim.Runner.quiescent ?unreachable ~n
    ~budgets:(Fault.Harness.budgets ~retry proto g)
    o.events

let execute ?counters grid ~retry caches (p : Sim.Sweep.point) =
  let proto = protocol_of_name p.protocol in
  let gseed = Sim.Sweep.graph_seed grid p in
  let gkey = (Families.name p.family, p.n, gseed) in
  let g =
    Sim.Sweep.Cache.find caches.graphs gkey (fun () ->
        let g = Spans.with_ "gen" (fun () -> Families.build p.family ~n:p.n ~seed:gseed) in
        Option.iter (fun c -> c.edges <- c.edges + Graph.m g) counters;
        g)
  in
  let raw_advice =
    Sim.Sweep.Cache.find caches.advice (p.protocol, gkey) (fun () ->
        let a = Spans.with_ "advise" (fun () -> Fault.Harness.advise proto g ~source:0) in
        Option.iter (fun c -> c.advise_bits <- c.advise_bits + Oracles.Advice.size_bits a) counters;
        a)
  in
  let run () =
    Fault.Harness.run ~scheduler:p.scheduler ~plan:p.plan ~retry ~raw_advice proto g ~source:0
  in
  match counters with
  | None -> Fault.Harness.journal_entry g (run ())
  | Some c ->
    let w0 = Gc.minor_words () in
    let o = Spans.with_ "harness" run in
    c.harness_minor_words <- c.harness_minor_words +. (Gc.minor_words () -. w0);
    c.events <- c.events + List.length o.events;
    let v = Spans.with_ "verdict" (fun () -> reclassify ~retry proto g o) in
    if v <> o.verdict then c.verdict_mismatches <- c.verdict_mismatches + 1;
    Spans.with_ "harness" (fun () -> Fault.Harness.journal_entry g o)

let row (p : Sim.Sweep.point) (e : Sim.Journal.entry) =
  Printf.sprintf
    {|{"protocol":"%s","family":"%s","n":%d,"m":%d,"scheduler":"%s","plan":"%s","rep":%d,"seed":%d,"sent":%d,"rounds":%d,"advice_bits":%d,"raw_bits":%d,"faults":%d,"fallbacks":%d,"tampered":%d,"retransmits":%d,"corrected_bits":%d,"informed":%d,"class":"%s","verdict":"%s"}|}
    (json_escape p.protocol)
    (json_escape (Families.name p.family))
    e.n e.m
    (json_escape (Sim.Scheduler.name p.scheduler))
    (json_escape (Fault.Plan.to_string p.plan))
    p.rep p.seed e.messages e.rounds e.advice_bits e.raw_advice_bits e.faults e.fallbacks
    e.tampered e.retransmits e.corrected_bits e.informed
    (Sim.Journal.class_name e.verdict_class)
    (json_escape e.verdict)

(* The paper's bounds on one fault-free run of [n] nodes: Theorem 2.1
   (exactly n-1 messages, advice within the encoding's worst case) and
   Theorem 3.1 (fewer than 3n messages, at most 8n advice bits). *)
let within_theorem proto ~n ~messages ~advice_bits =
  match proto with
  | Fault.Harness.Wakeup ->
    messages = n - 1 && advice_bits <= Oracle_core.Bounds.wakeup_advice_upper ~n
  | Fault.Harness.Broadcast ->
    messages < 3 * n && advice_bits <= Oracle_core.Bounds.broadcast_advice_upper ~n

(* Does one completed point pass every check that needs no reference
   bytes?  A violated verdict always fails; a clean point must also
   meet its theorem.  Stalled or degraded verdicts under an adversarial
   plan are correct outcomes. *)
let entry_ok (p : Sim.Sweep.point) (e : Sim.Journal.entry) =
  e.verdict_class <> Sim.Journal.Violated
  && ((not (Sim.Fault_plan.is_none p.plan))
     || within_theorem (protocol_of_name p.protocol) ~n:e.n ~messages:e.messages
          ~advice_bits:e.raw_advice_bits)
