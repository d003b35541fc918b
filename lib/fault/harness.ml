module Graph = Netgraph.Graph
module Advice = Oracles.Advice

type protocol =
  | Wakeup
  | Broadcast

let protocol_name = function Wakeup -> "wakeup" | Broadcast -> "broadcast"

let budgets ?(retry = 0) protocol g =
  let n = Graph.n g in
  let m = Graph.m g in
  let base =
    match protocol with
    | Wakeup -> { Verdict.clean = n - 1; degraded = (2 * m) + (3 * n); recovery = 0 }
    | Broadcast -> { Verdict.clean = 3 * n; degraded = (4 * m) + (3 * n); recovery = 0 }
  in
  (* With the recovery layer armed, a timed-out link makes the hardened
     schemes reflood, each node at most once on at most its degree's
     ports: up to [2m] control messages more. *)
  let d = if retry > 0 then base.Verdict.degraded + (2 * m) else base.Verdict.degraded in
  (* Every sequence number can consume at most [retry] recovery slots, and
     there are at most [degraded] of them in a non-violating run — the
     recovery budget is the machine-checked form of that invariant.  The
     product saturates: a huge [retry] means "unbounded", not negative. *)
  let recovery = if retry > 0 && d > max_int / retry then max_int else retry * d in
  { base with Verdict.degraded = d; recovery }

(* Which nodes did the failure pattern physically strand?  BFS over the
   graph minus failed nodes: a survivor no path reaches can never be
   informed, retransmissions or not, so the verdict excludes it the same
   way it excludes the failed nodes themselves. *)
let unreachable_after ~failed g ~source =
  let n = Graph.n g in
  let visited = Array.make n false in
  if not failed.(source) then begin
    visited.(source) <- true;
    let q = Queue.create () in
    Queue.add source q;
    let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g in
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      for k = off.(u) to off.(u + 1) - 1 do
        let v = nbr.(k) in
        if (not visited.(v)) && not failed.(v) then begin
          visited.(v) <- true;
          Queue.add v q
        end
      done
    done
  end;
  Array.init n (fun v -> (not failed.(v)) && not visited.(v))

type outcome = {
  verdict : Verdict.t;
  result : Sim.Runner.result;
  advice_bits : int;
  raw_advice_bits : int;
  tampered : (int * string) list;
  fallbacks : (int * string) list;
  corrected : (int * int) list;
  events : Obs.Event.t list;
}

let advise protocol g ~source =
  let oracle =
    match protocol with
    | Wakeup -> Oracle_core.Wakeup.oracle ()
    | Broadcast -> Oracle_core.Broadcast.oracle ()
  in
  oracle.Oracles.Oracle.advise g ~source

(* One runner scratch per domain, reused run after run: its recorder
   and the runner's ring and round-stash arrays stay warm, at the
   largest run's size, and with no caller sinks a run's per-message
   events are packed into the recorder without ever being built.  A
   run that starts while the domain's scratch is busy — one nested
   inside a user sink, say — gets a fresh one, and the slot is released
   (its recorder cleared) however the run ends. *)
type slot = {
  scratch : Sim.Runner.scratch;
  mutable busy : bool;
}

let slot_key = Domain.DLS.new_key (fun () -> { scratch = Sim.Runner.scratch (); busy = false })

let with_scratch f =
  let slot = Domain.DLS.get slot_key in
  if slot.busy then f (Sim.Runner.scratch ())
  else begin
    slot.busy <- true;
    Fun.protect
      ~finally:(fun () ->
        Obs.Recorder.clear (Sim.Runner.recorder slot.scratch);
        slot.busy <- false)
      (fun () -> f slot.scratch)
  end

let run ?(scheduler = Sim.Scheduler.Async_fifo) ?(plan = Plan.none) ?(sinks = []) ?max_messages
    ?(protect = Bitstring.Ecc.Raw) ?(retry = 0) ?raw_advice protocol g ~source =
  (* [raw_advice] is the sweep cache hook: advice is a pure function of
     (protocol, graph, source), so a caller sweeping many plans or
     schedulers over one graph computes it once via [advise] and passes
     it in.  Nothing below mutates it: [Raw] protection and a plan with
     no advice faults hand it to the run as is, and every other level
     and advice fault builds fresh buffers. *)
  let raw_advice =
    match raw_advice with Some a -> a | None -> advise protocol g ~source
  in
  let protected_advice = Oracles.Protect.advice protect raw_advice in
  let corrupted, tampered = Corrupt.apply plan protected_advice in
  with_scratch @@ fun scratch ->
  let recorder = Sim.Runner.recorder scratch in
  (* The harness's own events join the recorded stream where they
     happen, and reach the caller's sinks like the runner's. *)
  let emit ev =
    Obs.Recorder.push recorder ev;
    List.iter (fun s -> Obs.Sink.emit s ev) sinks
  in
  List.iter emit (Corrupt.events tampered);
  (* Hardened nodes report fallbacks with their label; telemetry speaks
     node indices (labels default to 1..n, not 0..n-1). *)
  let node_of_label label = try Graph.node_of_label g label with Not_found -> 0 in
  let fallbacks = ref [] in
  let on_fallback label reason =
    let v = node_of_label label in
    fallbacks := (v, reason) :: !fallbacks;
    emit { Obs.Event.seq = 0; round = 0; kind = Obs.Event.Decide (v, Verdict.fallback_tag) }
  in
  let corrected = ref [] in
  let on_corrected label bits =
    let v = node_of_label label in
    corrected := (v, bits) :: !corrected;
    emit
      { Obs.Event.seq = 0; round = 0; kind = Obs.Event.Recover (Obs.Event.Advice_corrected (v, bits)) }
  in
  let factory =
    match protocol with
    | Wakeup -> Oracle_core.Wakeup.hardened_scheme ~protect ~on_fallback ~on_corrected ()
    | Broadcast -> Oracle_core.Broadcast.hardened_scheme ~protect ~on_fallback ~on_corrected ()
  in
  let result =
    Sim.Runner.run ~scheduler ?max_messages ~sinks ~faults:plan ~retry ~scratch
      ~advice:(Advice.get corrupted) g ~source factory
  in
  (* The verdict is judged from the run's own counters and informed
     set; the recording is read only for its boxed crashed/dead faults
     and, for wakeup, the informed bit of its sends. *)
  let check_silence = protocol = Wakeup in
  let evidence =
    Verdict.recorded ~check_silence ~stats:result.Sim.Runner.stats
      ~informed:result.Sim.Runner.informed ~fallbacks:(List.length !fallbacks) recorder
  in
  (* With the recovery layer armed, "stalled" should mean "recoverably
     stalled": survivors the failure pattern physically cut off are
     excluded like the failed nodes themselves.  With [retry = 0] the
     classification stays the paper-pure one. *)
  let unreachable =
    if retry = 0 then None
    else Some (unreachable_after ~failed:evidence.Verdict.failed g ~source)
  in
  let verdict =
    Verdict.judge ~check_silence ~quiescent:result.Sim.Runner.quiescent ?unreachable
      ~budgets:(budgets ~retry protocol g)
      evidence
  in
  (* The event list is built last, once everything else the run needs
     is done with: the list is the outcome's largest part. *)
  {
    verdict;
    result;
    advice_bits = Advice.size_bits corrupted;
    raw_advice_bits = Advice.size_bits raw_advice;
    tampered;
    fallbacks = List.rev !fallbacks;
    corrected = List.rev !corrected;
    events = Obs.Recorder.to_list recorder;
  }

let journal_entry g (o : outcome) =
  let r = o.result in
  let stats = r.Sim.Runner.stats in
  let informed =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 r.Sim.Runner.informed
  in
  let verdict_class =
    match o.verdict with
    | Verdict.Completed -> Sim.Journal.Completed
    | Verdict.Degraded _ -> Sim.Journal.Degraded
    | Verdict.Stalled _ -> Sim.Journal.Stalled
    | Verdict.Violated _ -> Sim.Journal.Violated
  in
  {
    Sim.Journal.n = Graph.n g;
    m = Graph.m g;
    messages = stats.Obs.Counting.sent;
    rounds = stats.Obs.Counting.rounds;
    advice_bits = o.advice_bits;
    raw_advice_bits = o.raw_advice_bits;
    faults = stats.Obs.Counting.faults;
    fallbacks = List.length o.fallbacks;
    tampered = List.length o.tampered;
    retransmits = stats.Obs.Counting.retransmits;
    corrected_bits = List.fold_left (fun acc (_, bits) -> acc + bits) 0 o.corrected;
    informed;
    verdict_class;
    verdict = Verdict.to_string o.verdict;
  }

let cached_entry ?scheduler ?plan ?protect ?retry advice_cache ~graph_key protocol g =
  let raw_advice =
    Sim.Sweep.Cache.find advice_cache (protocol_name protocol, graph_key) (fun () ->
        advise protocol g ~source:0)
  in
  journal_entry g
    (run ?scheduler ?plan ?protect ?retry ~raw_advice protocol g ~source:0)
