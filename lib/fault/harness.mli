(** The adversarial end-to-end harness: oracle → (error-protected)
    advice → corruption → hardened scheme under an adversarial schedule,
    with the runner's ack/retransmit channel → verdict.

    One call runs the full robustness pipeline for a paper protocol:
    build the protocol's oracle, optionally protect every node's advice
    with an ECC level ({!Oracles.Protect}), apply the plan's advice
    faults to the {e protected} strings ({!Corrupt} — the adversary
    attacks the codewords, which is the point of coding them), execute
    the hardened scheme with the plan's message- and node-level faults
    injected by the runner (and, with [retry > 0], its self-healing
    retransmit channel armed), and judge the run.  The run records its
    stream; once it drains, {!Verdict.judge} rules on the run's own
    counters and informed set, with the crashed/dead set and, for
    wakeup, the silence flag read from the recording without decoding
    it ({!Verdict.recorded}); the stranded-survivor BFS reads the same
    crashed/dead set.  The harness never raises on any plan: every
    outcome is a structured verdict.

    The recording lives in one {!Sim.Runner.scratch} per domain, kept
    in a slot and reused run after run: its {!Obs.Recorder} is cleared
    between runs, and the runner's ring and round-stash arrays stay
    warm, at the size of the largest run the domain has made.  With no
    caller sinks the runner packs its per-message events into the
    recorder without building them; {!outcome.events} is built from the
    recording last, after the verdict.  A run nested inside another on
    the same domain (from a user sink, say) gets a fresh scratch, and a
    run that raises releases the domain's, so neither corrupts the next
    run. *)

type protocol =
  | Wakeup  (** Theorem 2.1 wakeup, hardened ({!Wakeup.hardened_scheme}) *)
  | Broadcast  (** Scheme B broadcast, hardened ({!Broadcast.hardened_scheme}) *)

val protocol_name : protocol -> string

val budgets : ?retry:int -> protocol -> Netgraph.Graph.t -> Verdict.budgets
(** Clean budget from the paper ([n-1], resp. [3n]); degraded budget
    Θ(m) with room for the fallback's hellos, floods and refloods
    ([2m + 3n], resp. [4m + 3n]); recovery budget
    [retry × degraded], saturating at [max_int] (default [retry = 0]:
    any retransmission is a violation) — each sequence number may
    consume at most [retry] recovery slots, so this is the
    machine-checked form of the channel's own invariant. *)

type outcome = {
  verdict : Verdict.t;
  result : Sim.Runner.result;
  advice_bits : int;
      (** size of the advice actually handed out: protection and
          corruption included *)
  raw_advice_bits : int;
      (** size of the oracle's raw advice, before protection — the
          paper's measure; [advice_bits / raw_advice_bits] is the
          protection overhead actually paid *)
  tampered : (int * string) list;  (** {!Corrupt.apply}'s tamper log *)
  fallbacks : (int * string) list;
      (** nodes (by index) that rejected their advice, with the decode or
          validation error *)
  corrected : (int * int) list;
      (** nodes (by index) whose protected advice decoded with that many
          corrected errors — attacks the ECC layer absorbed without any
          fallback; one per [Recover (Advice_corrected _)] event in
          [events], so their sum is the stream's corrected bits *)
  events : Obs.Event.t list;
      (** the complete recorded stream, built once after the run from the
          domain's packed recorder *)
}

val advise : protocol -> Netgraph.Graph.t -> source:int -> Oracles.Advice.t
(** The protocol's raw oracle advice for [(g, source)] — a pure function
    of its arguments.  Exposed so grid sweeps can compute it once per
    graph and pass it to many {!run}s via [?raw_advice]. *)

val run :
  ?scheduler:Sim.Scheduler.t ->
  ?plan:Plan.t ->
  ?sinks:Obs.Sink.t list ->
  ?max_messages:int ->
  ?protect:Bitstring.Ecc.level ->
  ?retry:int ->
  ?raw_advice:Oracles.Advice.t ->
  protocol ->
  Netgraph.Graph.t ->
  source:int ->
  outcome
(** [run protocol g ~source] under [plan] (default {!Plan.none}) and
    [scheduler] (default [Async_fifo]), with advice protection [protect]
    (default [Raw]: none) and retransmission budget [retry] (default
    [0]: recovery off — bit-for-bit the PR 2 behaviour).

    [raw_advice] (default: computed with {!advise}) lets sweeps reuse one
    advice assignment across the plan × scheduler × protection axes; the
    harness never mutates it, so a cached value stays valid for any
    number of runs.  At [Raw] protection with no advice faults in the
    plan the run reads it as is; other levels and advice faults work on
    fresh buffers.

    The stream fed to [sinks] (and recorded in [events]) is, in order:
    one [Fault (Advice_tampered _)] per tamper-log entry, then the
    runner's stream with one [Decide (v, {!Verdict.fallback_tag})] or
    [Recover (Advice_corrected _)] interleaved at instantiation time per
    node that rejected, resp. repaired, its advice.  Identical graph +
    plan + scheduler + protection + retry yields a bit-identical stream
    (the determinism tests assert this).

    The wakeup silence invariant is checked for [Wakeup] runs; a
    non-quiescent result (stopped by [max_messages]) classifies as
    [Violated]; crashed/dead nodes are exempt from informedness, and
    with [retry > 0] so are survivors the failure pattern physically
    disconnected from the source — see {!Verdict.judge}.  The verdict is
    the one {!Verdict.classify} gives on [events] with the same
    arguments. *)

val journal_entry : Netgraph.Graph.t -> outcome -> Sim.Journal.entry
(** Flatten an outcome into the persistent sweep journal's entry record
    — the exact numbers a sweep row reports, in the fixed-width fields
    [docs/JOURNAL_FORMAT.md] assigns them: messages, rounds, faults and
    retransmits from [result.stats], corrected bits summed over
    [corrected].  Journaled sweeps call this
    once per completed point and re-emit rows from the entry alone, so
    anything a row needs must come through here. *)

val cached_entry :
  ?scheduler:Sim.Scheduler.t ->
  ?plan:Plan.t ->
  ?protect:Bitstring.Ecc.level ->
  ?retry:int ->
  (string * 'k, Oracles.Advice.t) Sim.Sweep.Cache.t ->
  graph_key:'k ->
  protocol ->
  Netgraph.Graph.t ->
  Sim.Journal.entry
(** One grid point of a sweep or bench grid: {!run} from source [0] with
    the raw advice looked up in [advice_cache] under
    [(protocol_name protocol, graph_key)] (computed by {!advise} on a
    miss), flattened by {!journal_entry}.  [graph_key] must identify [g]
    among the graphs that share the cache. *)
