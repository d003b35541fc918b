(* The four workloads and the measurement loop they share.

   A run sets up, makes one checked warm-up pass, then makes timed
   passes until [seconds] have gone by.  Before each pass the heap is
   compacted; every check runs after the pass's clock has stopped.  An
   untraced run samples the reference kernel before every set-up and
   pass and scales its times by the host speed it reads.  In a traced
   run, traced and untraced passes alternate: the untraced ones give
   the tracing overhead, the traced ones the layer spans. *)

module Graph = Netgraph.Graph

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  worker_exe : string;  (** the built [oraclesize] executable, for fleet workers *)
  bench_exe : string;  (** the built [bench] executable, for reference samples *)
  work_dir : string;  (** journals and the span dump go here *)
}

(* What a pass's checks report, computed after its clock stopped. *)
type outcome = {
  attempted : int;  (** operations: grid points or engine runs *)
  failed : int;
  messages : int;  (** simulated messages, the rows' [sent] summed *)
  engine_wall : float option;  (** [Runner.run] time alone, when the workload times it *)
  layers : sums:(string -> float) -> cpu:float -> (string * float) list;
      (** the traced pass's per-layer metrics from its span self-time sums *)
}

type 'ctx t = {
  setup : unit -> 'ctx;  (** timed: one [setup_s] sample *)
  fresh_per_pass : bool;  (** true: set up again before every pass *)
  trace_setup : bool;  (** record spans while setting up *)
  setup_layers : 'ctx -> sums:(string -> float) -> (string * float) list;
  pass : 'ctx -> unit -> outcome;
      (** [pass ctx] is timed; the thunk it returns runs the checks *)
}

(* Messages and problems found by checks that are not single
   operations (a worker death, a resumed point that re-executed). *)
let problems = ref []

let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let remove path = try Sys.remove path with Sys_error _ -> ()

let journal_counter = ref 0

let fresh_journal cfg name =
  incr journal_counter;
  let path =
    Filename.concat cfg.work_dir
      (Printf.sprintf "%s-%d-%d.journal" name (Unix.getpid ()) !journal_counter)
  in
  remove path;
  path

let ratio a b = if b = 0. then 0. else a /. b

let spec ~families ~ns ~plans ~reps ~seed =
  Printf.sprintf
    "protocols=wakeup,broadcast;families=%s;ns=%s;scheds=sync,async-fifo;plans=%s;reps=%d;seed=%d"
    families ns plans reps seed

let grid_of s = match Sim.Sweep.of_string s with Ok g -> g | Error e -> failwith e

(* {1 Rows shared by the sweep workloads} *)

(* Emission state of one pass: rows by point index, and the start of
   the emission phase, which [Sweep] runs as one ordered loop after
   its last append. *)
type emitted = {
  rows : string option array;
  entries : Sim.Journal.entry option array;
  mutable emit_start : float;
}

let emitted total =
  { rows = Array.make total None; entries = Array.make total None; emit_start = nan }

let emit em i p e =
  if Float.is_nan em.emit_start && !Spans.enabled then em.emit_start <- Spans.now ();
  em.rows.(i) <- Some (Rows.row p e);
  em.entries.(i) <- Some e

(* The emission loop ends where the sweep call returns. *)
let close_emit em =
  if !Spans.enabled && not (Float.is_nan em.emit_start) then
    Spans.record "emit" ~start:em.emit_start ~stop:(Spans.now ())

(* Count failed points: missing (raised), failing {!Rows.entry_ok}, or
   with bytes unlike [reference]. *)
let check_rows pts em ~reference =
  let failed = ref 0 in
  Array.iteri
    (fun i p ->
      match (em.rows.(i), em.entries.(i)) with
      | Some r, Some e when Rows.entry_ok p e && String.equal r reference.(i) -> ()
      | _ -> incr failed)
    pts;
  !failed

let messages em =
  Array.fold_left
    (fun acc e -> match e with Some e -> acc + e.Sim.Journal.messages | None -> acc)
    0 em.entries

let rows_of em = Array.map (function Some r -> r | None -> "") em.rows

(* The in-process journaled sweep, as [oraclesize sweep -j 1 --journal]
   runs it.  Also returns every cache the pool created, for the hit
   ratios. *)
let sweep_in_process ?counters ?on_append ~path ~jctx ~retry grid pts em =
  let made = ref [] in
  let stats =
    Sim.Sweep.map_journaled ~jobs:1 ~journal:(path, jctx) ?on_append
      ~key:(fun p -> p.Sim.Sweep.seed)
      ~local:(fun () ->
        let c = Rows.fresh_caches () in
        made := c :: !made;
        c)
      ~f:(fun c _ p -> Rows.execute ?counters grid ~retry c p)
      ~emit:(emit em) pts
  in
  (stats, !made)

let journal_ok name = function
  | Ok s -> s
  | Error e -> failwith (Printf.sprintf "%s: journal: %s" name e)

(* Replay and frame decoding run inside the sweep call; the traced run
   times them again on the pass's journal.  [retime_replay] is
   [Journal.open_] (replay, then close) and returns the records
   replayed; [retime_journal_decode] is [Frame.decode] over the file's
   frames and returns how many it decoded. *)
let retime_replay ~jctx path =
  Spans.with_ "journal.replay" (fun () ->
      let j, st = journal_ok "replay" (Sim.Journal.open_ ~expect:jctx ~path ()) in
      Sim.Journal.close j;
      st.Sim.Journal.replayed)

let retime_journal_decode path =
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Spans.with_ "frame.decode" (fun () ->
      let rec go pos k =
        if pos >= String.length bytes then k
        else
          match Bitstring.Frame.decode bytes ~pos with
          | Ok (_, next) -> go next (k + 1)
          | Error e -> failwith (Bitstring.Frame.error_to_string e)
      in
      go 0 0)

let replay_layers ~sums ~replayed =
  [
    ("journal.replay_s", sums "journal.replay");
    ("journal.replay_records_per_s", ratio (float_of_int replayed) (sums "journal.replay"));
  ]

(* {1 fleet and resume: one small-n grid} *)

let fleet_spec ~reps ~seed =
  spec ~families:"sparse-random" ~ns:"16,32" ~plans:"none|drop=0.1,seed=7" ~reps ~seed

let fleet_reps = 750

(* The fleet grid computed in-process on one domain, unjournaled: the
   reference rows the workers' bytes must equal. *)
let in_process_rows grid pts =
  let em = emitted (Array.length pts) in
  let caches = Rows.fresh_caches () in
  Array.iteri (fun i p -> emit em i p (Rows.execute grid ~retry:0 caches p)) pts;
  rows_of em

type fleet_ctx = {
  d : Sim.Dispatch.t;
  reassigned0 : int;
  ws0 : Sim.Dispatch.worker_stat list;
}

let sum_ws f ws = List.fold_left (fun a (w : Sim.Dispatch.worker_stat) -> a + f w) 0 ws

(* The fleet's real frames, in the order one worker session exchanges
   them: per batch of the fixed-size schedule a [Task_batch], then per
   task a [Heartbeat] and a [Result]. *)
let fleet_frames chunks entries =
  let msgs = ref [] in
  let seq = ref 0 in
  List.iter
    (fun idx ->
      let len = Array.length idx in
      let b = ref 0 in
      while !b < len do
        let size = min Sim.Dispatch.default_batch (len - !b) in
        let batch = Array.sub idx !b size in
        msgs := Sim.Worker.Task_batch { seq = !seq; indices = batch } :: !msgs;
        incr seq;
        Array.iteri
          (fun k i ->
            msgs :=
              Sim.Worker.Result { index = i; result = Ok (Option.get entries.(i)) }
              :: Sim.Worker.Heartbeat { worker = 0; count = k }
              :: !msgs)
          batch;
        b := !b + size
      done)
    chunks;
  Array.of_list (List.rev !msgs)

(* Encode and decode [msgs] under spans; returns the encoded bytes and
   whether every frame parsed back to its message. *)
let time_frames msgs =
  let encoded = Spans.with_ "frame.encode" (fun () -> Array.map Sim.Worker.encode msgs) in
  let parsed =
    Spans.with_ "frame.decode" (fun () ->
        Array.map
          (fun s ->
            match Bitstring.Frame.decode s ~pos:0 with
            | Ok (f, _) -> Sim.Worker.parse f
            | Error e -> Error (Bitstring.Frame.error_to_string e))
          encoded)
  in
  let ok = ref true in
  Array.iteri (fun i p -> if p <> Ok msgs.(i) then ok := false) parsed;
  (encoded, !ok)

(* [~probe:true] runs the same passes as a layer probe inside another
   workload's traced run: the pass's span is "fleet", not "sweep", and
   emission is not a span, so the host workload's [sweep.self_s] and
   [emit.s] stay its own. *)
let fleet ?(reps = fleet_reps) ?(probe = false) cfg =
  let grid = grid_of (fleet_spec ~reps ~seed:cfg.seed) in
  let pts = Sim.Sweep.points grid in
  let jctx = Rows.context grid ~retry:0 in
  let reference = in_process_rows grid pts in
  let total = Array.length pts in
  let fallback_caches = Rows.fresh_caches () in
  let setup () =
    Spans.with_ "dispatch.spawn" (fun () ->
        let d =
          Sim.Dispatch.create ~workers:2 ~batching:(Sim.Dispatch.Fixed Sim.Dispatch.default_batch)
            ~command:(fun ~id -> [| cfg.worker_exe; "worker"; "--id"; string_of_int id |])
            ~context:jctx
            ~fallback:(fun i -> Ok (Rows.execute grid ~retry:0 fallback_caches pts.(i)))
            ()
        in
        (* Dispatch handshakes on its first run: one probe task (point
           0, result discarded) completes it for both workers. *)
        ignore (Sim.Dispatch.run d [| 0 |]);
        { d; reassigned0 = (Sim.Dispatch.stats d).reassigned; ws0 = Sim.Dispatch.worker_stats d })
  in
  let setup_layers _ ~sums = [ ("dispatch.spawn_s", sums "dispatch.spawn") ] in
  let pass c =
    let em = emitted total in
    let traced = !Spans.enabled in
    let chunks = ref [] in
    let stats =
      Spans.with_ (if probe then "fleet" else "sweep") (fun () ->
          let r =
            Sim.Sweep.map_journaled_via
              ~key:(fun p -> p.Sim.Sweep.seed)
              ~run:(fun idx ->
                if traced then chunks := idx :: !chunks;
                Spans.with_ "dispatch.run" (fun () -> Sim.Dispatch.run c.d idx))
              ~emit:(emit em) pts
          in
          if not probe then close_emit em;
          r)
    in
    fun () ->
      let s = Sim.Dispatch.stats c.d in
      let ws = Sim.Dispatch.worker_stats c.d in
      Sim.Dispatch.shutdown c.d;
      ignore (journal_ok "fleet" stats);
      let speculative =
        sum_ws (fun w -> w.speculative) ws - sum_ws (fun w -> w.speculative) c.ws0
      in
      if s.died > 0 || s.reassigned > 0 || speculative > 0 || s.inline_tasks > 0 || s.spawned <> 2
      then
        problem "fleet: spawned=%d died=%d reassigned=%d speculative=%d inline=%d" s.spawned s.died
          s.reassigned speculative s.inline_tasks;
      let failed = check_rows pts em ~reference in
      let frames, bytes =
        if not traced then (0, 0)
        else begin
          let frames = fleet_frames (List.rev !chunks) em.entries in
          let encoded, round_trip = time_frames frames in
          if not round_trip then problem "fleet: a wire frame did not decode to its message";
          (Array.length frames, Array.fold_left (fun a f -> a + String.length f) 0 encoded)
        end
      in
      let layers ~sums ~cpu =
        let nf = float_of_int frames in
        let d f = float_of_int (sum_ws f ws - sum_ws f c.ws0) in
        [
          ("sweep.self_s", sums "sweep");
          ("emit.s", sums "emit");
          ("dispatch.run_s", sums "dispatch.run");
          ("dispatch.supervisor_cpu_us_per_point", cpu /. float_of_int total *. 1e6);
          ("dispatch.batches", d (fun w -> w.batches));
          ("dispatch.reassigned", float_of_int (s.reassigned - c.reassigned0));
          ("dispatch.speculative", float_of_int speculative);
          ("dispatch.win_ratio", ratio (d (fun w -> w.wins)) (d (fun w -> w.tasks)));
          ("frame.encode_ns", sums "frame.encode" /. nf *. 1e9);
          ("frame.decode_ns", sums "frame.decode" /. nf *. 1e9);
          ("wire.bytes_per_point", float_of_int bytes /. float_of_int total);
        ]
      in
      { attempted = total; failed; messages = messages em; engine_wall = None; layers }
  in
  { setup; fresh_per_pass = true; trace_setup = true; setup_layers; pass }

type resume_ctx = { r_path : string; r_rows : string array }

let resume ?(reps = fleet_reps) cfg =
  let grid = grid_of (fleet_spec ~reps ~seed:cfg.seed) in
  let pts = Sim.Sweep.points grid in
  let jctx = Rows.context grid ~retry:0 in
  let total = Array.length pts in
  let last = ref None in
  (* Writing the journal is the set-up: the in-process sweep that the
     timed passes resume. *)
  let setup () =
    Option.iter (fun c -> remove c.r_path) !last;
    let path = fresh_journal cfg "resume" in
    let em = emitted total in
    let stats, _ = sweep_in_process ~path ~jctx ~retry:0 grid pts em in
    let stats = journal_ok "resume" stats in
    if stats.executed <> total then problem "resume: set-up executed %d of %d" stats.executed total;
    let c = { r_path = path; r_rows = rows_of em } in
    last := Some c;
    c
  in
  let pass c =
    let em = emitted total in
    let stats =
      Spans.with_ "sweep" (fun () ->
          let r =
            Sim.Sweep.run_journaled ~jobs:1 ~journal:c.r_path ~context:jctx.extra
              ~local:Rows.fresh_caches
              ~f:(fun caches p -> Rows.execute grid ~retry:0 caches p)
              ~emit:(fun p e -> emit em p.Sim.Sweep.index p e)
              grid
          in
          close_emit em;
          r)
    in
    fun () ->
      let stats = journal_ok "resume" stats in
      if stats.executed <> 0 || stats.skipped <> total then
        problem "resume: executed %d and skipped %d of %d points" stats.executed stats.skipped
          total;
      let failed = check_rows pts em ~reference:c.r_rows in
      let replayed, frames =
        if !Spans.enabled then (retime_replay ~jctx c.r_path, retime_journal_decode c.r_path)
        else (0, 0)
      in
      if !Spans.enabled && replayed <> total then
        problem "resume: replay found %d of %d records" replayed total;
      let layers ~sums ~cpu:_ =
        [
          ("sweep.self_s", sums "sweep");
          ("emit.s", sums "emit");
          ("frame.decode_ns", ratio (sums "frame.decode") (float_of_int frames) *. 1e9);
        ]
        @ replay_layers ~sums ~replayed
      in
      { attempted = total; failed; messages = messages em; engine_wall = None; layers }
  in
  { setup; fresh_per_pass = false; trace_setup = false; setup_layers = (fun _ ~sums:_ -> []); pass }

(* {1 grid} *)

let grid_spec ~reps ~seed =
  spec ~families:"sparse-random,path" ~ns:"256,1024" ~plans:"none|drop=0.05,crash=3@5,seed=7"
    ~reps ~seed

type grid_ctx = {
  g_grid : Sim.Sweep.grid;
  g_pts : Sim.Sweep.point array;
  g_jctx : Sim.Journal.context;
  g_path : string;
}

(* One pass of [fleet ~probe:true], set-up included, after a traced
   grid pass's clock stopped.  Returns its outcome and the benchmark
   process's CPU time during the pass. *)
let run_probe (p : fleet_ctx t) =
  let c = p.setup () in
  let cpu0 = Host.cpu () in
  let check = p.pass c in
  let cpu = Host.cpu () -. cpu0 in
  (check (), cpu)

(* The traced run also drives the fleet grid through two pipe workers
   after every traced pass, so the dispatch and wire-frame layers are
   measured in a benchmark whose end-to-end runs stay in one process.
   Its points count as operations, checked against their in-process
   rows. *)
let grid ?(reps = 8) ?(probe_reps = fleet_reps) cfg =
  let retry = 2 in
  let reference = ref None in
  let probe = if cfg.trace then Some (fleet ~reps:probe_reps ~probe:true cfg) else None in
  let setup () =
    let grid = grid_of (grid_spec ~reps ~seed:cfg.seed) in
    let pts = Sim.Sweep.points grid in
    let jctx = Rows.context grid ~retry in
    let path = fresh_journal cfg "grid" in
    let j, _ = journal_ok "grid" (Sim.Journal.open_ ~expect:jctx ~path ()) in
    Sim.Journal.close j;
    { g_grid = grid; g_pts = pts; g_jctx = jctx; g_path = path }
  in
  let pass c =
    let em = emitted (Array.length c.g_pts) in
    let traced = !Spans.enabled in
    let counters = if traced then Some (Rows.counters ()) else None in
    let on_append =
      if traced then
        Some
          (fun _ ->
            Spans.record "journal.append" ~start:(Spans.last_mark ()) ~stop:(Spans.now ()))
      else None
    in
    let stats, caches =
      Spans.with_ "sweep" (fun () ->
          let r =
            sweep_in_process ?counters ?on_append ~path:c.g_path ~jctx:c.g_jctx ~retry c.g_grid
              c.g_pts em
          in
          close_emit em;
          r)
    in
    fun () ->
      let stats = journal_ok "grid" stats in
      let total = Array.length c.g_pts in
      if stats.executed <> total || stats.skipped <> 0 then
        problem "grid: pass executed %d and skipped %d of %d points" stats.executed stats.skipped
          total;
      let reference =
        match !reference with
        | Some r -> r
        | None ->
          let r = rows_of em in
          reference := Some r;
          r
      in
      let failed = check_rows c.g_pts em ~reference in
      let bytes = (Unix.stat c.g_path).Unix.st_size in
      let replayed = if traced then retime_replay ~jctx:c.g_jctx c.g_path else 0 in
      if traced && replayed <> total then
        problem "grid: replay found %d of %d records" replayed total;
      remove c.g_path;
      let probed = match probe with Some p when traced -> Some (run_probe p) | _ -> None in
      let layers ~sums ~cpu:_ =
        let c = Option.get counters in
        let hits f = List.fold_left (fun a x -> a + f x) 0 caches in
        let hit_ratio h m = ratio (float_of_int (hits h)) (float_of_int (hits h + hits m)) in
        let pts = float_of_int total in
        [
          ("gen.s", sums "gen");
          ("gen.edges_per_s", ratio (float_of_int c.edges) (sums "gen"));
          ("advise.s", sums "advise");
          ("advise.bits", float_of_int c.advise_bits);
          ("harness.s", sums "harness");
          ("harness.events", float_of_int c.events);
          ("harness.minor_words_per_point", c.harness_minor_words /. pts);
          ("verdict.s", sums "verdict");
          ("sweep.self_s", sums "sweep");
          ( "sweep.graph_hit_ratio",
            hit_ratio (fun x -> Sim.Sweep.Cache.hits x.Rows.graphs) (fun x ->
                Sim.Sweep.Cache.misses x.Rows.graphs) );
          ( "sweep.advice_hit_ratio",
            hit_ratio (fun x -> Sim.Sweep.Cache.hits x.Rows.advice) (fun x ->
                Sim.Sweep.Cache.misses x.Rows.advice) );
          ("journal.append_s", sums "journal.append");
          ("journal.bytes_per_point", float_of_int bytes /. pts);
          ("emit.s", sums "emit");
          ("dispatch.spawn_s", sums "dispatch.spawn");
        ]
        @ replay_layers ~sums ~replayed
        @
        match probed with
        | Some (o, cpu) ->
          List.filter
            (fun (name, _) -> name <> "sweep.self_s" && name <> "emit.s")
            (o.layers ~sums ~cpu)
        | None -> []
      in
      let failed =
        failed + match counters with Some c -> c.verdict_mismatches | None -> 0
      in
      let probe_ops, probe_failed =
        match probed with Some (o, _) -> (o.attempted, o.failed) | None -> (0, 0)
      in
      {
        attempted = total + probe_ops;
        failed = failed + probe_failed;
        messages = messages em;
        engine_wall = None;
        layers;
      }
  in
  { setup; fresh_per_pass = true; trace_setup = false; setup_layers = (fun _ ~sums:_ -> []); pass }

(* {1 scale} *)

type scale_ctx = {
  g : Graph.t;
  advice : (Fault.Harness.protocol * Oracles.Advice.t) list;
}

let scale_graph ~n ~seed = Netgraph.Families.build Netgraph.Families.Sparse_random ~n ~seed

let factory = function
  | Fault.Harness.Wakeup -> Oracle_core.Wakeup.scheme ()
  | Fault.Harness.Broadcast -> Oracle_core.Broadcast.scheme ()

let scale ?(n = 200_000) cfg =
  let setup () =
    let g = Spans.with_ "gen" (fun () -> scale_graph ~n ~seed:cfg.seed) in
    let advise proto =
      (proto, Spans.with_ "advise" (fun () -> Fault.Harness.advise proto g ~source:0))
    in
    { g; advice = [ advise Fault.Harness.Wakeup; advise Fault.Harness.Broadcast ] }
  in
  let setup_layers c ~sums =
    [
      ("gen.s", sums "gen");
      ("gen.edges_per_s", ratio (float_of_int (Graph.m c.g)) (sums "gen"));
      ("advise.s", sums "advise");
      ( "advise.bits",
        float_of_int
          (List.fold_left (fun a (_, adv) -> a + Oracles.Advice.size_bits adv) 0 c.advice) );
    ]
  in
  let pass c =
    let n = Graph.n c.g in
    let engine = ref 0. in
    let minor = ref 0. and major = ref 0. in
    let results =
      List.map
        (fun (proto, adv) ->
          let factory = factory proto in
          let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_words in
          let t0 = Unix.gettimeofday () in
          let r =
            Spans.with_ "engine" (fun () ->
                Sim.Runner.run ~scheduler:Sim.Scheduler.Synchronous ~max_messages:(5 * n)
                  ~advice:(Oracles.Advice.get adv) c.g ~source:0 factory)
          in
          engine := !engine +. (Unix.gettimeofday () -. t0);
          minor := !minor +. (Gc.minor_words () -. w0);
          major := !major +. ((Gc.quick_stat ()).Gc.major_words -. m0);
          (proto, adv, r))
        c.advice
    in
    fun () ->
      let failed =
        List.fold_left
          (fun acc (proto, adv, (r : Sim.Runner.result)) ->
            let ok =
              r.all_informed && r.quiescent
              && Rows.within_theorem proto ~n ~messages:r.stats.sent
                   ~advice_bits:(Oracles.Advice.size_bits adv)
            in
            if ok then acc else acc + 1)
          0 results
      in
      let msgs =
        List.fold_left (fun a (_, _, (r : Sim.Runner.result)) -> a + r.stats.sent) 0 results
      in
      (* Scheme initialisation, re-timed: the factory applied to every
         node's static history, as the engine does before round 0. *)
      if !Spans.enabled then
        Spans.with_ "decode" (fun () ->
            List.iter
              (fun (proto, adv) ->
                let factory = factory proto in
                for v = 0 to n - 1 do
                  ignore
                    (Sys.opaque_identity
                       (factory
                          {
                            Sim.History.advice = Oracles.Advice.get adv v;
                            is_source = v = 0;
                            id = Graph.label c.g v;
                            degree = Graph.degree c.g v;
                          }))
                done)
              c.advice);
      let layers ~sums ~cpu:_ =
        let per_msg w = ratio w (float_of_int msgs) in
        [
          ("decode.s", sums "decode");
          ("engine.s", sums "engine");
          ("engine.msgs", float_of_int msgs);
          ("engine.minor_words_per_msg", per_msg !minor);
          ("engine.major_words_per_msg", per_msg !major);
        ]
      in
      {
        attempted = List.length results;
        failed;
        messages = msgs;
        engine_wall = Some !engine;
        layers;
      }
  in
  { setup; fresh_per_pass = false; trace_setup = true; setup_layers; pass }

(* {1 The measurement loop} *)

type report = {
  ops : int;  (** operations attempted, warm-up pass included *)
  failed_ops : int;
  correct : bool;
  metrics : (string * float) list;
  reference_s : float;  (** median reference kernel wall time; 0 in a traced run *)
  reference_cpu_s : float;  (** and CPU time *)
}

(* One timed pass, as the end-to-end metrics need it. *)
type sample = {
  wall : float;
  cpu : float;
  ops : int;
  messages : int;
  engine_wall : float option;
}

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let k = Array.length a in
    if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* How many times a workload that sets up once sets up in a run; the
   median is reported. *)
let upfront_setups = 3

let min_passes = 3

(* The reference kernel's time on the development host (see
   perfbench/README.md).  An untraced run scales its times by
   [reference_nominal /. r], r being the median of the kernel's wall
   times sampled before each of its set-ups and passes, and its CPU
   times by the same ratio for the kernel's CPU times: the times are
   those of a host on which the kernel takes [reference_nominal]
   seconds.  CPU time leaves out what the hypervisor steals and wall
   time does not, so each is scaled by its own kind. *)
let reference_nominal = 0.2

(* Kernel runs before each set-up and pass: one 0.2 s run is noisier
   than a pass, so each gets two. *)
let reference_runs = 2

let run (type ctx) cfg (w : ctx t) =
  let reference = if cfg.trace then None else Some (Host.start_reference cfg.bench_exe) in
  Fun.protect ~finally:(fun () -> Option.iter Host.stop_reference reference) @@ fun () ->
  problems := [];
  let attempted = ref 0 and failed = ref 0 in
  let setup_samples = ref [] in
  (* Per-layer values from traced iterations, newest first. *)
  let layer_values = ref [] in
  let shares = ref [] in
  let spans_sums ~from =
    let sums, sh = Spans.summarize ~from ~upto:(Spans.mark ()) ~root:"pass" in
    ((fun name -> Option.value (Hashtbl.find_opt sums name) ~default:0.), sh)
  in
  (* Reference samples before every set-up and every pass of an
     untraced run, outside their clocks. *)
  let references = ref [] in
  let sample () =
    Option.iter
      (fun r ->
        for _ = 1 to reference_runs do
          references := Host.reference_sample r :: !references
        done)
      reference
  in
  let do_setup () =
    sample ();
    Gc.compact ();
    Spans.enabled := cfg.trace && w.trace_setup;
    let from = Spans.mark () in
    let t0 = Unix.gettimeofday () in
    let c = w.setup () in
    setup_samples := (Unix.gettimeofday () -. t0) :: !setup_samples;
    if !Spans.enabled then begin
      let sums, _ = spans_sums ~from in
      layer_values := w.setup_layers c ~sums :: !layer_values
    end;
    Spans.enabled := false;
    c
  in
  (* Earlier set-ups are dropped at once, so each starts from the same
     heap; the last one is kept. *)
  let once =
    if w.fresh_per_pass then None
    else begin
      for _ = 2 to upfront_setups do
        ignore (do_setup ())
      done;
      Some (do_setup ())
    end
  in
  let pass ~traced =
    let c =
      match once with
      | Some c ->
        sample ();
        c
      | None -> do_setup ()
    in
    Gc.compact ();
    Spans.enabled := traced;
    let from = Spans.mark () in
    let cpu0 = Host.cpu () in
    let t0 = Unix.gettimeofday () in
    let check = Spans.with_ "pass" (fun () -> w.pass c) in
    let wall = Unix.gettimeofday () -. t0 in
    let cpu = Host.cpu () -. cpu0 in
    let o = check () in
    if traced then begin
      let sums, sh = spans_sums ~from in
      layer_values := o.layers ~sums ~cpu :: !layer_values;
      shares := sh @ !shares
    end;
    Spans.enabled := false;
    attempted := !attempted + o.attempted;
    failed := !failed + o.failed;
    (* Keep numbers only: [o] holds the pass's rows and caches. *)
    { wall; cpu; ops = o.attempted; messages = o.messages; engine_wall = o.engine_wall }
  in
  ignore (pass ~traced:false);
  let samples = ref [] and traced_walls = ref [] in
  let start = Unix.gettimeofday () in
  let k = ref 0 in
  let least = if cfg.trace then 2 * min_passes else min_passes in
  while Unix.gettimeofday () -. start < cfg.seconds || !k < least do
    let traced = cfg.trace && !k mod 2 = 1 in
    let s = pass ~traced in
    if traced then traced_walls := s.wall :: !traced_walls else samples := s :: !samples;
    incr k
  done;
  let walls = List.map (fun s -> s.wall) !samples in
  Printf.eprintf "perfbench: %d timed passes, wall s: %s\n%!" (List.length walls)
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") walls));
  if cfg.trace then
    Printf.eprintf "perfbench: traced wall s: %s\n%!"
      (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !traced_walls));
  let reference_s = median (List.map fst !references) in
  let reference_cpu_s = median (List.map snd !references) in
  let metrics =
    if not cfg.trace then begin
      let k = reference_nominal /. reference_s in
      let k_cpu = reference_nominal /. reference_cpu_s in
      Printf.eprintf "perfbench: reference kernel wall/cpu s: %s\n%!"
        (String.concat " "
           (List.rev_map (fun (w, c) -> Printf.sprintf "%.3f/%.3f" w c) !references));
      Printf.eprintf
        "perfbench: reference kernel %.4f s wall, %.4f s cpu (medians of %d); scaled by %.4f, %.4f\n%!"
        reference_s reference_cpu_s (List.length !references) k k_cpu;
      [
        ("wall_s", median walls *. k);
        ("points_per_s", median (List.map (fun s -> float_of_int s.ops /. s.wall) !samples) /. k);
        ( "msgs_per_s",
          median
            (List.map
               (fun s -> float_of_int s.messages /. Option.value s.engine_wall ~default:s.wall)
               !samples)
          /. k );
        ("cpu_s", median (List.map (fun s -> s.cpu) !samples) *. k_cpu);
        ("peak_rss_mb", Host.peak_rss_mb ());
        ("setup_s", median !setup_samples *. k);
      ]
    end
    else
      let value name =
        match List.filter_map (List.assoc_opt name) !layer_values with
        | [] -> 0.
        | vs -> median vs
      in
      List.map
        (fun (name, _) ->
          match name with
          | "trace.explained_share" -> (name, median !shares)
          | "trace.overhead_s" -> (name, median !traced_walls -. median walls)
          | _ -> (name, value name))
        Layers.per_layer
  in
  List.iter (fun p -> prerr_endline ("perfbench: check failed: " ^ p)) (List.rev !problems);
  {
    ops = !attempted;
    failed_ops = !failed;
    correct = !failed = 0 && !problems = [];
    metrics;
    reference_s;
    reference_cpu_s;
  }
