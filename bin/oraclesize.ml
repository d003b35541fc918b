(* Command-line interface to the library: generate networks, run wakeup and
   broadcast with their oracles, measure the separation, and play the
   edge-discovery adversary.

   Every value check lives in its flag's Cmdliner converter (exit 124);
   only the checks that span several flags or need the built graph are
   left, and they go through [usage_error] (exit 2). *)

open Cmdliner
module Graph = Netgraph.Graph
module Families = Netgraph.Families

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

(* {1 Shared arguments} *)

(* The one way to declare a flag: its names, then for a valued flag its
   converter (where every value check lives) and default, then the
   [Arg.info] labels.  Help pages list flags by name, whatever the
   order terms are built in. *)
let opt_arg ?env ?docv names c v ~doc = Arg.(value & opt c v & info names ?env ?docv ~doc)
let flag_arg names ~doc = Arg.(value & flag & info names ~doc)

(* The one way to build a converter: a parser whose errors are messages
   naming the offending text, and the printer that shows a default. *)
let result_conv of_string to_string =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (of_string s)),
      fun fmt v -> Format.pp_print_string fmt (to_string v) )

(* The one ranged-integer parser: [min] (and [max], if given) bound
   the value; unparsable text and out-of-range values are errors naming
   [what] and the offending text. *)
let int_parser ?max ~min what s =
  let must, expected =
    match max with
    | Some hi ->
      (Printf.sprintf "be in %d..%d" min hi, Printf.sprintf "an integer in %d..%d" min hi)
    | None when min = 0 -> ("be non-negative", "a non-negative integer")
    | None when min = 1 -> ("be at least 1", "a positive integer")
    | None -> (Printf.sprintf "be at least %d" min, Printf.sprintf "an integer of at least %d" min)
  in
  match int_of_string_opt (String.trim s) with
  | Some v when v >= min && Option.fold max ~none:true ~some:(fun hi -> v <= hi) -> Ok v
  | Some v -> Error (Printf.sprintf "%s must %s, got %d" what must v)
  | None -> Error (Printf.sprintf "invalid %s %S (expected %s)" what s expected)

let int_conv ?max ~min what = result_conv (int_parser ?max ~min what) string_of_int

(* A [NAME] choice where one name may also carry a seed, [SEEDED:SEED];
   a bare [SEEDED] leaves the seed to [--seed].  The parsed text rides
   along with the typed value so the default prints as written. *)
let seeded_choice_conv ~what choices (seeded, of_seed) =
  let parse s =
    let typed =
      match (List.assoc_opt s choices, String.split_on_char ':' s) with
      | Some v, _ -> Some v
      | None, [ name ] when name = seeded -> Some (of_seed None)
      | None, [ name; k ] when name = seeded ->
        Option.map (fun k -> of_seed (Some k)) (int_of_string_opt k)
      | None, _ -> None
    in
    Option.to_result
      ~none:
        (Printf.sprintf "unknown %s %S (expected %s, %s or %s:SEED)" what s
           (String.concat ", " (List.map fst choices))
           seeded seeded)
      (Option.map (fun v -> (s, v)) typed)
  in
  result_conv parse fst

let family_conv =
  result_conv
    (fun s ->
      Option.to_result (Families.of_name s)
        ~none:
          (Printf.sprintf "unknown family %S (known: %s)" s
             (String.concat ", " (List.map Families.name Families.all))))
    Families.name

let family_arg =
  opt_arg [ "f"; "family" ] family_conv Families.Sparse_random ~docv:"FAMILY"
    ~doc:"Graph family (see $(b,graph --list))."

let n_arg = opt_arg [ "n" ] Arg.int 64 ~docv:"N" ~doc:"Requested node count."
let seed_arg = opt_arg [ "seed" ] Arg.int 42 ~docv:"SEED" ~doc:"Random seed."

let source_arg =
  opt_arg [ "s"; "source" ] Arg.int 0 ~docv:"NODE"
    ~doc:"Source node index, in 0..n-1 for the graph actually built (families round $(b,-n))."

let scheduler_conv =
  result_conv
    (function
      | "sync" -> Ok Sim.Scheduler.Synchronous
      | "fifo" -> Ok Sim.Scheduler.Async_fifo
      | "lifo" -> Ok Sim.Scheduler.Async_lifo
      | s ->
        Option.to_result ~none:"expected sync, fifo, lifo, or an integer seed"
          (Option.map (fun seed -> Sim.Scheduler.Async_random seed) (int_of_string_opt s)))
    Sim.Scheduler.name

let scheduler_arg =
  opt_arg [ "scheduler" ] scheduler_conv Sim.Scheduler.Async_fifo ~docv:"SCHED"
    ~doc:"Delivery discipline: sync, fifo, lifo, or an integer seed for random."

let fault_conv = result_conv Fault.Plan.of_string Fault.Plan.to_string

let fault_arg =
  opt_arg [ "fault" ] (Arg.some fault_conv) None ~docv:"PLAN"
    ~doc:
      "Run adversarially under a fault plan, e.g. $(b,drop=0.1,seed=7), \
       $(b,advice-flip=8), or $(b,crash=3@5,dead=1).  The hardened scheme is used, \
       injected faults are recorded in the trace, and a structured verdict is printed \
       (exit 0 on completed/degraded, 1 on stalled/violated).  See DESIGN.md, section \
       'Fault model and verdicts'."

let protect_conv = result_conv Bitstring.Ecc.of_name Bitstring.Ecc.name

let protect_arg =
  opt_arg [ "protect" ] protect_conv Bitstring.Ecc.Raw ~docv:"LEVEL"
    ~doc:
      "Error-protect every node's advice before the adversary touches it: $(b,raw) \
       (none, default), $(b,crc) (detect), $(b,hamming) (correct one flipped bit), or \
       $(b,repK) (K-repetition majority, e.g. $(b,rep3)).  Only meaningful together \
       with $(b,--fault); the printed oracle size is the protected size actually \
       handed out."

let retry_arg =
  opt_arg [ "retry" ] (int_conv ~min:0 "retry count") 0 ~docv:"N"
    ~doc:
      "Arm the runner's ack/retransmit channel: each message may be retransmitted up \
       to $(docv) times with exponential backoff, and a crashed receiver triggers a \
       link timeout that the hardened schemes answer by re-flooding.  Default 0: \
       recovery off; a negative $(docv) is rejected even where the flag has no \
       effect.  $(b,wakeup) and $(b,broadcast) only use it together with $(b,--fault)."

let positive_float_conv what =
  result_conv
    (fun s ->
      match float_of_string_opt (String.trim s) with
      | Some v when v > 0. && Float.is_finite v -> Ok v
      | Some v -> Error (Printf.sprintf "%s must be positive, got %g" what v)
      | None -> Error (Printf.sprintf "invalid %s %S (expected a positive number)" what s))
    string_of_float

let batch_conv =
  result_conv
    (fun s ->
      match String.trim s with
      | "auto" -> Ok `Auto
      | s when int_of_string_opt s = None ->
        Error (Printf.sprintf "invalid batch size %S (expected a positive integer or 'auto')" s)
      | s -> Result.map (fun b -> `Fixed b) (int_parser ~min:1 "batch size" s))
    (function `Auto -> "auto" | `Fixed b -> string_of_int b)

let token_conv =
  result_conv
    (fun s ->
      if s = "" then Error "token must not be empty"
      else if String.length s > Sim.Worker.max_auth_bytes then
        Error (Printf.sprintf "token longer than %d bytes" Sim.Worker.max_auth_bytes)
      else Ok s)
    Fun.id

let chaos_conv = result_conv Fault.Chaos.of_string Fault.Chaos.to_string

let jobs_arg =
  opt_arg [ "j"; "jobs" ] (Arg.some (int_conv ~min:1 "job count")) None ~docv:"N"
    ~env:
      (Cmd.Env.info "ORACLE_SIZE_JOBS"
         ~doc:"Default worker-domain count when $(b,--jobs) is absent.")
    ~doc:
      "Worker domains for parallel execution.  Defaults to $(b,ORACLE_SIZE_JOBS) when \
       set, else this machine's recommended domain count.  Results are bit-identical \
       for every $(docv); only the wall time changes."

let resolve_jobs = function Some j -> j | None -> Sim.Pool.default_jobs ()

let shards_arg =
  opt_arg [ "shards" ] (int_conv ~min:1 "shard count") 1 ~docv:"N"
    ~env:
      (Cmd.Env.info "ORACLE_SIZE_SHARDS"
         ~doc:"Default shard count when $(b,--shards) is absent.")
    ~doc:
      "Execute one run across $(docv) domains (synchronous scheduler only; asynchronous \
       schedulers always run sequentially).  Defaults to $(b,ORACLE_SIZE_SHARDS) when \
       set, else 1.  Runs with $(b,--trace-out) or $(b,--fault) execute sequentially \
       whatever $(docv) says.  Statistics, traces and verdicts are bit-identical for \
       every $(docv); only the wall time changes."

let suite_flag =
  flag_arg [ "suite" ]
    ~doc:
      "With $(b,--fault): run the plan under every scheduler in the default adversary \
       suite, in parallel across $(b,--jobs) worker domains, and print one verdict \
       row per scheduler.  Overrides $(b,--scheduler); incompatible with \
       $(b,--trace-out) (trace sinks are single-writer)."

let trace_out_arg =
  opt_arg [ "trace-out" ] (Arg.some Arg.string) None ~docv:"FILE"
    ~doc:
      "Write the run's telemetry trace to $(docv) as JSON Lines, one event per line \
       (see DESIGN.md, section 'Telemetry').  Use $(b,-) for standard output."

(* {1 The network a command runs on} *)

(* The graph flags as one term: family, [-n], [--seed] and, for the
   commands that take one, [--source].  Its value builds the network
   when the command runs, after every flag has parsed, so a bad value
   still exits 124 before any work.  Families round [-n], so the source
   is checked against the graph actually built (exit 2). *)
type net = { family : Families.t; seed : int; g : Graph.t; source : int }

let net_term ~source =
  let build family n seed source () =
    let g = Families.build family ~n ~seed in
    (match source with
    | Some s when s < 0 || s >= Graph.n g ->
      usage_error "oraclesize: --source %d is outside the %d-node graph (valid: 0..%d)" s
        (Graph.n g) (Graph.n g - 1)
    | _ -> ());
    { family; seed; g; source = Option.value source ~default:0 }
  in
  let source = if source then Term.(const Option.some $ source_arg) else Term.const None in
  Term.(const build $ family_arg $ n_arg $ seed_arg $ source)

(* A command over a built network: [term] gathers the command's own
   flags and yields its run function. *)
let net_cmd ?(source = true) name ~doc term =
  Cmd.v (Cmd.info name ~doc) Term.(const (fun net run -> run (net ())) $ net_term ~source $ term)

(* {1 The report printer} *)

(* A report row: [row label fmt ...] pairs [label] with the formatted value. *)
let row label fmt = Printf.ksprintf (fun value -> (label, value)) fmt

(* The [network:] row most reports open with. *)
let network { family; g; _ } =
  row "network" "%s, %d nodes, %d edges" (Families.name family) (Graph.n g) (Graph.m g)

(* Print each row as [label: value], the values aligned at column
   [width] (a label too long for it gets one space), then exit 1
   unless [ok]. *)
let report ?(ok = true) ~width rows =
  List.iter (fun (label, value) -> Printf.printf "%-*s%s\n" width (label ^ ": ") value) rows;
  if not ok then exit 1

(* {1 The adversarial path} *)

(* The adversarial path shared by wakeup and broadcast: run the hardened
   harness under the plan and report the verdict. *)
let run_faulty protocol plan ~protect ~retry net ~scheduler sinks =
  let o =
    Fault.Harness.run ~scheduler ~plan ~sinks ~protect ~retry protocol net.g ~source:net.source
  in
  let b = Fault.Harness.budgets ~retry protocol net.g in
  let stats = o.Fault.Harness.result.Sim.Runner.stats in
  let tampered = List.length (List.sort_uniq compare (List.map fst o.tampered)) in
  let raw = protect = Bitstring.Ecc.Raw in
  let recovery =
    row "recovery" "%d retransmissions (budget %d), %d bits corrected at %d nodes"
      stats.Obs.Counting.retransmits b.Fault.Verdict.recovery
      (List.fold_left (fun acc (_, bits) -> acc + bits) 0 o.corrected)
      (List.length o.corrected)
  in
  report ~width:14 ~ok:(Fault.Verdict.acceptable o.verdict)
    ([
       network net;
       row "fault plan" "%s" (Fault.Plan.to_string plan);
       (if raw then row "oracle bits" "%d (after tampering with %d nodes)" o.advice_bits tampered
        else
          row "oracle bits" "%d protected (%s) from %d raw, tampering with %d nodes" o.advice_bits
            (Bitstring.Ecc.name protect) o.raw_advice_bits tampered);
       row "messages" "%d  (clean budget %d, degraded budget %d)" stats.sent b.clean b.degraded;
       row "faults" "%d injected, %d nodes fell back to flooding" stats.faults
         (List.length o.fallbacks);
     ]
    @ (if retry > 0 || not raw then [ recovery ] else [])
    @ [ row "verdict" "%s" (Fault.Verdict.to_string o.verdict) ])

(* [--fault --suite]: the same plan under every scheduler of
   [Sim.Scheduler.default_suite], fanned out over a domain pool.  Advice is a pure
   function of (protocol, graph, source), so it is computed once here and
   shared read-only by every worker; each run protects and corrupts its
   own copy.  Per-run trace sinks are single-writer, so suite mode runs
   without them and prints one verdict row per scheduler instead. *)
let run_faulty_suite protocol plan ~protect ~retry ~jobs net =
  let scheds = Array.of_list Sim.Scheduler.default_suite in
  let raw_advice = Fault.Harness.advise protocol net.g ~source:net.source in
  let results =
    Sim.Sweep.map ~jobs
      ~local:(fun () -> ())
      ~f:(fun () _ scheduler ->
        Fault.Harness.run ~scheduler ~plan ~protect ~retry ~raw_advice protocol net.g
          ~source:net.source)
      scheds
  in
  report ~width:12
    [
      network net;
      row "fault plan" "%s  (%d schedulers, jobs=%d)" (Fault.Plan.to_string plan)
        (Array.length scheds) jobs;
    ];
  Printf.printf "%-18s %9s %7s %11s  %s\n" "scheduler" "messages" "faults" "retransmits"
    "verdict";
  let ok = ref true in
  Array.iteri
    (fun i scheduler ->
      let sched_name = Sim.Scheduler.name scheduler in
      match results.(i) with
      | Error msg ->
        ok := false;
        Printf.printf "%-18s error: %s\n" sched_name msg
      | Ok o ->
        let stats = o.Fault.Harness.result.Sim.Runner.stats in
        if not (Fault.Verdict.acceptable o.verdict) then ok := false;
        Printf.printf "%-18s %9d %7d %11d  %s\n" sched_name stats.Obs.Counting.sent stats.faults
          stats.retransmits (Fault.Verdict.to_string o.verdict))
    scheds;
  if not !ok then exit 1

(* The JSONL sink for [--trace-out], if any; the caller's run function
   receives it open and we close (flush) it afterwards. *)
let with_trace_sinks trace_out f =
  let sink =
    match trace_out with
    | None -> None
    | Some "-" -> Some (Obs.Jsonl.channel_sink stdout)
    | Some file -> (
      try Some (Obs.Jsonl.file_sink file)
      with Sys_error msg -> usage_error "oraclesize: cannot open trace file: %s" msg)
  in
  match sink with
  | None -> f []
  | Some sink -> Fun.protect ~finally:(fun () -> Obs.Sink.close sink) (fun () -> f [ sink ])

(* wakeup and broadcast: one command shape over [protocol], differing
   only in the clean run.  The flag combinations are checked before the
   graph is built.  With --fault the hardened protocol runs through the
   harness (under every scheduler with --suite); without it, [clean opt
   ~scheduler ~shards ~sinks net] runs under the --trace-out sinks and
   returns the run and its report rows, printed once the sinks are
   closed. *)
let protocol_cmd name ~doc protocol opt_term clean =
  let run scheduler opt shards fault protect retry suite jobs trace_out net =
    if suite && fault = None then
      usage_error "oraclesize: --suite is only meaningful together with --fault";
    if suite && trace_out <> None then
      usage_error "oraclesize: --suite and --trace-out cannot be combined";
    let net = net () in
    match fault with
    | Some plan when suite ->
      run_faulty_suite protocol plan ~protect ~retry ~jobs:(resolve_jobs jobs) net
    | Some plan ->
      with_trace_sinks trace_out (run_faulty protocol plan ~protect ~retry net ~scheduler)
    | None ->
      let (r : Sim.Runner.result), rows =
        with_trace_sinks trace_out (fun sinks -> clean opt ~scheduler ~shards ~sinks net)
      in
      report ~width:14 ~ok:r.all_informed (network net :: rows)
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ scheduler_arg $ opt_term $ shards_arg $ fault_arg $ protect_arg $ retry_arg
      $ suite_flag $ jobs_arg $ trace_out_arg $ net_term ~source:true)

(* {1 The report commands} *)

let graph_cmd =
  let list_flag = flag_arg [ "list" ] ~doc:"List the known graph families and exit." in
  let dump_flag = flag_arg [ "dump" ] ~doc:"Print the edge list." in
  let run list_families dump net =
    if list_families then List.iter (fun f -> print_endline (Families.name f)) Families.all
    else begin
      let { family; g; _ } = net () in
      report ~width:10
        [
          row "family" "%s" (Families.name family);
          row "nodes" "%d" (Graph.n g);
          row "edges" "%d" (Graph.m g);
          row "diameter" "%d" (Netgraph.Traverse.diameter g);
          row "map size" "%d bits (full-topology encoding)" (Netgraph.Codec.encoded_bits g);
        ];
      if dump then print_string (Graph.to_edge_list_string g)
    end
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Generate a port-labeled network and print statistics.")
    Term.(const run $ list_flag $ dump_flag $ net_term ~source:false)

let wakeup_cmd =
  let encoding_arg =
    opt_arg [ "encoding" ]
      (Arg.enum
         Oracle_core.Wakeup.[ ("paper", Paper); ("minimal", Paper_minimal); ("gamma", Gamma) ])
      Oracle_core.Wakeup.Paper
      ~docv:"ENC" ~doc:"Advice encoding: paper, minimal, or gamma."
  in
  protocol_cmd "wakeup" ~doc:"Run the Theorem 2.1 wakeup oracle and scheme."
    Fault.Harness.Wakeup encoding_arg (fun encoding ~scheduler ~shards ~sinks { g; source; _ } ->
      let o = Oracle_core.Wakeup.run ~encoding ~scheduler ~sinks ~shards g ~source in
      let r = o.Oracle_core.Wakeup.result and n = Graph.n g in
      ( r,
        [
          row "oracle bits" "%d  (Theorem 2.1 budget %d)" o.advice_bits
            (Oracle_core.Bounds.wakeup_advice_upper ~n);
          row "messages" "%d  (optimal: %d)" r.stats.Obs.Counting.sent (n - 1);
          row "all awake" "%b" r.all_informed;
        ] ))

let broadcast_cmd =
  let tree_conv =
    result_conv
      (function
        | "light" -> Ok ("light", fun g ~root -> Netgraph.Spanning.light g ~root)
        | "bfs" -> Ok ("bfs", fun g ~root -> Netgraph.Spanning.bfs g ~root)
        | "dfs" -> Ok ("dfs", fun g ~root -> Netgraph.Spanning.dfs g ~root)
        | s -> Error (Printf.sprintf "unknown tree %S (light|bfs|dfs)" s))
      fst
  in
  let tree_arg =
    opt_arg [ "tree" ] tree_conv ("light", fun g ~root -> Netgraph.Spanning.light g ~root)
      ~docv:"TREE" ~doc:"Spanning tree: light (Claim 3.1, default), bfs, or dfs."
  in
  protocol_cmd "broadcast" ~doc:"Run the Theorem 3.1 broadcast oracle and Scheme B."
    Fault.Harness.Broadcast tree_arg
    (fun (tree_name, tree) ~scheduler ~shards ~sinks { g; source; _ } ->
      let o = Oracle_core.Broadcast.run ~tree ~scheduler ~sinks ~shards g ~source in
      let r = o.Oracle_core.Broadcast.result and n = Graph.n g in
      ( r,
        [
          row "tree" "%s (contribution %d, Claim 3.1 budget %d)" tree_name o.tree_contribution
            (4 * n);
          row "oracle bits" "%d  (Theorem 3.1 budget %d)" o.advice_bits (8 * n);
          row "messages" "%d = %d source + %d hello  (budget < %d)" r.stats.Obs.Counting.sent
            r.stats.source_sent r.stats.hello_sent (3 * n);
          row "all informed" "%b" r.all_informed;
        ] ))

let separation_cmd =
  let ns_arg =
    opt_arg [ "ns" ] (Arg.list Arg.int) [ 64; 128; 256; 512; 1024 ] ~docv:"N,N,..."
      ~doc:"Node counts to sweep."
  in
  let run family ns seed =
    Printf.printf "%-14s %6s %12s %12s %8s\n" "family" "n" "wakeup bits" "bcast bits" "ratio";
    List.iter
      (fun (m : Oracle_core.Separation.measurement) ->
        Printf.printf "%-14s %6d %12d %12d %8.2f\n" m.family m.n m.wakeup_bits m.broadcast_bits
          m.bits_ratio)
      (Oracle_core.Separation.sweep family ~ns ~seed)
  in
  Cmd.v
    (Cmd.info "separation" ~doc:"Measure the wakeup/broadcast oracle-size separation.")
    Term.(const run $ family_arg $ ns_arg $ seed_arg)

let adversary_cmd =
  let x_arg = opt_arg [ "x" ] Arg.int 2 ~docv:"X" ~doc:"Number of special edges |X|."
  in
  let count_arg =
    opt_arg [ "sample" ] (int_conv ~min:0 "sample count") 0 ~docv:"COUNT"
      ~doc:"Sample COUNT instances instead of full enumeration (0 = enumerate)."
  in
  let strategy_arg =
    opt_arg [ "strategy" ]
      (seeded_choice_conv ~what:"strategy" [ ("sequential", `Sequential) ]
         ("random", fun s -> `Random s))
      ("sequential", `Sequential)
      ~docv:"STRAT"
      ~doc:"Probing strategy: sequential, or random[:SEED] (default seed: $(b,--seed))."
  in
  let run n x count (_, strategy) seed =
    let module E = Oracle_core.Edge_discovery in
    let instances =
      if count = 0 then E.enumerate_instances ~n ~x_size:x ~excluded:[]
      else
        List.sort_uniq compare
          (E.sample_instances ~n ~x_size:x ~excluded:[] ~count (Random.State.make [| seed |]))
    in
    let strategy =
      match strategy with
      | `Sequential -> E.sequential
      | `Random s -> E.random_strategy ~seed:(Option.value s ~default:seed)
    in
    let out = E.play (E.adversary instances) strategy in
    report ~width:0
      [
        row "instances" "%d" (List.length instances);
        row "Lemma 2.1 bound" "%.2f" out.E.bound;
        row (Printf.sprintf "probes used (%s)" strategy.E.strategy_name) "%d" out.probes_used;
      ];
    List.iter (fun ((u, v), l) -> Printf.printf "  special {%d,%d} with label %d\n" u v l) out.found
  in
  Cmd.v
    (Cmd.info "adversary" ~doc:"Play a discovery strategy against the Lemma 2.1 adversary.")
    Term.(const run $ n_arg $ x_arg $ count_arg $ strategy_arg $ seed_arg)

let gossip_cmd =
  let flooding_flag =
    flag_arg [ "flooding" ] ~doc:"Run the advice-free flooding baseline instead."
  in
  let run scheduler flooding trace_out ({ g; source; _ } as net) =
    let o =
      with_trace_sinks trace_out (fun sinks ->
          if flooding then Oracle_core.Gossip.run_flooding ~scheduler ~sinks g ~source
          else Oracle_core.Gossip.run ~scheduler ~sinks g ~source)
    in
    let stats = o.Oracle_core.Gossip.result.Sim.Runner.stats in
    report ~width:14 ~ok:o.complete
      [
        network net;
        row "oracle bits" "%d" o.advice_bits;
        row "messages" "%d (tree gossip optimum: %d)" stats.Obs.Counting.sent (2 * (Graph.n g - 1));
        row "bits on wire" "%d" stats.bits_on_wire;
        row "complete" "%b" o.complete;
      ]
  in
  net_cmd "gossip" ~doc:"All-to-all rumor exchange with tree advice (or flooding)."
    Term.(const run $ scheduler_arg $ flooding_flag $ trace_out_arg)

let explore_cmd =
  let program_arg =
    opt_arg [ "program" ]
      (seeded_choice_conv ~what:"program"
         [ ("dfs", `Dfs); ("rotor", `Rotor); ("guided", `Guided) ]
         ("random", fun s -> `Random s))
      ("dfs", `Dfs)
      ~docv:"PROG" ~doc:"Exploration program: dfs, rotor, random[:SEED], or guided."
  in
  let run (_, program) ({ g; source; seed; _ } as net) =
    let m = Graph.m g in
    let d = Netgraph.Traverse.diameter g in
    let no_advice = Bitstring.Bitbuf.create () in
    let program, advice, budget =
      match program with
      | `Dfs -> (Agent.Explore.dfs, no_advice, None)
      | `Rotor -> (Agent.Explore.rotor_router, no_advice, Some ((4 * m * (d + 1)) + (2 * m)))
      | `Random s ->
        ( Agent.Explore.random_walk ~seed:(Option.value s ~default:seed),
          no_advice,
          Some (200 * m * Graph.n g) )
      | `Guided -> (Agent.Explore.guided, Agent.Explore.route_advice g ~start:source, None)
    in
    let o = Agent.Walker.run ?max_moves:budget ~advice g ~start:source program in
    report ~width:10 ~ok:o.Agent.Walker.covered
      [
        row "network" "%s, diameter %d" (snd (network net)) d;
        row "program" "%s (advice %d bits)" program.Agent.Walker.program_name
          (Bitstring.Bitbuf.length advice);
        row "moves" "%d (cover at %s)" o.moves
          (match o.moves_to_cover with Some c -> string_of_int c | None -> "never");
        row "covered" "%b, halted: %b" o.covered o.halted;
      ]
  in
  net_cmd "explore" ~doc:"Explore the network with a mobile agent." Term.(const run $ program_arg)

let radio_cmd =
  let protocol_arg =
    opt_arg [ "protocol" ]
      (seeded_choice_conv ~what:"protocol"
         [ ("round-robin", `Round_robin); ("scheduled", `Scheduled) ]
         ("decay", fun s -> `Decay s))
      ("decay", `Decay None)
      ~docv:"PROTO" ~doc:"Radio protocol: round-robin, decay[:SEED], or scheduled."
  in
  let run (_, protocol) { family; g; source; seed } =
    let no_advice _ = Bitstring.Bitbuf.create () in
    let protocol, advice, advice_bits =
      match protocol with
      | `Round_robin -> (Radio.Protocols.round_robin, no_advice, 0)
      | `Decay s -> (Radio.Protocols.decay ~seed:(Option.value s ~default:seed), no_advice, 0)
      | `Scheduled ->
        let a = Radio.Protocols.schedule_oracle g ~source in
        (Radio.Protocols.scheduled, Oracles.Advice.get a, Oracles.Advice.size_bits a)
    in
    let r = Radio.Model.run ~advice g ~source protocol in
    report ~width:15 ~ok:r.Radio.Model.all_informed
      [
        row "network" "%s, %d nodes, diameter %d" (Families.name family) (Graph.n g)
          (Netgraph.Traverse.diameter g);
        row "protocol" "%s (advice %d bits)" protocol.Radio.Model.protocol_name advice_bits;
        row "rounds" "%d" r.rounds;
        row "transmissions" "%d, collisions: %d" r.transmissions r.collisions;
        row "all informed" "%b" r.all_informed;
      ]
  in
  net_cmd "radio" ~doc:"Broadcast in the radio (collision) model." Term.(const run $ protocol_arg)

let mst_cmd =
  let advised_flag =
    flag_arg [ "advised" ] ~doc:"Use the MST-ports oracle instead of running Boruvka."
  in
  let run advised ({ g; _ } as net) =
    let o =
      if advised then Syncnet.Boruvka.advised_build g else Syncnet.Boruvka.distributed_build g
    in
    report ~width:13 ~ok:o.Syncnet.Boruvka.matches_reference
      [
        network net;
        row "oracle bits" "%d" o.advice_bits;
        row "messages" "%d over %d synchronous rounds" o.result.Syncnet.Model.messages
          o.result.rounds;
        row "tree weight" "%s"
          (match o.edges with Some es -> string_of_int (Netgraph.Mst.weight g es) | None -> "-");
        row "matches centralized Kruskal" "%b" o.matches_reference;
      ]
  in
  net_cmd ~source:false "mst"
    ~doc:"Build the minimum spanning tree (distributed Boruvka or oracle)."
    Term.(const run $ advised_flag)

let spanner_cmd =
  let stretch_arg =
    opt_arg [ "t"; "stretch" ] (int_conv ~min:1 "stretch factor") 3 ~docv:"T"
      ~doc:"Stretch factor t >= 1."
  in
  let run stretch ({ g; _ } as net) =
    let o = Oracle_core.Spanner.measure g ~stretch in
    report ~width:16 ~ok:o.Oracle_core.Spanner.valid
      [
        network net;
        row "stretch target" "%d" o.stretch;
        row "edges kept" "%d of %d" o.edges_kept (Graph.m g);
        row "oracle bits" "%d" o.advice_bits;
        row "worst stretch" "%.1f (valid: %b)" o.measured_stretch o.valid;
      ]
  in
  net_cmd ~source:false "spanner" ~doc:"Build a greedy t-spanner and its port oracle."
    Term.(const run $ stretch_arg)

(* {1 sweep} *)

let grid_conv = result_conv Fault.Sweep_point.parse_grid Sim.Sweep.to_string

(* A point run by a worker or the dispatch fallback: a raise becomes
   the task's error string instead of taking the process down. *)
let execute_or_error grid ~protect ~retry caches p =
  match Fault.Sweep_point.execute grid ~protect ~retry caches p with
  | entry -> Ok entry
  | exception e -> Error (Printexc.to_string e)

(* mkdir -p: CI points --worker-logs at nested per-scenario dirs. *)
let rec mkdirs d =
  try Unix.mkdir d 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | Unix.Unix_error (Unix.ENOENT, _, _) when Filename.dirname d <> d ->
    mkdirs (Filename.dirname d);
    Unix.mkdir d 0o755

(* The dispatch flags as one term: where a sweep's points execute.
   A bad value fails in its converter, and the batch clamp order through
   [Term.ret] (exit 124); a flag that needs one that is missing is a
   usage error (exit 2).  [start] runs once the grid is known: [None]
   is the in-process [--jobs] pool, chosen when no worker is asked for,
   or when none spawned and none can connect; [Some d] is a built
   dispatch over subprocess and/or remote TCP workers.  The raw batch
   flags stay for the --stats-out report. *)
type dispatch = {
  workers : int;
  batch : [ `Auto | `Fixed of int ];
  batch_min : int;
  batch_max : int;
  start :
    context:Sim.Journal.context ->
    fallback:(int -> (Sim.Journal.entry, string) result) ->
    Sim.Dispatch.t option;
}

let dispatch_term =
  let workers_arg =
    opt_arg [ "workers" ] (int_conv ~min:0 "worker count") 0 ~docv:"N"
      ~doc:
        "Execute points across $(docv) subprocess workers instead of in-process \
         domains (0, the default: in-process $(b,--jobs) pool).  Workers speak a \
         CRC-checked frame protocol over pipes, heartbeat before every task, and are \
         crash-stop: a worker that dies, hangs, or corrupts its stream is killed and \
         its tasks reassigned to survivors with backoff; if every worker dies the \
         remainder runs in-process.  Output and journal bytes are identical at every \
         $(docv) and under any $(b,--chaos) schedule."
  in
  let chaos_arg =
    opt_arg [ "chaos" ] (Arg.some chaos_conv) None ~docv:"SPEC"
      ~doc:
        "Testing knob for the fault-tolerance gate: inject deterministic worker \
         faults, e.g. $(b,kill:worker=2,after=5;hang:worker=0,after=9) or \
         $(b,garbage:worker=1,after=3;seed=7).  Faults fire by completed-task count, \
         so a schedule reproduces exactly.  Requires $(b,--workers)."
  in
  let heartbeat_timeout_arg =
    opt_arg [ "heartbeat-timeout" ]
      (positive_float_conv "heartbeat timeout")
      Sim.Dispatch.default_heartbeat_timeout
      ~docv:"SECS"
      ~doc:
        "Declare a worker crashed after $(docv) seconds of silence.  Workers beat \
         before each task, so this bounds one task's compute time, not a whole \
         batch's.  Over TCP this is also the partition detector: a peer silent past \
         the deadline is condemned and its tasks reassigned, while a merely slow link \
         that still beats in time costs nothing."
  in
  let batch_arg =
    opt_arg [ "batch" ] batch_conv (`Fixed Sim.Dispatch.default_batch) ~docv:"N|auto"
      ~doc:
        "Task indices per worker batch (work-stealing granularity), or $(b,auto) for \
         throughput-adaptive sizing: each worker's next batch is sized from an EWMA of \
         its observed task rate, clamped to [$(b,--batch-min), $(b,--batch-max)], and \
         idle workers speculatively re-execute a straggler's in-flight tail \
         (first-result-wins keeps output bytes identical to any fixed batch)."
  in
  let batch_min_arg =
    opt_arg [ "batch-min" ] (int_conv ~min:1 "minimum batch size") Sim.Dispatch.default_min_batch
      ~docv:"N"
      ~doc:
        "Lower clamp (and initial probe size) for $(b,--batch auto).  Must be at least \
         1 and at most $(b,--batch-max)."
  in
  let batch_max_arg =
    opt_arg [ "batch-max" ] (int_conv ~min:1 "maximum batch size") Sim.Dispatch.default_max_batch
      ~docv:"N" ~doc:"Upper clamp for $(b,--batch auto)."
  in
  (* The clamp order spans two flags but is still a bad value, so it
     fails like one (exit 124) through Term.ret. *)
  let batch_term =
    let check batch batch_min batch_max =
      if batch_min > batch_max then
        `Error (false, Printf.sprintf "--batch-min %d exceeds --batch-max %d" batch_min batch_max)
      else `Ok (batch, batch_min, batch_max)
    in
    Term.(ret (const check $ batch_arg $ batch_min_arg $ batch_max_arg))
  in
  let listen_arg =
    opt_arg [ "listen" ] (Arg.some (int_conv ~min:1 ~max:0xffff "port")) None ~docv:"PORT"
      ~doc:
        "Accept remote workers on TCP $(docv) alongside (or instead of) $(b,--workers) \
         subprocesses.  Start them with $(b,oraclesize worker --connect HOST:PORT); \
         peers must present the same $(b,--token).  Output bytes are identical at any \
         local/remote mix, under partitions, and across worker rejoins."
  in
  let token_arg =
    opt_arg [ "token" ] (Arg.some token_conv) None ~docv:"SECRET"
      ~doc:
        "Shared-secret authentication token for $(b,--listen).  A connecting worker \
         whose hello does not carry exactly this token is disconnected before any \
         sweep state is sent to it.  Default: empty (only workers announcing an empty \
         token are accepted)."
  in
  let expect_remote_arg =
    opt_arg [ "expect-remote" ] (int_conv ~min:0 "remote worker count") 0 ~docv:"N"
      ~doc:
        "Hold the handshake barrier until $(docv) remote workers have joined (or a \
         grace of 3× the heartbeat timeout expires), so chaos fault placement is \
         reproducible across the remote fleet.  Requires $(b,--listen)."
  in
  let worker_logs_arg =
    opt_arg [ "worker-logs" ] (Arg.some Arg.string) None ~docv:"DIR"
      ~doc:
        "Redirect each worker's stderr to $(docv)/worker-<id>.log (directory created \
         if missing) instead of inheriting this process's stderr."
  in
  let make workers chaos heartbeat_timeout (batch, batch_min, batch_max) listen token
      expect_remote worker_logs =
    if chaos <> None && workers = 0 then
      usage_error
        "oraclesize sweep: --chaos requires --workers (remote workers take their own --chaos \
         on their command line)";
    if token <> None && listen = None then
      usage_error "oraclesize sweep: --token requires --listen";
    if expect_remote > 0 && listen = None then
      usage_error "oraclesize sweep: --expect-remote requires --listen";
    let token = Option.value token ~default:"" in
    (* Each local worker is this executable's hidden [worker] command. *)
    let command ~id =
      Array.concat
        [
          [| Sys.executable_name; "worker"; "--id"; string_of_int id |];
          (if token = "" then [||] else [| "--token"; token |]);
          (match chaos with None -> [||] | Some c -> [| "--chaos"; Fault.Chaos.to_string c |]);
        ]
    in
    let start ~context ~fallback =
      if workers = 0 && listen = None then None
      else begin
        Option.iter
          (fun dir ->
            try mkdirs dir
            with Unix.Unix_error (e, _, _) ->
              usage_error "oraclesize sweep: cannot create --worker-logs %s: %s" dir
                (Unix.error_message e))
          worker_logs;
        let listener =
          Option.map
            (fun port ->
              match Sim.Transport.listen ~port () with
              | Ok l -> l
              | Error e -> usage_error "oraclesize sweep: %s" e)
            listen
        in
        let batching =
          match batch with
          | `Fixed n -> Sim.Dispatch.Fixed n
          | `Auto -> Sim.Dispatch.Auto { min_batch = batch_min; max_batch = batch_max }
        in
        let d =
          Sim.Dispatch.create ~workers ~batching ~heartbeat_timeout ~token ?listener
            ~expect_remote ?stderr_dir:worker_logs
            ~log:(fun m -> Printf.eprintf "sweep: %s\n%!" m)
            ~command ~context ~fallback ()
        in
        if Sim.Dispatch.live_workers d = 0 && listener = None then begin
          Printf.eprintf "sweep: no workers spawned; degrading to the in-process pool\n%!";
          Sim.Dispatch.shutdown d;
          None
        end
        else Some d
      end
    in
    { workers; batch; batch_min; batch_max; start }
  in
  Term.(
    const make $ workers_arg $ chaos_arg $ heartbeat_timeout_arg $ batch_term $ listen_arg
    $ token_arg $ expect_remote_arg $ worker_logs_arg)

(* The dispatch's counters, read after shutdown (which counts the
   workers it finds dead), as stderr lines. *)
let log_dispatch_stats d =
  let s = Sim.Dispatch.stats d in
  Printf.eprintf
    "sweep: workers spawned=%d connected=%d died=%d auth-failures=%d rate-limited=%d \
     reassigned-batches=%d inline-tasks=%d\n"
    s.spawned s.connected s.died s.auth_failures s.rate_limited s.reassigned s.inline_tasks;
  List.iter
    (fun (w : Sim.Dispatch.worker_stat) ->
      Printf.eprintf
        "sweep: worker %d: tasks=%d wins=%d rate=%.1f/s batches=%d speculative=%d \
         spec-wins=%d reported=%d\n"
        w.worker w.tasks w.wins w.rate w.batches w.speculative w.spec_wins w.reported)
    (Sim.Dispatch.worker_stats d)

(* The --stats-out JSON report.  The in-process pool reports zero
   counters, so tooling can parse wall_seconds whatever the topology. *)
let write_stats_out file dispatch ~wall ~cpu dispatched =
  let (s : Sim.Dispatch.stats), ws =
    match dispatched with
    | Some d -> (Sim.Dispatch.stats d, Sim.Dispatch.worker_stats d)
    | None ->
      ( {
          spawned = 0;
          spawn_failures = 0;
          connected = 0;
          auth_failures = 0;
          rate_limited = 0;
          died = 0;
          reassigned = 0;
          inline_tasks = 0;
        },
        [] )
  in
  let sum f = List.fold_left (fun a (w : Sim.Dispatch.worker_stat) -> a + f w) 0 ws in
  let batch_json =
    match dispatch.batch with `Fixed n -> string_of_int n | `Auto -> "\"auto\""
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "{\"schema\":\"oracle-size/worker-stats/v1\",\"workers\":%d,\"batch\":%s,\"batch_min\":%d,\"batch_max\":%d,\"wall_seconds\":%.6f,\"cpu_seconds\":%.6f,\"spawned\":%d,\"connected\":%d,\"died\":%d,\"auth_failures\":%d,\"rate_limited\":%d,\"reassigned\":%d,\"inline_tasks\":%d,\"speculative_batches\":%d,\"speculative_wins\":%d,\"worker_stats\":["
    dispatch.workers batch_json dispatch.batch_min dispatch.batch_max wall cpu s.spawned
    s.connected s.died s.auth_failures s.rate_limited s.reassigned s.inline_tasks
    (sum (fun w -> w.speculative))
    (sum (fun w -> w.spec_wins));
  List.iteri
    (fun i (w : Sim.Dispatch.worker_stat) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"worker\":%d,\"tasks\":%d,\"wins\":%d,\"ewma_tput\":%.3f,\"batches\":%d,\"speculative\":%d,\"spec_wins\":%d,\"reported\":%d}"
        w.worker w.tasks w.wins w.rate w.batches w.speculative w.spec_wins w.reported)
    ws;
  Buffer.add_string b "]}\n";
  try
    let oc = open_out file in
    Buffer.output_buffer oc b;
    close_out oc
  with Sys_error msg -> usage_error "oraclesize sweep: cannot write --stats-out: %s" msg

let sweep_cmd =
  let default_grid =
    match Sim.Sweep.of_string "" with Ok g -> g | Error _ -> assert false
  in
  let grid_arg =
    Arg.(
      value
      & pos 0 grid_conv default_grid
      & info [] ~docv:"GRID"
          ~doc:
            "Grid spec: axes separated by $(b,;), values by $(b,,) — except plans, \
             separated by $(b,|).  E.g. \
             $(b,protocols=wakeup;families=sparse-random;ns=24,64;scheds=sync,async-fifo;plans=none|drop=0.1,seed=7;reps=2;seed=42). \
             Omitted axes default to protocols=wakeup,broadcast families=sparse-random \
             ns=64 scheds=async-fifo plans=none reps=1 seed=42.")
  in
  let out_arg =
    opt_arg [ "out" ] Arg.string "-" ~docv:"FILE"
      ~doc:
        "Write one JSON line per grid point to $(docv) ($(b,-), the default: standard \
         output).  Rows are emitted in canonical grid order after the parallel run \
         joins, so the file is byte-identical for every $(b,--jobs)."
  in
  let journal_out_arg =
    opt_arg [ "journal" ] (Arg.some Arg.string) None ~docv:"FILE"
      ~doc:
        "Journal completed points to $(docv) (format: docs/JOURNAL_FORMAT.md) and make \
         the sweep resumable: each point's result is appended and flushed before the \
         sweep moves on, and re-running the same sweep with the same journal skips \
         every point already on disk.  A torn tail left by a crash is detected and \
         truncated on open; a journal written for a different grid or \
         $(b,--protect)/$(b,--retry) is refused.  The final JSONL is byte-identical \
         to an uninterrupted run at every $(b,--jobs)."
  in
  let crash_after_arg =
    opt_arg [ "crash-after" ] (Arg.some (int_conv ~min:1 "record count")) None ~docv:"N"
      ~doc:
        "Testing knob for the crash-safety gate: kill this process with SIGKILL — no \
         cleanup, no flush beyond the journal's own — immediately after the $(docv)-th \
         record of this run becomes durable.  Requires $(b,--journal)."
  in
  let stats_out_arg =
    opt_arg [ "stats-out" ] (Arg.some Arg.string) None ~docv:"FILE"
      ~doc:
        "Write a JSON scheduler report to $(docv) after the sweep: wall time, the \
         lifecycle counters from the stats line, and a $(b,worker_stats) block with \
         per-worker tasks, EWMA throughput, batches issued, and speculative wins.  \
         Kept out of the row stream so the JSONL stays byte-identical across \
         schedulers."
  in
  (* The declarative grid runner: the cross product of (protocol × plan ×
     family × n × scheduler × rep), executed over a domain pool with
     per-worker graph and advice caches, one adversarial harness run per
     point, or over dispatched workers through the same chunked
     journaled core.  Every seed derives from grid coordinates, results
     land in pre-sized slots, and rows are serialized in one ordered
     pass after the join — the JSONL is byte-identical at -j 1 and -j 8,
     at any worker count, resumed or not.  Verdict classes are data, not
     failures: the exit status is 0 as long as every point executed (2
     on a bad spec or unusable journal, 1 if a point raised). *)
  let run grid out journal crash_after protect retry jobs stats_out dispatch =
    if crash_after <> None && journal = None then
      usage_error "oraclesize sweep: --crash-after requires --journal";
    let jobs = resolve_jobs jobs in
    let pts = Sim.Sweep.points grid in
    let on_append =
      Option.map
        (fun limit appended ->
          if appended >= limit then begin
            flush stderr;
            Unix.kill (Unix.getpid ()) Sys.sigkill
          end)
        crash_after
    in
    let buf = Buffer.create 4096 in
    let graceful = ref 0 in
    let emit_row p e =
      if Sim.Journal.graceful e then incr graceful;
      Buffer.add_string buf (Fault.Sweep_point.row p e);
      Buffer.add_char buf '\n'
    in
    let context =
      {
        Sim.Journal.spec = Sim.Sweep.to_string grid;
        extra = Fault.Sweep_point.context ~protect ~retry;
      }
    in
    (* Lazy so the in-process caches are only built if degradation
       actually happens. *)
    let fallback_caches = lazy (Fault.Sweep_point.caches ()) in
    let fallback i = execute_or_error grid ~protect ~retry (Lazy.force fallback_caches) pts.(i) in
    let wall0 = Unix.gettimeofday () in
    let cpu0 = Sys.time () in
    let dispatched = dispatch.start ~context ~fallback in
    let outcome =
      match dispatched with
      | None ->
        Sim.Sweep.run_journaled ~jobs ?journal ~context:context.extra ?on_append
          ~local:Fault.Sweep_point.caches
          ~f:(Fault.Sweep_point.execute grid ~protect ~retry)
          ~emit:emit_row grid
      | Some d ->
        (* Appends and emission stay in canonical order on this process,
           so the bytes match the in-process path exactly. *)
        Fun.protect
          ~finally:(fun () -> Sim.Dispatch.shutdown d)
          (fun () ->
            Sim.Sweep.map_journaled_via
              ?journal:(Option.map (fun path -> (path, context)) journal)
              ?on_append
              ~key:(fun p -> p.Sim.Sweep.seed)
              ~run:(Sim.Dispatch.run d)
              ~emit:(fun _i p e -> emit_row p e)
              pts)
    in
    Option.iter log_dispatch_stats dispatched;
    let wall = Unix.gettimeofday () -. wall0 in
    let cpu = Sys.time () -. cpu0 in
    Option.iter (fun file -> write_stats_out file dispatch ~wall ~cpu dispatched) stats_out;
    match outcome with
    | Error msg -> usage_error "oraclesize sweep: %s" msg
    | Ok stats ->
      List.iter
        (fun (i, msg) ->
          Printf.eprintf "oraclesize sweep: point %s raised: %s\n"
            (Sim.Sweep.point_label pts.(i)) msg)
        stats.Sim.Sweep.failed;
      let oc, finish =
        match out with
        | "-" -> (stdout, fun () -> flush stdout)
        | file -> (
          try
            let oc = open_out file in
            (oc, fun () -> close_out oc)
          with Sys_error msg -> usage_error "oraclesize sweep: cannot open output file: %s" msg)
      in
      Buffer.output_buffer oc buf;
      finish ();
      (match (journal, stats.Sim.Sweep.recovery) with
      | Some path, Some r ->
        Printf.eprintf
          "sweep: journal %s: replayed %d, skipped %d, executed %d (torn %d bytes, %d \
           duplicates)\n"
          path r.Sim.Journal.replayed stats.Sim.Sweep.skipped stats.Sim.Sweep.executed
          r.Sim.Journal.torn_bytes r.Sim.Journal.duplicates
      | _ -> ());
      Printf.eprintf "sweep: %d points, %d graceful, %d not, jobs=%d wall=%.2fs cpu=%.2fs\n"
        (Array.length pts) !graceful
        (Array.length pts - List.length stats.Sim.Sweep.failed - !graceful)
        jobs wall cpu;
      if stats.Sim.Sweep.failed <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a declarative experiment grid (protocol × plan × family × n × scheduler × \
          rep) in parallel, one JSON row per point; $(b,--journal) makes it crash-safe \
          and resumable.")
    Term.(
      const run $ grid_arg $ out_arg $ journal_out_arg $ crash_after_arg $ protect_arg
      $ retry_arg $ jobs_arg $ stats_out_arg $ dispatch_term)

(* {1 journal} *)

(* Open a journal for inspection.  Opening recovers: a torn tail is
   truncated even on the read paths (ls/verify), which keeps the
   recovery rule single — docs/JOURNAL_FORMAT.md, 'Recovery'. *)
let open_journal_or_die path =
  match Sim.Journal.open_ ~path () with
  | Error msg -> usage_error "oraclesize journal: %s" msg
  | Ok (j, stats) ->
    Sim.Journal.close j;
    (j, stats)

(* Rebuild the (grid, protect, retry, seed → point) world a journal was
   written for, from its own superblock — ls and verify are
   self-contained: the journal file is their only input. *)
let journal_world j =
  let ctx = Sim.Journal.context j in
  let grid =
    match Fault.Sweep_point.parse_grid ctx.Sim.Journal.spec with
    | Ok g -> g
    | Error m -> usage_error "oraclesize journal: superblock spec does not parse: %s" m
  in
  let protect, retry =
    match Fault.Sweep_point.parse_context ctx.Sim.Journal.extra with
    | Ok pr -> pr
    | Error m -> usage_error "oraclesize journal: %s" m
  in
  let pts = Sim.Sweep.points grid in
  let by_seed = Hashtbl.create (Array.length pts) in
  Array.iter (fun p -> Hashtbl.replace by_seed p.Sim.Sweep.seed p) pts;
  (grid, protect, retry, by_seed)

let journal_file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"The journal file.")

let journal_ls_cmd =
  let run file =
    let j, stats = open_journal_or_die file in
    let ctx = Sim.Journal.context j in
    let _, _, _, by_seed = journal_world j in
    report ~width:10
      [
        row "journal" "%s" file;
        row "spec" "%s" ctx.Sim.Journal.spec;
        row "context" "%s" ctx.extra;
        row "records" "%d (torn %d bytes truncated, %d duplicate frames ignored)"
          (Sim.Journal.count j) stats.Sim.Journal.torn_bytes stats.duplicates;
      ];
    Printf.printf "%-45s %6s %8s %8s  %s\n" "point" "n" "sent" "rounds" "verdict";
    Sim.Journal.iter j (fun key e ->
        let label =
          match Hashtbl.find_opt by_seed key with
          | Some p -> Sim.Sweep.point_label p
          | None -> Printf.sprintf "<orphan key %d>" key
        in
        Printf.printf "%-45s %6d %8d %8d  %s\n" label e.Sim.Journal.n e.Sim.Journal.messages
          e.Sim.Journal.rounds e.Sim.Journal.verdict)
  in
  Cmd.v
    (Cmd.info "ls" ~doc:"List a journal's identity and records, labeled by grid point.")
    Term.(const run $ journal_file_arg)

let journal_verify_cmd =
  let sample_arg =
    opt_arg [ "sample" ] (int_conv ~min:0 "sample count") 0 ~docv:"K"
      ~doc:
        "Re-execute only $(docv) journaled points, chosen by a seeded deterministic \
         draw, instead of all of them (0, the default: verify every record)."
  in
  let vseed_arg =
    opt_arg [ "seed" ] Arg.int 42 ~docv:"SEED" ~doc:"Seed for the $(b,--sample) draw."
  in
  (* Byte-equality verification: re-execute journaled points from their
     grid coordinates and compare the re-encoded record frame against
     the stored one.  Because the encoding is canonical, equal bytes
     means the stored record is exactly what a fresh run would have
     written — catching not just bit rot (the CRC's job) but a
     consistently-rewritten record with a valid CRC. *)
  let run file sample vseed jobs =
    let jobs = resolve_jobs jobs in
    let j, _ = open_journal_or_die file in
    let grid, protect, retry, by_seed = journal_world j in
    let keys = ref [] in
    Sim.Journal.iter j (fun key _ -> keys := key :: !keys);
    let keys = List.rev !keys in
    let orphans, known =
      List.partition (fun k -> not (Hashtbl.mem by_seed k)) keys
    in
    List.iter
      (fun k -> Printf.eprintf "journal verify: orphan key %d is not a point of the grid\n" k)
      orphans;
    let targets =
      if sample = 0 || sample >= List.length known then known
      else
        List.map
          (fun k -> (Sim.Sweep.derive_seed vseed [ "verify"; string_of_int k ], k))
          known
        |> List.sort compare
        |> List.filteri (fun i _ -> i < sample)
        |> List.map snd
    in
    let targets = Array.of_list targets in
    let results =
      Sim.Sweep.map ~jobs
        ~local:Fault.Sweep_point.caches
        ~f:(fun caches _ key ->
          let p = Hashtbl.find by_seed key in
          let recomputed = Fault.Sweep_point.execute grid ~protect ~retry caches p in
          let stored =
            match Sim.Journal.find j key with Some e -> e | None -> assert false
          in
          Sim.Journal.encode_entry ~key recomputed = Sim.Journal.encode_entry ~key stored)
        targets
    in
    let mismatches = ref 0 in
    let errors = ref 0 in
    Array.iteri
      (fun i result ->
        let key = targets.(i) in
        let label = Sim.Sweep.point_label (Hashtbl.find by_seed key) in
        match result with
        | Error msg ->
          incr errors;
          Printf.eprintf "journal verify: %s raised: %s\n" label msg
        | Ok true -> ()
        | Ok false ->
          incr mismatches;
          Printf.eprintf "journal verify: %s: stored record differs from re-execution\n" label)
      results;
    Printf.printf "verify: %d of %d records re-executed, %d mismatches, %d orphans, jobs=%d\n"
      (Array.length targets) (Sim.Journal.count j) !mismatches (List.length orphans) jobs;
    if !mismatches > 0 || !errors > 0 || orphans <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Re-execute journaled points from their coordinates and byte-compare the \
          re-encoded records against the stored ones.")
    Term.(const run $ journal_file_arg $ sample_arg $ vseed_arg $ jobs_arg)

let journal_compact_cmd =
  let run file =
    match Sim.Journal.compact ~path:file () with
    | Error msg -> usage_error "oraclesize journal: %s" msg
    | Ok (kept, stats) ->
      Printf.printf "compacted: %d records kept, %d duplicate frames dropped, %d torn bytes \
                     truncated\n"
        kept stats.Sim.Journal.duplicates stats.Sim.Journal.torn_bytes
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:
         "Rewrite a journal as superblock + first occurrence of every key, dropping \
          duplicates and any torn tail, via atomic rename.")
    Term.(const run $ journal_file_arg)

let journal_cmd =
  Cmd.group
    (Cmd.info "journal"
       ~doc:
         "Inspect, verify, and compact sweep journals (format: docs/JOURNAL_FORMAT.md).")
    [ journal_ls_cmd; journal_verify_cmd; journal_compact_cmd ]

(* {1 worker}

   The worker entry point: [oraclesize worker --id N [--chaos SPEC]
   [--connect HOST:PORT] [--token SECRET]].  Spawned by Dispatch over
   pipes, or started by an operator on another machine with --connect.
   Its flags share the sweep's converters, so a bad value is exit 124
   before a single frame moves.  It is evaluated on its own (see the
   entry point below) so it never shows up in --help — the pipe mode's
   stdin/stdout are protocol pipes, not a terminal.  Everything the
   worker needs to execute tasks arrives in the config frame: the grid
   spec and the protect/retry context, i.e. the same Journal.context
   the sweep's journal superblock carries, so worker and supervisor
   provably agree on what task index [i] means. *)
let worker_cmd =
  let id_arg =
    opt_arg [ "id" ] (int_conv ~min:0 "worker id") 0 ~docv:"N"
      ~doc:"Worker id; it labels log lines and chaos directives."
  in
  let chaos_arg =
    opt_arg [ "chaos" ] chaos_conv Fault.Chaos.none ~docv:"SPEC"
      ~doc:"Chaos schedule this worker applies to itself."
  in
  let connect_arg =
    let hostport_conv =
      result_conv Sim.Transport.parse_hostport (fun (host, port) ->
          Printf.sprintf "%s:%d" host port)
    in
    opt_arg [ "connect" ] (Arg.some hostport_conv) None ~docv:"HOST:PORT"
      ~doc:"Dial a sweep's $(b,--listen) port instead of serving over stdin/stdout."
  in
  let token_arg =
    opt_arg [ "token" ] token_conv "" ~docv:"SECRET"
      ~env:(Cmd.Env.info "ORACLE_SIZE_TOKEN" ~doc:"Worker token when $(b,--token) is absent.")
      ~doc:"Shared-secret token to present to the supervisor.  Default: empty."
  in
  let run id chaos connect token =
    let exec (ctx : Sim.Journal.context) =
      let ( let* ) = Result.bind in
      let* grid = Fault.Sweep_point.parse_grid ctx.Sim.Journal.spec in
      let* protect, retry = Fault.Sweep_point.parse_context ctx.Sim.Journal.extra in
      let pts = Sim.Sweep.points grid in
      let caches = Fault.Sweep_point.caches () in
      Ok
        (fun i ->
          if i < 0 || i >= Array.length pts then
            Error (Printf.sprintf "task index %d outside grid of %d points" i (Array.length pts))
          else execute_or_error grid ~protect ~retry caches pts.(i))
    in
    match connect with
    | None ->
      (* Pipe mode threads the same network shim as TCP, so delay/slow/
         trickle chaos directives degrade subprocess workers too — that
         is what lets a single-host CI build a deterministic straggler
         fleet out of --workers subprocesses. *)
      let shim = Sim.Transport.Shim.create () in
      let io =
        Sim.Transport.shimmed shim (Sim.Transport.fd_io ~input:Unix.stdin ~output:Unix.stdout)
      in
      exit
        (match
           Sim.Worker.serve_io ~id:id ~auth:token
             ~chaos:(Fault.Chaos.hook ~net:shim chaos ~worker:id)
             ~exec io
         with
        | `Exit n -> n
        | `Lost `Eof -> 0
        | `Lost `Gone -> 1)
    | Some (host, port) ->
      (* TCP mode: connect, serve, and — because a condemned worker is
         merely disconnected, not killed — rejoin on connection loss.
         The chaos hook and completed-task counter persist across
         sessions, so one worker's chaos schedule (and the network shim
         its delay/trickle directives arm) spans its rejoins. *)
      let shim = Sim.Transport.Shim.create () in
      let hook = Fault.Chaos.hook ~net:shim chaos ~worker:id in
      let completed = ref 0 in
      let max_rejoins = Sim.Dispatch.default_max_rejoin in
      let rejoins = ref 0 in
      let rec session ~attempts =
        match Sim.Transport.connect ~host ~port ~attempts ~retry_delay:0.25 () with
        | Error e ->
          Sim.Worker.logf ~id "%s" e;
          exit 1
        | Ok fd -> (
          let io = Sim.Transport.shimmed shim (Sim.Transport.socket_io fd) in
          let outcome =
            Sim.Worker.serve_io ~id ~auth:token ~chaos:hook ~completed ~exec io
          in
          io.Sim.Transport.close ();
          match outcome with
          | `Exit n -> exit n
          | `Lost reason ->
            incr rejoins;
            if !rejoins > max_rejoins then begin
              Sim.Worker.logf ~id "rejoin budget exhausted after %d attempts" max_rejoins;
              exit 4
            end
            else begin
              Sim.Worker.logf ~id "connection lost (%s); rejoining (%d/%d)"
                (match reason with `Eof -> "EOF" | `Gone -> "write failed or timed out")
                !rejoins max_rejoins;
              Unix.sleepf 0.25;
              (* Rejoin attempts are short: a supervisor that finished or
                 degraded is gone for good, and exiting beats spinning. *)
              session ~attempts:8
            end)
      in
      (* The first connect is patient — operators routinely start remote
         workers before the supervisor binds its listener. *)
      session ~attempts:40
  in
  Cmd.v
    (Cmd.info "worker" ~doc:"Serve sweep tasks to a supervisor (spawned by $(b,sweep --workers)).")
    Term.(const run $ id_arg $ chaos_arg $ connect_arg $ token_arg)

(* [worker] is routed on argv before evaluation so it stays out of the
   main --help. *)
let () =
  let doc = "oracle-size experiments: wakeup vs broadcast knowledge requirements" in
  let info = Cmd.info "oraclesize" ~version:"1.0.0" ~doc in
  if Array.length Sys.argv >= 2 && Sys.argv.(1) = "worker" then
    (* An empty ORACLE_SIZE_TOKEN is the empty token, as if unset. *)
    let env var = match Sys.getenv_opt var with Some "" -> None | v -> v in
    exit (Cmd.eval ~env (Cmd.group info [ worker_cmd ]))
  else
    exit
      (Cmd.eval
         (Cmd.group info
            [
              graph_cmd; wakeup_cmd; broadcast_cmd; separation_cmd; adversary_cmd; gossip_cmd;
              explore_cmd; radio_cmd; mst_cmd; spanner_cmd; sweep_cmd; journal_cmd;
            ]))
