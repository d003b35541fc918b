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

(* The one ranged-integer converter: [min] (and [max], if given) bound
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
  | Some v -> Error (`Msg (Printf.sprintf "%s must %s, got %d" what must v))
  | None -> Error (`Msg (Printf.sprintf "invalid %s %S (expected %s)" what s expected))

let int_conv ?max ~min what = Arg.conv (int_parser ?max ~min what, Format.pp_print_int)

(* A converter over a library parser and printer. *)
let result_conv of_string to_string =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (of_string s)),
      fun fmt v -> Format.pp_print_string fmt (to_string v) )

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
    match typed with
    | Some v -> Ok (s, v)
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown %s %S (expected %s, %s or %s:SEED)" what s
             (String.concat ", " (List.map fst choices))
             seeded seeded))
  in
  Arg.conv (parse, fun fmt (s, _) -> Format.pp_print_string fmt s)

let family_conv =
  let parse s =
    match Families.of_name s with
    | Some f -> Ok f
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown family %S (known: %s)" s
             (String.concat ", " (List.map Families.name Families.all))))
  in
  Arg.conv (parse, fun fmt f -> Format.pp_print_string fmt (Families.name f))

let family_arg =
  Arg.(
    value
    & opt family_conv Families.Sparse_random
    & info [ "f"; "family" ] ~docv:"FAMILY" ~doc:"Graph family (see $(b,graph --list)).")

let n_arg = Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc:"Requested node count.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let source_arg =
  Arg.(
    value & opt int 0
    & info [ "s"; "source" ] ~docv:"NODE"
        ~doc:"Source node index, in 0..n-1 for the graph actually built (families round $(b,-n)).")

let scheduler_conv =
  let parse = function
    | "sync" -> Ok Sim.Scheduler.Synchronous
    | "fifo" -> Ok Sim.Scheduler.Async_fifo
    | "lifo" -> Ok Sim.Scheduler.Async_lifo
    | s -> (
      match int_of_string_opt s with
      | Some seed -> Ok (Sim.Scheduler.Async_random seed)
      | None -> Error (`Msg "expected sync, fifo, lifo, or an integer seed"))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Sim.Scheduler.name s))

let scheduler_arg =
  Arg.(
    value
    & opt scheduler_conv Sim.Scheduler.Async_fifo
    & info [ "scheduler" ] ~docv:"SCHED"
        ~doc:"Delivery discipline: sync, fifo, lifo, or an integer seed for random.")

let fault_conv = result_conv Fault.Plan.of_string Fault.Plan.to_string

let fault_arg =
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "fault" ] ~docv:"PLAN"
        ~doc:
          "Run adversarially under a fault plan, e.g. $(b,drop=0.1,seed=7), \
           $(b,advice-flip=8), or $(b,crash=3@5,dead=1).  The hardened scheme is used, \
           injected faults are recorded in the trace, and a structured verdict is printed \
           (exit 0 on completed/degraded, 1 on stalled/violated).  See DESIGN.md, section \
           'Fault model and verdicts'.")

let protect_conv = result_conv Bitstring.Ecc.of_name Bitstring.Ecc.name

let protect_arg =
  Arg.(
    value
    & opt protect_conv Bitstring.Ecc.Raw
    & info [ "protect" ] ~docv:"LEVEL"
        ~doc:
          "Error-protect every node's advice before the adversary touches it: $(b,raw) \
           (none, default), $(b,crc) (detect), $(b,hamming) (correct one flipped bit), or \
           $(b,repK) (K-repetition majority, e.g. $(b,rep3)).  Only meaningful together \
           with $(b,--fault); the printed oracle size is the protected size actually \
           handed out.")

let retry_arg =
  Arg.(
    value
    & opt (int_conv ~min:0 "retry count") 0
    & info [ "retry" ] ~docv:"N"
        ~doc:
          "Arm the runner's ack/retransmit channel: each message may be retransmitted up \
           to $(docv) times with exponential backoff, and a crashed receiver triggers a \
           link timeout that the hardened schemes answer by re-flooding.  Default 0: \
           recovery off; a negative $(docv) is rejected even where the flag has no \
           effect.  $(b,wakeup) and $(b,broadcast) only use it together with $(b,--fault).")

let positive_float_conv what =
  let parse s =
    match float_of_string_opt (String.trim s) with
    | Some v when v > 0. && Float.is_finite v -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "%s must be positive, got %g" what v))
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S (expected a positive number)" what s))
  in
  Arg.conv (parse, Format.pp_print_float)

let batch_conv =
  let parse s =
    match String.trim s with
    | "auto" -> Ok `Auto
    | s when int_of_string_opt s = None ->
      Error
        (`Msg (Printf.sprintf "invalid batch size %S (expected a positive integer or 'auto')" s))
    | s -> Result.map (fun b -> `Fixed b) (int_parser ~min:1 "batch size" s)
  in
  let print fmt = function
    | `Auto -> Format.pp_print_string fmt "auto"
    | `Fixed b -> Format.pp_print_int fmt b
  in
  Arg.conv (parse, print)

let token_conv =
  let parse s =
    if s = "" then Error (`Msg "token must not be empty")
    else if String.length s > Sim.Worker.max_auth_bytes then
      Error (`Msg (Printf.sprintf "token longer than %d bytes" Sim.Worker.max_auth_bytes))
    else Ok s
  in
  Arg.conv (parse, Format.pp_print_string)

let chaos_conv = result_conv Fault.Chaos.of_string Fault.Chaos.to_string

let jobs_arg =
  Arg.(
    value
    & opt (some (int_conv ~min:1 "job count")) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~env:
          (Cmd.Env.info "ORACLE_SIZE_JOBS"
             ~doc:"Default worker-domain count when $(b,--jobs) is absent.")
        ~doc:
          "Worker domains for parallel execution.  Defaults to $(b,ORACLE_SIZE_JOBS) when \
           set, else this machine's recommended domain count.  Results are bit-identical \
           for every $(docv); only the wall time changes.")

let resolve_jobs = function Some j -> j | None -> Sim.Pool.default_jobs ()

let shards_arg =
  Arg.(
    value
    & opt (int_conv ~min:1 "shard count") 1
    & info [ "shards" ] ~docv:"N"
        ~env:
          (Cmd.Env.info "ORACLE_SIZE_SHARDS"
             ~doc:"Default shard count when $(b,--shards) is absent.")
        ~doc:
          "Execute one run across $(docv) domains (synchronous scheduler only; asynchronous \
           schedulers always run sequentially).  Defaults to $(b,ORACLE_SIZE_SHARDS) when \
           set, else 1.  Runs with $(b,--trace-out) or $(b,--fault) execute sequentially \
           whatever $(docv) says.  Statistics, traces and verdicts are bit-identical for \
           every $(docv); only the wall time changes.")

let suite_flag =
  Arg.(
    value & flag
    & info [ "suite" ]
        ~doc:
          "With $(b,--fault): run the plan under every scheduler in the default adversary \
           suite, in parallel across $(b,--jobs) worker domains, and print one verdict \
           row per scheduler.  Overrides $(b,--scheduler); incompatible with \
           $(b,--trace-out) (trace sinks are single-writer).")

(* The adversarial path shared by wakeup and broadcast: run the hardened
   harness under the plan and report the verdict. *)
let run_faulty protocol plan ~protect ~retry family g ~source ~scheduler sinks =
  let o = Fault.Harness.run ~scheduler ~plan ~sinks ~protect ~retry protocol g ~source in
  let b = Fault.Harness.budgets ~retry protocol g in
  let stats = o.Fault.Harness.result.Sim.Runner.stats in
  Printf.printf "network:      %s, %d nodes, %d edges\n" (Families.name family) (Graph.n g)
    (Graph.m g);
  Printf.printf "fault plan:   %s\n" (Fault.Plan.to_string plan);
  if protect = Bitstring.Ecc.Raw then
    Printf.printf "oracle bits:  %d (after tampering with %d nodes)\n" o.Fault.Harness.advice_bits
      (List.length (List.sort_uniq compare (List.map fst o.Fault.Harness.tampered)))
  else
    Printf.printf "oracle bits:  %d protected (%s) from %d raw, tampering with %d nodes\n"
      o.Fault.Harness.advice_bits (Bitstring.Ecc.name protect) o.Fault.Harness.raw_advice_bits
      (List.length (List.sort_uniq compare (List.map fst o.Fault.Harness.tampered)));
  Printf.printf "messages:     %d  (clean budget %d, degraded budget %d)\n" stats.Obs.Counting.sent
    b.Fault.Verdict.clean b.Fault.Verdict.degraded;
  Printf.printf "faults:       %d injected, %d nodes fell back to flooding\n"
    stats.Obs.Counting.faults
    (List.length o.Fault.Harness.fallbacks);
  if retry > 0 || protect <> Bitstring.Ecc.Raw then
    Printf.printf "recovery:     %d retransmissions (budget %d), %d bits corrected at %d nodes\n"
      stats.Obs.Counting.retransmits b.Fault.Verdict.recovery
      (List.fold_left (fun acc (_, bits) -> acc + bits) 0 o.Fault.Harness.corrected)
      (List.length o.Fault.Harness.corrected);
  Printf.printf "verdict:      %s\n" (Fault.Verdict.to_string o.Fault.Harness.verdict);
  if not (Fault.Verdict.acceptable o.Fault.Harness.verdict) then exit 1

(* [--fault --suite]: the same plan under every scheduler of
   [Sim.Scheduler.default_suite], fanned out over a domain pool.  Advice is a pure
   function of (protocol, graph, source), so it is computed once here and
   shared read-only by every worker; each run protects and corrupts its
   own copy.  Per-run trace sinks are single-writer, so suite mode runs
   without them and prints one verdict row per scheduler instead. *)
let run_faulty_suite protocol plan ~protect ~retry ~jobs family g ~source =
  let scheds = Array.of_list Sim.Scheduler.default_suite in
  let raw_advice = Fault.Harness.advise protocol g ~source in
  let results =
    Sim.Sweep.map ~jobs
      ~local:(fun () -> ())
      ~f:(fun () _ scheduler ->
        Fault.Harness.run ~scheduler ~plan ~protect ~retry ~raw_advice protocol g ~source)
      scheds
  in
  Printf.printf "network:    %s, %d nodes, %d edges\n" (Families.name family) (Graph.n g)
    (Graph.m g);
  Printf.printf "fault plan: %s  (%d schedulers, jobs=%d)\n" (Fault.Plan.to_string plan)
    (Array.length scheds) jobs;
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
        if not (Fault.Verdict.acceptable o.Fault.Harness.verdict) then ok := false;
        Printf.printf "%-18s %9d %7d %11d  %s\n" sched_name stats.Obs.Counting.sent
          stats.Obs.Counting.faults stats.Obs.Counting.retransmits
          (Fault.Verdict.to_string o.Fault.Harness.verdict))
    scheds;
  if not !ok then exit 1

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's telemetry trace to $(docv) as JSON Lines, one event per line \
           (see DESIGN.md, section 'Telemetry').  Use $(b,-) for standard output.")

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

let build family n seed = Families.build family ~n ~seed

(* The graph a source-taking command runs on.  Families round [-n], so
   the source can only be checked against the graph actually built. *)
let build_with_source family n seed source =
  let g = build family n seed in
  if source < 0 || source >= Graph.n g then
    usage_error "oraclesize: --source %d is outside the %d-node graph (valid: 0..%d)" source
      (Graph.n g) (Graph.n g - 1);
  g

(* wakeup and broadcast differ only in their clean run.  With --fault the
   hardened [protocol] runs through the harness (under every scheduler
   with --suite); without it, [clean sinks] runs under the --trace-out
   sinks and returns its report, printed once the sinks are closed. *)
let harness_term =
  let dispatch fault protect retry suite jobs trace_out protocol family g ~source ~scheduler
      ~clean =
    match fault with
    | Some plan when suite ->
      if trace_out <> None then
        usage_error "oraclesize: --suite and --trace-out cannot be combined";
      run_faulty_suite protocol plan ~protect ~retry ~jobs:(resolve_jobs jobs) family g ~source
    | Some plan ->
      with_trace_sinks trace_out
        (run_faulty protocol plan ~protect ~retry family g ~source ~scheduler)
    | None when suite -> usage_error "oraclesize: --suite is only meaningful together with --fault"
    | None -> with_trace_sinks trace_out clean ()
  in
  Term.(
    const dispatch $ fault_arg $ protect_arg $ retry_arg $ suite_flag $ jobs_arg $ trace_out_arg)

(* {1 graph} *)

let graph_cmd =
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List the known graph families and exit.")
  in
  let dump_flag = Arg.(value & flag & info [ "dump" ] ~doc:"Print the edge list.") in
  let run list_families dump family n seed =
    if list_families then
      List.iter (fun f -> print_endline (Families.name f)) Families.all
    else begin
      let g = build family n seed in
      Printf.printf "family:   %s\nnodes:    %d\nedges:    %d\ndiameter: %d\n"
        (Families.name family) (Graph.n g) (Graph.m g) (Netgraph.Traverse.diameter g);
      Printf.printf "map size: %d bits (full-topology encoding)\n" (Netgraph.Codec.encoded_bits g);
      if dump then print_string (Graph.to_edge_list_string g)
    end
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Generate a port-labeled network and print statistics.")
    Term.(const run $ list_flag $ dump_flag $ family_arg $ n_arg $ seed_arg)

(* {1 wakeup} *)

let wakeup_cmd =
  let encoding_arg =
    Arg.(
      value
      & opt
          (enum
             Oracle_core.Wakeup.
               [ ("paper", Paper); ("minimal", Paper_minimal); ("gamma", Gamma) ])
          Oracle_core.Wakeup.Paper
      & info [ "encoding" ] ~docv:"ENC" ~doc:"Advice encoding: paper, minimal, or gamma.")
  in
  let run family n seed source scheduler encoding shards dispatch =
    let g = build_with_source family n seed source in
    dispatch Fault.Harness.Wakeup family g ~source ~scheduler ~clean:(fun sinks ->
        let o = Oracle_core.Wakeup.run ~encoding ~scheduler ~sinks ~shards g ~source in
        fun () ->
          let stats = o.Oracle_core.Wakeup.result.Sim.Runner.stats in
          Printf.printf "network:      %s, %d nodes, %d edges\n" (Families.name family)
            (Graph.n g) (Graph.m g);
          Printf.printf "oracle bits:  %d  (Theorem 2.1 budget %d)\n"
            o.Oracle_core.Wakeup.advice_bits
            (Oracle_core.Bounds.wakeup_advice_upper ~n:(Graph.n g));
          Printf.printf "messages:     %d  (optimal: %d)\n" stats.Obs.Counting.sent (Graph.n g - 1);
          Printf.printf "all awake:    %b\n" o.Oracle_core.Wakeup.result.Sim.Runner.all_informed;
          if not o.Oracle_core.Wakeup.result.Sim.Runner.all_informed then exit 1)
  in
  Cmd.v
    (Cmd.info "wakeup" ~doc:"Run the Theorem 2.1 wakeup oracle and scheme.")
    Term.(
      const run $ family_arg $ n_arg $ seed_arg $ source_arg $ scheduler_arg $ encoding_arg
      $ shards_arg $ harness_term)

(* {1 broadcast} *)

let broadcast_cmd =
  let tree_conv =
    let parse = function
      | "light" -> Ok ("light", fun g ~root -> Netgraph.Spanning.light g ~root)
      | "bfs" -> Ok ("bfs", fun g ~root -> Netgraph.Spanning.bfs g ~root)
      | "dfs" -> Ok ("dfs", fun g ~root -> Netgraph.Spanning.dfs g ~root)
      | s -> Error (`Msg (Printf.sprintf "unknown tree %S (light|bfs|dfs)" s))
    in
    Arg.conv (parse, fun fmt (name, _) -> Format.pp_print_string fmt name)
  in
  let tree_arg =
    Arg.(
      value
      & opt tree_conv ("light", fun g ~root -> Netgraph.Spanning.light g ~root)
      & info [ "tree" ] ~docv:"TREE"
          ~doc:"Spanning tree: light (Claim 3.1, default), bfs, or dfs.")
  in
  let run family n seed source scheduler (tree_name, tree) shards dispatch =
    let g = build_with_source family n seed source in
    dispatch Fault.Harness.Broadcast family g ~source ~scheduler ~clean:(fun sinks ->
        let o = Oracle_core.Broadcast.run ~tree ~scheduler ~sinks ~shards g ~source in
        fun () ->
          let stats = o.Oracle_core.Broadcast.result.Sim.Runner.stats in
          Printf.printf "network:      %s, %d nodes, %d edges\n" (Families.name family)
            (Graph.n g) (Graph.m g);
          Printf.printf "tree:         %s (contribution %d, Claim 3.1 budget %d)\n" tree_name
            o.Oracle_core.Broadcast.tree_contribution
            (4 * Graph.n g);
          Printf.printf "oracle bits:  %d  (Theorem 3.1 budget %d)\n"
            o.Oracle_core.Broadcast.advice_bits (8 * Graph.n g);
          Printf.printf "messages:     %d = %d source + %d hello  (budget < %d)\n"
            stats.Obs.Counting.sent stats.Obs.Counting.source_sent stats.Obs.Counting.hello_sent
            (3 * Graph.n g);
          Printf.printf "all informed: %b\n"
            o.Oracle_core.Broadcast.result.Sim.Runner.all_informed;
          if not o.Oracle_core.Broadcast.result.Sim.Runner.all_informed then exit 1)
  in
  Cmd.v
    (Cmd.info "broadcast" ~doc:"Run the Theorem 3.1 broadcast oracle and Scheme B.")
    Term.(
      const run $ family_arg $ n_arg $ seed_arg $ source_arg $ scheduler_arg $ tree_arg
      $ shards_arg $ harness_term)

(* {1 separation} *)

let separation_cmd =
  let ns_arg =
    Arg.(
      value
      & opt (list int) [ 64; 128; 256; 512; 1024 ]
      & info [ "ns" ] ~docv:"N,N,..." ~doc:"Node counts to sweep.")
  in
  let run family ns seed =
    Printf.printf "%-14s %6s %12s %12s %8s\n" "family" "n" "wakeup bits" "bcast bits" "ratio";
    List.iter
      (fun m ->
        Printf.printf "%-14s %6d %12d %12d %8.2f\n" m.Oracle_core.Separation.family
          m.Oracle_core.Separation.n m.Oracle_core.Separation.wakeup_bits
          m.Oracle_core.Separation.broadcast_bits m.Oracle_core.Separation.bits_ratio)
      (Oracle_core.Separation.sweep family ~ns ~seed)
  in
  Cmd.v
    (Cmd.info "separation" ~doc:"Measure the wakeup/broadcast oracle-size separation.")
    Term.(const run $ family_arg $ ns_arg $ seed_arg)

(* {1 adversary} *)

let adversary_cmd =
  let x_arg =
    Arg.(value & opt int 2 & info [ "x" ] ~docv:"X" ~doc:"Number of special edges |X|.")
  in
  let count_arg =
    Arg.(
      value
      & opt (int_conv ~min:0 "sample count") 0
      & info [ "sample" ] ~docv:"COUNT"
          ~doc:"Sample COUNT instances instead of full enumeration (0 = enumerate).")
  in
  let strategy_arg =
    Arg.(
      value
      & opt
          (seeded_choice_conv ~what:"strategy" [ ("sequential", `Sequential) ]
             ("random", fun s -> `Random s))
          ("sequential", `Sequential)
      & info [ "strategy" ] ~docv:"STRAT"
          ~doc:"Probing strategy: sequential, or random[:SEED] (default seed: $(b,--seed)).")
  in
  let run n x count (_, strategy) seed =
    let instances =
      if count = 0 then Oracle_core.Edge_discovery.enumerate_instances ~n ~x_size:x ~excluded:[]
      else
        List.sort_uniq compare
          (Oracle_core.Edge_discovery.sample_instances ~n ~x_size:x ~excluded:[] ~count
             (Random.State.make [| seed |]))
    in
    let strategy =
      match strategy with
      | `Sequential -> Oracle_core.Edge_discovery.sequential
      | `Random s -> Oracle_core.Edge_discovery.random_strategy ~seed:(Option.value s ~default:seed)
    in
    let adv = Oracle_core.Edge_discovery.adversary instances in
    let out = Oracle_core.Edge_discovery.play adv strategy in
    Printf.printf "instances: %d\nLemma 2.1 bound: %.2f\nprobes used (%s): %d\n"
      (List.length instances) out.Oracle_core.Edge_discovery.bound
      strategy.Oracle_core.Edge_discovery.strategy_name
      out.Oracle_core.Edge_discovery.probes_used;
    List.iter
      (fun ((u, v), l) -> Printf.printf "  special {%d,%d} with label %d\n" u v l)
      out.Oracle_core.Edge_discovery.found
  in
  Cmd.v
    (Cmd.info "adversary" ~doc:"Play a discovery strategy against the Lemma 2.1 adversary.")
    Term.(const run $ n_arg $ x_arg $ count_arg $ strategy_arg $ seed_arg)


(* {1 gossip} *)

let gossip_cmd =
  let flooding_flag =
    Arg.(value & flag & info [ "flooding" ] ~doc:"Run the advice-free flooding baseline instead.")
  in
  let run family n seed source scheduler flooding trace_out =
    let g = build_with_source family n seed source in
    let o =
      with_trace_sinks trace_out (fun sinks ->
          if flooding then Oracle_core.Gossip.run_flooding ~scheduler ~sinks g ~source
          else Oracle_core.Gossip.run ~scheduler ~sinks g ~source)
    in
    let stats = o.Oracle_core.Gossip.result.Sim.Runner.stats in
    Printf.printf "network:      %s, %d nodes, %d edges\n" (Families.name family) (Graph.n g)
      (Graph.m g);
    Printf.printf "oracle bits:  %d\n" o.Oracle_core.Gossip.advice_bits;
    Printf.printf "messages:     %d (tree gossip optimum: %d)\n" stats.Obs.Counting.sent
      (2 * (Graph.n g - 1));
    Printf.printf "bits on wire: %d\n" stats.Obs.Counting.bits_on_wire;
    Printf.printf "complete:     %b\n" o.Oracle_core.Gossip.complete;
    if not o.Oracle_core.Gossip.complete then exit 1
  in
  Cmd.v
    (Cmd.info "gossip" ~doc:"All-to-all rumor exchange with tree advice (or flooding).")
    Term.(
      const run $ family_arg $ n_arg $ seed_arg $ source_arg $ scheduler_arg $ flooding_flag
      $ trace_out_arg)

(* {1 explore} *)

let explore_cmd =
  let program_arg =
    Arg.(
      value
      & opt
          (seeded_choice_conv ~what:"program"
             [ ("dfs", `Dfs); ("rotor", `Rotor); ("guided", `Guided) ]
             ("random", fun s -> `Random s))
          ("dfs", `Dfs)
      & info [ "program" ] ~docv:"PROG"
          ~doc:"Exploration program: dfs, rotor, random[:SEED], or guided.")
  in
  let run family n seed source (_, program) =
    let g = build_with_source family n seed source in
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
    Printf.printf "network:  %s, %d nodes, %d edges, diameter %d\n" (Families.name family)
      (Graph.n g) m d;
    Printf.printf "program:  %s (advice %d bits)\n" program.Agent.Walker.program_name
      (Bitstring.Bitbuf.length advice);
    Printf.printf "moves:    %d (cover at %s)\n" o.Agent.Walker.moves
      (match o.Agent.Walker.moves_to_cover with Some c -> string_of_int c | None -> "never");
    Printf.printf "covered:  %b, halted: %b\n" o.Agent.Walker.covered o.Agent.Walker.halted;
    if not o.Agent.Walker.covered then exit 1
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Explore the network with a mobile agent.")
    Term.(const run $ family_arg $ n_arg $ seed_arg $ source_arg $ program_arg)

(* {1 radio} *)

let radio_cmd =
  let protocol_arg =
    Arg.(
      value
      & opt
          (seeded_choice_conv ~what:"protocol"
             [ ("round-robin", `Round_robin); ("scheduled", `Scheduled) ]
             ("decay", fun s -> `Decay s))
          ("decay", `Decay None)
      & info [ "protocol" ] ~docv:"PROTO"
          ~doc:"Radio protocol: round-robin, decay[:SEED], or scheduled.")
  in
  let run family n seed source (_, protocol) =
    let g = build_with_source family n seed source in
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
    Printf.printf "network:       %s, %d nodes, diameter %d\n" (Families.name family) (Graph.n g)
      (Netgraph.Traverse.diameter g);
    Printf.printf "protocol:      %s (advice %d bits)\n" protocol.Radio.Model.protocol_name
      advice_bits;
    Printf.printf "rounds:        %d\n" r.Radio.Model.rounds;
    Printf.printf "transmissions: %d, collisions: %d\n" r.Radio.Model.transmissions
      r.Radio.Model.collisions;
    Printf.printf "all informed:  %b\n" r.Radio.Model.all_informed;
    if not r.Radio.Model.all_informed then exit 1
  in
  Cmd.v
    (Cmd.info "radio" ~doc:"Broadcast in the radio (collision) model.")
    Term.(const run $ family_arg $ n_arg $ seed_arg $ source_arg $ protocol_arg)


(* {1 mst} *)

let mst_cmd =
  let advised_flag =
    Arg.(value & flag & info [ "advised" ] ~doc:"Use the MST-ports oracle instead of running Boruvka.")
  in
  let run family n seed advised =
    let g = build family n seed in
    let o =
      if advised then Syncnet.Boruvka.advised_build g else Syncnet.Boruvka.distributed_build g
    in
    Printf.printf "network:     %s, %d nodes, %d edges\n" (Families.name family) (Graph.n g)
      (Graph.m g);
    Printf.printf "oracle bits: %d\n" o.Syncnet.Boruvka.advice_bits;
    Printf.printf "messages:    %d over %d synchronous rounds\n"
      o.Syncnet.Boruvka.result.Syncnet.Model.messages o.Syncnet.Boruvka.result.Syncnet.Model.rounds;
    Printf.printf "tree weight: %s\n"
      (match o.Syncnet.Boruvka.edges with
      | Some es -> string_of_int (Netgraph.Mst.weight g es)
      | None -> "-");
    Printf.printf "matches centralized Kruskal: %b\n" o.Syncnet.Boruvka.matches_reference;
    if not o.Syncnet.Boruvka.matches_reference then exit 1
  in
  Cmd.v
    (Cmd.info "mst" ~doc:"Build the minimum spanning tree (distributed Boruvka or oracle).")
    Term.(const run $ family_arg $ n_arg $ seed_arg $ advised_flag)


(* {1 spanner} *)

let spanner_cmd =
  let stretch_arg =
    Arg.(
      value
      & opt (int_conv ~min:1 "stretch factor") 3
      & info [ "t"; "stretch" ] ~docv:"T" ~doc:"Stretch factor t >= 1.")
  in
  let run family n seed stretch =
    let g = build family n seed in
    let o = Oracle_core.Spanner.measure g ~stretch in
    Printf.printf "network:        %s, %d nodes, %d edges\n" (Families.name family) (Graph.n g)
      (Graph.m g);
    Printf.printf "stretch target: %d\n" o.Oracle_core.Spanner.stretch;
    Printf.printf "edges kept:     %d of %d\n" o.Oracle_core.Spanner.edges_kept (Graph.m g);
    Printf.printf "oracle bits:    %d\n" o.Oracle_core.Spanner.advice_bits;
    Printf.printf "worst stretch:  %.1f (valid: %b)\n" o.Oracle_core.Spanner.measured_stretch
      o.Oracle_core.Spanner.valid;
    if not o.Oracle_core.Spanner.valid then exit 1
  in
  Cmd.v
    (Cmd.info "spanner" ~doc:"Build a greedy t-spanner and its port oracle.")
    Term.(const run $ family_arg $ n_arg $ seed_arg $ stretch_arg)

(* {1 sweep} *)

let grid_conv = result_conv Fault.Sweep_point.parse_grid Sim.Sweep.to_string

(* A point run by a worker or the dispatch fallback: a raise becomes
   the task's error string instead of taking the process down. *)
let execute_or_error grid ~protect ~retry caches p =
  match Fault.Sweep_point.execute grid ~protect ~retry caches p with
  | entry -> Ok entry
  | exception e -> Error (Printexc.to_string e)

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
    Arg.(
      value & opt string "-"
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write one JSON line per grid point to $(docv) ($(b,-), the default: standard \
             output).  Rows are emitted in canonical grid order after the parallel run \
             joins, so the file is byte-identical for every $(b,--jobs).")
  in
  let journal_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Journal completed points to $(docv) (format: docs/JOURNAL_FORMAT.md) and make \
             the sweep resumable: each point's result is appended and flushed before the \
             sweep moves on, and re-running the same sweep with the same journal skips \
             every point already on disk.  A torn tail left by a crash is detected and \
             truncated on open; a journal written for a different grid or \
             $(b,--protect)/$(b,--retry) is refused.  The final JSONL is byte-identical \
             to an uninterrupted run at every $(b,--jobs).")
  in
  let crash_after_arg =
    Arg.(
      value
      & opt (some (int_conv ~min:1 "record count")) None
      & info [ "crash-after" ] ~docv:"N"
          ~doc:
            "Testing knob for the crash-safety gate: kill this process with SIGKILL — no \
             cleanup, no flush beyond the journal's own — immediately after the $(docv)-th \
             record of this run becomes durable.  Requires $(b,--journal).")
  in
  let workers_arg =
    Arg.(
      value
      & opt (int_conv ~min:0 "worker count") 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Execute points across $(docv) subprocess workers instead of in-process \
             domains (0, the default: in-process $(b,--jobs) pool).  Workers speak a \
             CRC-checked frame protocol over pipes, heartbeat before every task, and are \
             crash-stop: a worker that dies, hangs, or corrupts its stream is killed and \
             its tasks reassigned to survivors with backoff; if every worker dies the \
             remainder runs in-process.  Output and journal bytes are identical at every \
             $(docv) and under any $(b,--chaos) schedule.")
  in
  let chaos_arg =
    Arg.(
      value
      & opt (some chaos_conv) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Testing knob for the fault-tolerance gate: inject deterministic worker \
             faults, e.g. $(b,kill:worker=2,after=5;hang:worker=0,after=9) or \
             $(b,garbage:worker=1,after=3;seed=7).  Faults fire by completed-task count, \
             so a schedule reproduces exactly.  Requires $(b,--workers).")
  in
  let heartbeat_timeout_arg =
    Arg.(
      value
      & opt (positive_float_conv "heartbeat timeout") Sim.Dispatch.default_heartbeat_timeout
      & info [ "heartbeat-timeout" ] ~docv:"SECS"
          ~doc:
            "Declare a worker crashed after $(docv) seconds of silence.  Workers beat \
             before each task, so this bounds one task's compute time, not a whole \
             batch's.  Over TCP this is also the partition detector: a peer silent past \
             the deadline is condemned and its tasks reassigned, while a merely slow link \
             that still beats in time costs nothing.")
  in
  let batch_arg =
    Arg.(
      value
      & opt batch_conv (`Fixed Sim.Dispatch.default_batch)
      & info [ "batch" ] ~docv:"N|auto"
          ~doc:
            "Task indices per worker batch (work-stealing granularity), or $(b,auto) for \
             throughput-adaptive sizing: each worker's next batch is sized from an EWMA of \
             its observed task rate, clamped to [$(b,--batch-min), $(b,--batch-max)], and \
             idle workers speculatively re-execute a straggler's in-flight tail \
             (first-result-wins keeps output bytes identical to any fixed batch).")
  in
  let batch_min_arg =
    Arg.(
      value
      & opt (int_conv ~min:1 "minimum batch size") Sim.Dispatch.default_min_batch
      & info [ "batch-min" ] ~docv:"N"
          ~doc:
            "Lower clamp (and initial probe size) for $(b,--batch auto).  Must be at least \
             1 and at most $(b,--batch-max).")
  in
  let batch_max_arg =
    Arg.(
      value
      & opt (int_conv ~min:1 "maximum batch size") Sim.Dispatch.default_max_batch
      & info [ "batch-max" ] ~docv:"N"
          ~doc:"Upper clamp for $(b,--batch auto).")
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
  let stats_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-out" ] ~docv:"FILE"
          ~doc:
            "Write a JSON scheduler report to $(docv) after the sweep: wall time, the \
             lifecycle counters from the stats line, and a $(b,worker_stats) block with \
             per-worker tasks, EWMA throughput, batches issued, and speculative wins.  \
             Kept out of the row stream so the JSONL stays byte-identical across \
             schedulers.")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some (int_conv ~min:1 ~max:0xffff "port")) None
      & info [ "listen" ] ~docv:"PORT"
          ~doc:
            "Accept remote workers on TCP $(docv) alongside (or instead of) $(b,--workers) \
             subprocesses.  Start them with $(b,oraclesize worker --connect HOST:PORT); \
             peers must present the same $(b,--token).  Output bytes are identical at any \
             local/remote mix, under partitions, and across worker rejoins.")
  in
  let token_arg =
    Arg.(
      value
      & opt (some token_conv) None
      & info [ "token" ] ~docv:"SECRET"
          ~doc:
            "Shared-secret authentication token for $(b,--listen).  A connecting worker \
             whose hello does not carry exactly this token is disconnected before any \
             sweep state is sent to it.  Default: empty (only workers announcing an empty \
             token are accepted).")
  in
  let expect_remote_arg =
    Arg.(
      value
      & opt (int_conv ~min:0 "remote worker count") 0
      & info [ "expect-remote" ] ~docv:"N"
          ~doc:
            "Hold the handshake barrier until $(docv) remote workers have joined (or a \
             grace of 3× the heartbeat timeout expires), so chaos fault placement is \
             reproducible across the remote fleet.  Requires $(b,--listen).")
  in
  let worker_logs_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "worker-logs" ] ~docv:"DIR"
          ~doc:
            "Redirect each worker's stderr to $(docv)/worker-<id>.log (directory created \
             if missing) instead of inheriting this process's stderr.")
  in
  (* The declarative grid runner: the cross product of (protocol × plan ×
     family × n × scheduler × rep), executed over a domain pool with
     per-worker graph and advice caches, one adversarial harness run per
     point.  Every seed derives from grid coordinates, results land in
     pre-sized slots, and rows are serialized in one ordered pass after
     the join — the JSONL is byte-identical at -j 1 and -j 8, resumed or
     not.  Verdict classes are data, not failures: the exit status is 0
     as long as every point executed (2 on a bad spec or unusable
     journal, 1 if a point raised). *)
  let run grid out journal crash_after protect retry jobs workers chaos heartbeat_timeout
      (batch, batch_min, batch_max) stats_out listen token expect_remote
      worker_logs =
    let batching =
      match batch with
      | `Fixed n -> Sim.Dispatch.Fixed n
      | `Auto -> Sim.Dispatch.Auto { min_batch = batch_min; max_batch = batch_max }
    in
    if crash_after <> None && journal = None then
      usage_error "oraclesize sweep: --crash-after requires --journal";
    if chaos <> None && workers = 0 then
      usage_error
        "oraclesize sweep: --chaos requires --workers (remote workers take their own --chaos \
         on their command line)";
    if token <> None && listen = None then
      usage_error "oraclesize sweep: --token requires --listen";
    if expect_remote > 0 && listen = None then
      usage_error "oraclesize sweep: --expect-remote requires --listen";
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
    let pool_outcome () =
      Sim.Sweep.run_journaled ~jobs ?journal ~context:(Fault.Sweep_point.context ~protect ~retry)
        ?on_append ~local:Fault.Sweep_point.caches
        ~f:(Fault.Sweep_point.execute grid ~protect ~retry)
        ~emit:emit_row grid
    in
    let wall0 = Unix.gettimeofday () in
    let cpu0 = Sys.time () in
    (* Captured after shutdown for --stats-out; None on the pool path. *)
    let captured = ref None in
    let outcome =
      if workers = 0 && listen = None then pool_outcome ()
      else begin
        (* Distributed path: subprocess and/or remote TCP workers under
           Dispatch, the same chunked journaled core via
           map_journaled_via.  Determinism is untouched — appends and
           emission stay in canonical order on this process — so bytes
           match the in-process path exactly. *)
        let ctx =
          {
            Sim.Journal.spec = Sim.Sweep.to_string grid;
            extra = Fault.Sweep_point.context ~protect ~retry;
          }
        in
        (match worker_logs with
        | None -> ()
        | Some dir -> (
          (* mkdir -p: CI points this at nested per-scenario dirs. *)
          let rec mkdirs d =
            try Unix.mkdir d 0o755 with
            | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
            | Unix.Unix_error (Unix.ENOENT, _, _) when Filename.dirname d <> d ->
              mkdirs (Filename.dirname d);
              Unix.mkdir d 0o755
          in
          try mkdirs dir
          with Unix.Unix_error (e, _, _) ->
            usage_error "oraclesize sweep: cannot create --worker-logs %s: %s" dir
              (Unix.error_message e)));
        let token = Option.value token ~default:"" in
        let command ~id =
          let base = [| Sys.executable_name; "worker"; "--id"; string_of_int id |] in
          let base =
            if token = "" then base else Array.append base [| "--token"; token |]
          in
          match chaos with
          | None -> base
          | Some c -> Array.append base [| "--chaos"; Fault.Chaos.to_string c |]
        in
        let listener =
          Option.map
            (fun port ->
              match Sim.Transport.listen ~port () with
              | Ok l -> l
              | Error e -> usage_error "oraclesize sweep: %s" e)
            listen
        in
        (* Lazy so the in-process caches are only built if degradation
           actually happens. *)
        let fallback_caches = lazy (Fault.Sweep_point.caches ()) in
        let fallback i =
          execute_or_error grid ~protect ~retry (Lazy.force fallback_caches) pts.(i)
        in
        let d =
          Sim.Dispatch.create ~workers ~batching ~heartbeat_timeout ~token
            ?listener ~expect_remote ?stderr_dir:worker_logs
            ~log:(fun m -> Printf.eprintf "sweep: %s\n%!" m)
            ~command ~context:ctx ~fallback ()
        in
        let dispatched = ref false in
        let outcome =
          Fun.protect
            ~finally:(fun () -> Sim.Dispatch.shutdown d)
            (fun () ->
              if Sim.Dispatch.live_workers d = 0 && listener = None then begin
                Printf.eprintf "sweep: no workers spawned; degrading to the in-process pool\n%!";
                pool_outcome ()
              end
              else begin
                dispatched := true;
                Sim.Sweep.map_journaled_via
                  ?journal:(Option.map (fun path -> (path, ctx)) journal)
                  ?on_append
                  ~key:(fun p -> p.Sim.Sweep.seed)
                  ~run:(fun idx -> Sim.Dispatch.run d idx)
                  ~emit:(fun _i p e -> emit_row p e)
                  pts
              end)
        in
        (* Read after shutdown, which counts the workers it finds dead. *)
        if !dispatched then begin
          let s = Sim.Dispatch.stats d in
          let ws = Sim.Dispatch.worker_stats d in
          captured := Some (s, ws);
          Printf.eprintf
            "sweep: workers spawned=%d connected=%d died=%d auth-failures=%d rate-limited=%d \
             reassigned-batches=%d inline-tasks=%d\n"
            s.Sim.Dispatch.spawned s.Sim.Dispatch.connected s.Sim.Dispatch.died
            s.Sim.Dispatch.auth_failures s.Sim.Dispatch.rate_limited s.Sim.Dispatch.reassigned
            s.Sim.Dispatch.inline_tasks;
          List.iter
            (fun (w : Sim.Dispatch.worker_stat) ->
              Printf.eprintf
                "sweep: worker %d: tasks=%d wins=%d rate=%.1f/s batches=%d speculative=%d \
                 spec-wins=%d reported=%d\n"
                w.worker w.tasks w.wins w.rate w.batches w.speculative w.spec_wins w.reported)
            ws
        end;
        outcome
      end
    in
    let wall = Unix.gettimeofday () -. wall0 in
    let cpu = Sys.time () -. cpu0 in
    (match stats_out with
    | None -> ()
    | Some file -> (
      let (s : Sim.Dispatch.stats), ws =
        match !captured with
        | Some c -> c
        | None ->
          (* Pool path: no dispatch ran; emit a uniform report so
             tooling can parse wall_seconds regardless of topology. *)
          ( Sim.Dispatch.
              {
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
      let spec_batches =
        List.fold_left (fun a (w : Sim.Dispatch.worker_stat) -> a + w.speculative) 0 ws
      in
      let spec_wins =
        List.fold_left (fun a (w : Sim.Dispatch.worker_stat) -> a + w.spec_wins) 0 ws
      in
      let batch_json =
        match batch with `Fixed n -> string_of_int n | `Auto -> "\"auto\""
      in
      let b = Buffer.create 1024 in
      Printf.bprintf b
        "{\"schema\":\"oracle-size/worker-stats/v1\",\"workers\":%d,\"batch\":%s,\"batch_min\":%d,\"batch_max\":%d,\"wall_seconds\":%.6f,\"cpu_seconds\":%.6f,\"spawned\":%d,\"connected\":%d,\"died\":%d,\"auth_failures\":%d,\"rate_limited\":%d,\"reassigned\":%d,\"inline_tasks\":%d,\"speculative_batches\":%d,\"speculative_wins\":%d,\"worker_stats\":["
        workers batch_json batch_min batch_max wall cpu s.spawned s.connected s.died
        s.auth_failures s.rate_limited s.reassigned s.inline_tasks spec_batches spec_wins;
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
      with Sys_error msg -> usage_error "oraclesize sweep: cannot write --stats-out: %s" msg));
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
      $ retry_arg $ jobs_arg $ workers_arg $ chaos_arg $ heartbeat_timeout_arg $ batch_term
      $ stats_out_arg $ listen_arg $ token_arg $ expect_remote_arg
      $ worker_logs_arg)

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
    Printf.printf "journal:  %s\n" file;
    Printf.printf "spec:     %s\n" ctx.Sim.Journal.spec;
    Printf.printf "context:  %s\n" ctx.Sim.Journal.extra;
    Printf.printf "records:  %d (torn %d bytes truncated, %d duplicate frames ignored)\n"
      (Sim.Journal.count j) stats.Sim.Journal.torn_bytes stats.Sim.Journal.duplicates;
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
    Arg.(
      value
      & opt (int_conv ~min:0 "sample count") 0
      & info [ "sample" ] ~docv:"K"
          ~doc:
            "Re-execute only $(docv) journaled points, chosen by a seeded deterministic \
             draw, instead of all of them (0, the default: verify every record).")
  in
  let vseed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"Seed for the $(b,--sample) draw.")
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
    Arg.(
      value
      & opt (int_conv ~min:0 "worker id") 0
      & info [ "id" ] ~docv:"N" ~doc:"Worker id; it labels log lines and chaos directives.")
  in
  let chaos_arg =
    Arg.(
      value
      & opt chaos_conv Fault.Chaos.none
      & info [ "chaos" ] ~docv:"SPEC" ~doc:"Chaos schedule this worker applies to itself.")
  in
  let connect_arg =
    let hostport_conv =
      result_conv Sim.Transport.parse_hostport (fun (host, port) ->
          Printf.sprintf "%s:%d" host port)
    in
    Arg.(
      value
      & opt (some hostport_conv) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:"Dial a sweep's $(b,--listen) port instead of serving over stdin/stdout.")
  in
  let token_arg =
    Arg.(
      value & opt token_conv ""
      & info [ "token" ] ~docv:"SECRET"
          ~env:(Cmd.Env.info "ORACLE_SIZE_TOKEN" ~doc:"Worker token when $(b,--token) is absent.")
          ~doc:"Shared-secret token to present to the supervisor.  Default: empty.")
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
