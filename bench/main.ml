(* Experiment harness: one table per experiment in DESIGN.md §4.

   Usage: main.exe [--trace-out=FILE] [--stress-out=FILE] [--resilience-out=FILE]
                   [--stress-journal=FILE] [--resilience-journal=FILE]
                   [e1|e2|e3|e4|e5|e6|e7|e8|e9|e10|e11|e12|e13|e14|e15|e16|e17|e18
                    |e19b|e20|e3b|smoke|stress|resilience|micro|all]...
   With no argument, runs every table (micro included).  The [smoke]
   experiment writes a JSON Lines telemetry trace to FILE (default
   smoke.jsonl); [dune build @smoke] produces it as a build artifact.
   The [stress] experiment sweeps every builtin fault plan over every
   scheduler and writes one JSON line per adversarial run to the
   --stress-out FILE (default stress.jsonl); [dune build @stress]
   mirrors @smoke.  The [resilience] experiment sweeps corruption x
   ECC protection x retry budget and writes one JSON line per run to
   the --resilience-out FILE (default resilience.jsonl); [dune build
   @resilience] mirrors @stress.  --stress-journal=FILE and
   --resilience-journal=FILE make those two grids journaled: an
   interrupted run resumes from FILE (docs/JOURNAL_FORMAT.md). *)

open Oracle_core
module Graph = Netgraph.Graph
module Families = Netgraph.Families
module Spanning = Netgraph.Spanning

let seed = 42

let ns_small = [ 16; 32; 64; 128; 256 ]
let ns_medium = [ 64; 128; 256; 512; 1024 ]

let log2f n = Float.log2 (float_of_int n)

(* The frame the tables share: one row per (x, y), x outermost, and the
   same over each family's graph at each node count, built at the table
   seed. *)
let cross xs ys row = List.concat_map (fun x -> List.map (row x) ys) xs
let over fams ns row = cross fams ns (fun fam n -> row fam (Families.build fam ~n ~seed))

(* A run's message count and causal time. *)
let sent r = r.Sim.Runner.stats.Obs.Counting.sent
let depth r = r.Sim.Runner.stats.Obs.Counting.causal_depth

(* {1 E1 — Theorem 2.1: wakeup oracle size and message count} *)

let e1 () =
  let rows =
    over Families.default_sweep ns_medium (fun fam g ->
        let actual = Graph.n g in
        let o = Wakeup.run g ~source:0 in
        [
          Families.name fam;
          Table.i actual;
          Table.i o.Wakeup.advice_bits;
          Table.f2 (float_of_int o.Wakeup.advice_bits /. (float_of_int actual *. log2f actual));
          Table.i (Bounds.wakeup_advice_upper ~n:actual);
          Table.i (sent o.result);
          Table.i (actual - 1);
          Table.b (o.result.all_informed && sent o.result = actual - 1);
        ])
  in
  Table.render
    ~title:"E1 (Thm 2.1): wakeup advice size ~ n log n, messages = n-1"
    ~header:
      [ "family"; "n"; "advice bits"; "bits/(n lg n)"; "budget"; "msgs"; "n-1"; "ok" ]
    ~aligns:[ Table.L; R; R; R; R; R; R; L ]
    rows

(* {1 E2 — Theorem 2.2: the wakeup lower bound} *)

let e2 () =
  let rows =
    List.map
      (fun n ->
        let p = Lower_bound.wakeup_experiment ~n ~seed in
        [
          Table.i p.Lower_bound.wp_n;
          Table.i (2 * p.Lower_bound.wp_n);
          Table.i p.Lower_bound.informed_messages;
          Table.i p.Lower_bound.informed_bits;
          Table.i p.Lower_bound.oblivious_messages;
          Table.i p.Lower_bound.capped_bits;
          Table.f1 p.Lower_bound.counting_bound;
        ])
      ns_small
  in
  Table.render
    ~title:"E2 (Thm 2.2): wakeup on G_{n,S} — informed vs advice-free cost"
    ~header:
      [
        "n";
        "nodes";
        "advised msgs";
        "advised bits";
        "flooding msgs";
        "cap=1/3*2n*lg2n";
        "counting bound";
      ]
    ~aligns:[ Table.R; R; R; R; R; R; R ]
    rows;
  print_endline
    "(the counting bound at the 1/3-cap is asymptotic: negative entries mean the finite-n\n\
    \ count is vacuous there; the threshold table below is the finite-n reading)";
  let rows =
    List.map
      (fun n ->
        let q = Lower_bound.min_advice_for_linear_wakeup ~n ~budget_factor:3.0 in
        let denom = float_of_int (2 * n) *. log2f (2 * n) in
        [
          Table.i n;
          Table.i q;
          Table.f3 (float_of_int q /. denom);
          Table.f2 (float_of_int q /. float_of_int (2 * n));
        ])
      [ 64; 256; 1024; 4096; 16384; 65536 ]
  in
  Table.render
    ~title:
      "E2b (Thm 2.2): advice threshold below which counting forces >3*(2n) messages"
    ~header:[ "n"; "threshold bits q*"; "q*/(2n lg 2n)"; "q*/(2n)" ]
    ~aligns:[ Table.R; R; R; R ]
    rows;
  print_endline
    "(q*/(2n lg 2n) climbs towards the paper's alpha = 1/2 threshold; q*/(2n) grows\n\
    \ unboundedly: the oracle must be superlinear, i.e. Omega(n log n) in shape)";
  let rows =
    cross [ 1; 2; 3; 4 ] [ 1024; 16384 ] (fun c n ->
        let q = Lower_bound.min_advice_for_linear_wakeup_c ~n ~c ~budget_factor:3.0 in
        let nodes = (1 + c) * n in
        [
          Table.i c;
          Table.i n;
          Table.i nodes;
          Table.i q;
          Table.f3 (float_of_int q /. (float_of_int nodes *. log2f nodes));
          Table.f3 (float_of_int c /. float_of_int (c + 1));
        ])
  in
  Table.render
    ~title:
      "E2c (Remark after Thm 2.2): subdividing c*n edges pushes the threshold towards c/(c+1)"
    ~header:[ "c"; "n"; "N=(1+c)n"; "threshold q*"; "q*/(N lg N)"; "limit c/(c+1)" ]
    ~aligns:[ Table.R; R; R; R; R; R ]
    rows;
  print_endline
    "(at fixed n the normalised threshold increases with c, ordered exactly as the\n\
    \ limits c/(c+1) predict: the n log n upper bound is optimal, constant included)"

(* {1 E3 — Claim 3.1: the light spanning tree} *)

let e3 () =
  let st = Random.State.make [| seed |] in
  let rows =
    over Families.default_sweep [ 64; 256; 1024 ] (fun fam g ->
        let actual = Graph.n g in
        let contribution tree = Spanning.contribution g (Spanning.edges tree) in
        let light = contribution (Spanning.light g ~root:0) in
        let bfs = contribution (Spanning.bfs g ~root:0) in
        let dfs = contribution (Spanning.dfs g ~root:0) in
        let rnd = contribution (Spanning.random g ~root:0 st) in
        [
          Families.name fam;
          Table.i actual;
          Table.i light;
          Table.f2 (float_of_int light /. float_of_int actual);
          Table.i (4 * actual);
          Table.i bfs;
          Table.i dfs;
          Table.i rnd;
          Table.b (light <= 4 * actual);
        ])
  in
  Table.render
    ~title:"E3 (Claim 3.1): spanning-tree contribution sum #2(w(e)) — light vs naive trees"
    ~header:[ "family"; "n"; "light"; "light/n"; "4n"; "bfs"; "dfs"; "random"; "<=4n" ]
    ~aligns:[ Table.L; R; R; R; R; R; R; R; L ]
    rows

(* {1 E4 — Theorem 3.1: broadcast with an O(n) oracle} *)

let e4 () =
  let rows =
    over Families.default_sweep ns_medium (fun fam g ->
        let actual = Graph.n g in
        let sync = Broadcast.run ~scheduler:Sim.Scheduler.Synchronous g ~source:0 in
        let asy = Broadcast.run ~scheduler:(Sim.Scheduler.Async_random 7) g ~source:0 in
        let worst = max (sent sync.Broadcast.result) (sent asy.Broadcast.result) in
        [
          Families.name fam;
          Table.i actual;
          Table.i sync.advice_bits;
          Table.f2 (float_of_int sync.advice_bits /. float_of_int actual);
          Table.i (8 * actual);
          Table.i worst;
          Table.f2 (float_of_int worst /. float_of_int actual);
          Table.b
            (sync.result.all_informed && asy.result.all_informed
            && worst < 3 * actual
            && sync.advice_bits <= 8 * actual);
        ])
  in
  Table.render
    ~title:"E4 (Thm 3.1): broadcast — O(n) advice bits, <3n messages (sync & async)"
    ~header:[ "family"; "n"; "advice bits"; "bits/n"; "8n"; "msgs"; "msgs/n"; "ok" ]
    ~aligns:[ Table.L; R; R; R; R; R; R; L ]
    rows

(* {1 E5 — Theorem 3.2 / Claim 3.3: clique price without advice} *)

let e5 () =
  let n = 96 in
  let rows =
    List.map
      (fun k ->
        let p = Lower_bound.broadcast_experiment ~n ~k ~seed in
        [
          Table.i p.Lower_bound.bp_n;
          Table.i p.Lower_bound.bp_k;
          Table.i p.Lower_bound.advised_bits;
          Table.i p.Lower_bound.advised_messages;
          Table.i p.Lower_bound.starved_messages;
          Table.f1 p.Lower_bound.clique_bound;
          Table.b
            (float_of_int p.Lower_bound.starved_messages >= p.Lower_bound.clique_bound
            && p.Lower_bound.advised_messages < 3 * 2 * n);
        ])
      [ 4; 6; 8; 12; 16; 24; 32 ]
  in
  Table.render
    ~title:
      "E5 (Thm 3.2): broadcast on G_{n,S,C} — advised stays linear, advice-free pays Omega(nk)"
    ~header:
      [ "n"; "k"; "advised bits"; "advised msgs"; "advice-free msgs"; "n(k-1)/8"; "ok" ]
    ~aligns:[ Table.R; R; R; R; R; R; L ]
    rows;
  let g, _, _ = Lower_bound.broadcast_hard_graph ~n:48 ~k:8 ~seed in
  let full = Broadcast.run g ~source:0 in
  let budgets = [ 0; 8; 16; 32; 64; 96; full.Broadcast.advice_bits ] in
  let rows =
    List.map
      (fun p ->
        [
          Table.i p.Lower_bound.sv_budget;
          Table.i p.Lower_bound.sv_messages;
          Table.i p.Lower_bound.sv_informed;
          Table.i (Graph.n g);
          Table.b p.Lower_bound.sv_completed;
        ])
      (Lower_bound.starvation_sweep g ~source:0 ~budgets)
  in
  Table.render
    ~title:"E5b: Scheme B under advice starvation (G_{48,S,C} with k=8, full oracle last)"
    ~header:[ "advice budget"; "msgs"; "informed"; "nodes"; "completed" ]
    ~aligns:[ Table.R; R; R; R; L ]
    rows

(* {1 E6 — the headline separation} *)

let e6 () =
  let rows =
    cross Families.default_sweep [ 64; 256; 1024 ] (fun fam n ->
        let m = Separation.measure fam ~n ~seed in
        [
          m.Separation.family;
          Table.i m.n;
          Table.i m.wakeup_bits;
          Table.i m.broadcast_bits;
          Table.f2 m.bits_ratio;
          Table.i m.wakeup_messages;
          Table.i m.broadcast_messages;
          Table.b (m.wakeup_ok && m.broadcast_ok);
        ])
  in
  Table.render
    ~title:
      "E6 (headline): wakeup needs Theta(n log n) advice, broadcast Theta(n) — ratio grows"
    ~header:
      [ "family"; "n"; "wakeup bits"; "bcast bits"; "ratio"; "wakeup msgs"; "bcast msgs"; "ok" ]
    ~aligns:[ Table.L; R; R; R; R; R; R; L ]
    rows;
  let ms = Separation.sweep Families.Sparse_random ~ns:[ 64; 128; 256; 512; 1024 ] ~seed in
  Printf.printf "ratio log-log growth slope on sparse-random: %.3f (log-like: between 0 and 1)\n"
    (Separation.ratio_growth ms)

(* {1 E7 — encoding ablation} *)

let e7 () =
  let rows =
    over Families.default_sweep [ 256 ] (fun fam g ->
        let wbits enc = (Wakeup.run ~encoding:enc g ~source:0).Wakeup.advice_bits in
        let bbits enc = (Broadcast.run ~encoding:enc g ~source:0).Broadcast.advice_bits in
        [
          Families.name fam;
          Table.i (Graph.n g);
          Table.i (wbits Wakeup.Paper);
          Table.i (wbits Wakeup.Paper_minimal);
          Table.i (wbits Wakeup.Gamma);
          Table.i (bbits Broadcast.Marked);
          Table.i (bbits Broadcast.Gamma);
        ])
  in
  Table.render
    ~title:"E7 (ablation): advice size per encoding (n = 256)"
    ~header:
      [
        "family";
        "n";
        "wakeup paper";
        "wakeup minimal";
        "wakeup gamma";
        "bcast marked";
        "bcast gamma";
      ]
    ~aligns:[ Table.L; R; R; R; R; R; R ]
    rows

(* {1 E8 — spanning-tree ablation for the broadcast oracle} *)

let e8 () =
  let st = Random.State.make [| seed |] in
  let rows =
    over [ Families.Complete; Families.Dense_random; Families.Hypercube ] [ 64; 256; 1024 ]
      (fun fam g ->
        let actual = Graph.n g in
        let bits tree = (Broadcast.run ~tree g ~source:0).Broadcast.advice_bits in
        let light = bits (fun g ~root -> Spanning.light g ~root) in
        let bfs = bits (fun g ~root -> Spanning.bfs g ~root) in
        let dfs = bits (fun g ~root -> Spanning.dfs g ~root) in
        let rnd = bits (fun g ~root -> Spanning.random g ~root st) in
        [
          Families.name fam;
          Table.i actual;
          Table.i light;
          Table.i bfs;
          Table.i dfs;
          Table.i rnd;
          Table.i (8 * actual);
          Table.b (light <= 8 * actual);
        ])
  in
  Table.render
    ~title:"E8 (ablation): broadcast advice bits per spanning tree — why Claim 3.1 is needed"
    ~header:[ "family"; "n"; "light"; "bfs"; "dfs"; "random"; "8n"; "light<=8n" ]
    ~aligns:[ Table.L; R; R; R; R; R; R; L ]
    rows

(* {1 E9 — flooding baseline vs Scheme B across densities} *)

let e9 () =
  let n = 256 in
  let rows =
    List.map
      (fun p ->
        let g =
          Netgraph.Gen.random_connected ~n ~p
            (Random.State.make [| seed; int_of_float (p *. 100.) |])
        in
        let advice_free _ = Bitstring.Bitbuf.create () in
        let flood = Sim.Runner.run ~advice:advice_free g ~source:0 Sim.Scheme.flooding in
        let b = Broadcast.run g ~source:0 in
        [
          Table.f2 p;
          Table.i (Graph.m g);
          Table.i (sent flood);
          Table.i (sent b.Broadcast.result);
          Table.f2 (float_of_int (sent flood) /. float_of_int (sent b.result));
          Table.i b.Broadcast.advice_bits;
        ])
      [ 0.02; 0.05; 0.1; 0.2; 0.4; 0.8 ]
  in
  Table.render
    ~title:"E9 (baseline): flooding Theta(m) vs Scheme B Theta(n) messages (n = 256)"
    ~header:[ "p"; "m"; "flooding msgs"; "scheme B msgs"; "flood/B"; "B advice bits" ]
    ~aligns:[ Table.R; R; R; R; R; R ]
    rows

(* {1 E10 — Lemma 2.1: adversary bound vs strategies} *)

let e10 () =
  let row name instances =
    let play s =
      let adv = Edge_discovery.adversary instances in
      (Edge_discovery.play adv s).Edge_discovery.probes_used
    in
    let adv = Edge_discovery.adversary instances in
    [
      name;
      Table.i (List.length instances);
      Table.f1 (Edge_discovery.lower_bound adv);
      Table.i (play Edge_discovery.sequential);
      Table.i (play (Edge_discovery.random_strategy ~seed:1));
      Table.i (play (Edge_discovery.random_strategy ~seed:2));
    ]
  in
  let enumerated =
    List.map
      (fun (n, x) ->
        row
          (Printf.sprintf "full n=%d |X|=%d" n x)
          (Edge_discovery.enumerate_instances ~n ~x_size:x ~excluded:[]))
      [ (4, 1); (4, 2); (5, 2); (6, 2); (6, 3) ]
  in
  let sampled =
    List.map
      (fun (n, x, count) ->
        let st = Random.State.make [| seed; n; x |] in
        row
          (Printf.sprintf "sampled n=%d |X|=%d" n x)
          (List.sort_uniq compare
             (Edge_discovery.sample_instances ~n ~x_size:x ~excluded:[] ~count st)))
      [ (10, 3, 300); (14, 4, 500); (20, 5, 800) ]
  in
  Table.render
    ~title:"E10 (Lemma 2.1): edge-discovery — adversary bound vs actual strategies"
    ~header:[ "family"; "|I|"; "bound lg(|I|/|X|!)"; "sequential"; "random#1"; "random#2" ]
    ~aligns:[ Table.L; R; R; R; R; R ]
    (enumerated @ sampled)


(* {1 E11 — knowledge vs messages vs time} *)

let e11 () =
  let rows =
    over
      [ Families.Sparse_random; Families.Dense_random; Families.Complete; Families.Grid ]
      [ 64; 256; 1024 ]
      (fun fam g ->
        let advice_free _ = Bitstring.Bitbuf.create () in
        let flood =
          Sim.Runner.run ~max_messages:(4 * Graph.m g) ~advice:advice_free g ~source:0
            Sim.Scheme.flooding
        in
        let bc = Broadcast.run g ~source:0 in
        let bc_bfs = Broadcast.run ~tree:(fun g ~root -> Spanning.bfs g ~root) g ~source:0 in
        let wk = Wakeup.run g ~source:0 in
        [
          Families.name fam;
          Table.i (Graph.n g);
          Table.i (sent flood);
          Table.i (depth flood);
          Table.i bc.Broadcast.advice_bits;
          Table.i (sent bc.result);
          Table.i (depth bc.result);
          Table.i bc_bfs.advice_bits;
          Table.i (depth bc_bfs.result);
          Table.i wk.Wakeup.advice_bits;
          Table.i (sent wk.result);
          Table.i (depth wk.result);
        ])
  in
  Table.render
    ~title:
      "E11 (trade-off): advice vs messages vs causal time — flooding / Scheme B (light and BFS trees) / wakeup tree"
    ~header:
      [
        "family"; "n"; "flood msg"; "flood time"; "B bits"; "B msg"; "B time"; "B-bfs bits";
        "B-bfs time"; "wake bits"; "wake msg"; "wake time";
      ]
    ~aligns:[ Table.L; R; R; R; R; R; R; R; R; R; R; R ]
    rows;
  print_endline
    "(Scheme B buys linear messages with ~2 bits/node but its light tree can be deep:\n\
    \ on K*_n its causal time is far above flooding's diameter-2.  Running Scheme B on a\n\
    \ BFS tree instead buys the time back — at ~8x the advice: exactly the knowledge/time\n\
    \ trade-off the paper's conclusion poses)"

(* {1 E12 — gossip} *)

let e12 () =
  let rows =
    over
      [ Families.Random_tree; Families.Grid; Families.Sparse_random; Families.Dense_random ]
      [ 32; 64; 128 ]
      (fun fam g ->
        let tree = Gossip.run g ~source:0 in
        let flood = Gossip.run_flooding g ~source:0 in
        [
          Families.name fam;
          Table.i (Graph.n g);
          Table.i tree.Gossip.advice_bits;
          Table.i (sent tree.result);
          Table.i (2 * (Graph.n g - 1));
          Table.i (sent flood.result);
          Table.b (tree.complete && flood.complete);
        ])
  in
  Table.render
    ~title:"E12 (gossip): tree advice gives 2(n-1) messages; advice-free flooding pays Θ(nm)"
    ~header:
      [ "family"; "n"; "advice bits"; "tree msgs"; "2(n-1)"; "flooding msgs"; "complete" ]
    ~aligns:[ Table.L; R; R; R; R; R; L ]
    rows

(* {1 E13 — radius-ρ knowledge (AGPV trade-off)} *)

let e13 () =
  let rows =
    List.concat
      (over [ Families.Sparse_random; Families.Dense_random; Families.Complete ] [ 96 ]
         (fun fam g ->
           List.map
             (fun rho ->
               let o = Neighborhood.run ~rho g ~source:0 in
               [
                 Families.name fam;
                 Table.i (Graph.n g);
                 Table.i (Graph.m g);
                 Table.i rho;
                 Table.i o.Neighborhood.advice_bits;
                 Table.i (sent o.result);
                 Table.b o.result.all_informed;
               ])
             [ 0; 1; 2; 3 ]))
  in
  Table.render
    ~title:
      "E13 (AGPV [1]): wakeup from radius-rho knowledge — messages collapse at rho=1,\n\
      \   advice keeps exploding after"
    ~header:[ "family"; "n"; "m"; "rho"; "advice bits"; "msgs"; "ok" ]
    ~aligns:[ Table.L; R; R; R; R; R; L ]
    rows

(* {1 E14 — exploration by mobile agents} *)

let e14 () =
  let no_advice = Bitstring.Bitbuf.create () in
  let rows =
    over [ Families.Random_tree; Families.Grid; Families.Hypercube; Families.Dense_random ] [ 128 ]
      (fun fam g ->
        let actual = Graph.n g and m = Graph.m g in
        let d = Netgraph.Traverse.diameter g in
        let dfs = Agent.Walker.run ~advice:no_advice g ~start:0 Agent.Explore.dfs in
        let rotor =
          Agent.Walker.run
            ~max_moves:((4 * m * (d + 1)) + (2 * m))
            ~advice:no_advice g ~start:0 Agent.Explore.rotor_router
        in
        let walk =
          Agent.Walker.run ~max_moves:(200 * m * actual) ~advice:no_advice g ~start:0
            (Agent.Explore.random_walk ~seed)
        in
        let route = Agent.Explore.route_advice g ~start:0 in
        let guided = Agent.Walker.run ~advice:route g ~start:0 Agent.Explore.guided in
        let cover o = match o.Agent.Walker.moves_to_cover with Some c -> c | None -> -1 in
        [
          Families.name fam;
          Table.i actual;
          Table.i m;
          Table.i (cover dfs);
          Table.i (cover rotor);
          Table.i (cover walk);
          Table.i (cover guided);
          Table.i (Bitstring.Bitbuf.length route);
          Table.b (dfs.Agent.Walker.covered && rotor.covered && walk.covered && guided.covered);
        ])
  in
  Table.render
    ~title:
      "E14 (conclusion): exploration — moves to visit all nodes, advice-free vs oracle route"
    ~header:
      [ "family"; "n"; "m"; "dfs"; "rotor"; "random walk"; "guided"; "route bits"; "ok" ]
    ~aligns:[ Table.L; R; R; R; R; R; R; R; L ]
    rows

(* {1 E15 — radio broadcast: knowledge vs time} *)

let e15 () =
  let no_advice _ = Bitstring.Bitbuf.create () in
  let rows =
    over [ Families.Path; Families.Grid; Families.Sparse_random; Families.Complete ] [ 64; 256 ]
      (fun fam g ->
        let rr = Radio.Model.run ~advice:no_advice g ~source:0 Radio.Protocols.round_robin in
        let dc =
          List.map
            (fun s ->
              (Radio.Model.run ~advice:no_advice g ~source:0 (Radio.Protocols.decay ~seed:s))
                .Radio.Model.rounds)
            [ 1; 2; 3; 4; 5 ]
        in
        let dc_mean = float_of_int (List.fold_left ( + ) 0 dc) /. float_of_int (List.length dc) in
        let advice = Radio.Protocols.schedule_oracle g ~source:0 in
        let sc =
          Radio.Model.run ~advice:(Oracles.Advice.get advice) g ~source:0 Radio.Protocols.scheduled
        in
        [
          Families.name fam;
          Table.i (Graph.n g);
          Table.i (Netgraph.Traverse.diameter g);
          Table.i rr.Radio.Model.rounds;
          Table.f1 dc_mean;
          Table.i sc.rounds;
          Table.i (Oracles.Advice.size_bits advice);
          Table.b (rr.all_informed && sc.all_informed);
        ])
  in
  Table.render
    ~title:
      "E15 (radio, §1.1 evidence): rounds to broadcast — labels-only vs randomized vs full map"
    ~header:
      [ "family"; "n"; "D"; "round-robin"; "decay (mean)"; "scheduled"; "schedule bits"; "ok" ]
    ~aligns:[ Table.L; R; R; R; R; R; R; L ]
    rows

(* {1 E3b — port-labeling sensitivity} *)

let e3b () =
  let st = Random.State.make [| seed |] in
  let rows =
    over Families.default_sweep [ 256 ] (fun fam g ->
        let actual = Graph.n g in
        let contribution graph =
          Spanning.contribution graph (Spanning.edges (Spanning.light graph ~root:0))
        in
        let original = contribution g in
        let permuted =
          List.init 5 (fun _ -> contribution (Netgraph.Transform.permute_ports g st))
        in
        let mean =
          float_of_int (List.fold_left ( + ) 0 permuted) /. float_of_int (List.length permuted)
        in
        let worst = List.fold_left max 0 permuted in
        [
          Families.name fam;
          Table.i actual;
          Table.i original;
          Table.f1 mean;
          Table.i worst;
          Table.i (4 * actual);
          Table.b (worst <= 4 * actual);
        ])
  in
  Table.render
    ~title:
      "E3b: Claim 3.1 under adversarial port relabelings — the 4n bound is labeling-proof"
    ~header:[ "family"; "n"; "original"; "permuted mean"; "permuted worst"; "4n"; "<=4n" ]
    ~aligns:[ Table.L; R; R; R; R; R; L ]
    rows


(* {1 E16 — election: a task that is knowledge-cheap} *)

let e16 () =
  let rows =
    over
      [ Families.Cycle; Families.Grid; Families.Sparse_random; Families.Dense_random ]
      [ 64; 256 ]
      (fun fam g ->
        let free = Election.max_finding g in
        let marked = Election.with_marked_leader g in
        let b = Broadcast.run g ~source:0 in
        let w = Wakeup.run g ~source:0 in
        [
          Families.name fam;
          Table.i (Graph.n g);
          Table.i (sent free.Election.result);
          Table.i marked.advice_bits;
          Table.i (sent marked.result);
          Table.i b.Broadcast.advice_bits;
          Table.i w.Wakeup.advice_bits;
          Table.b (free.ok && marked.ok);
        ])
  in
  Table.render
    ~title:
      "E16 (contrast task): election needs 1 oracle bit — vs Theta(n) broadcast, Theta(n log n) wakeup"
    ~header:
      [
        "family"; "n"; "advice-free msgs"; "oracle bits"; "oracle msgs"; "bcast bits";
        "wakeup bits"; "ok";
      ]
    ~aligns:[ Table.L; R; R; R; R; R; R; L ]
    rows

(* {1 E17 — tree construction (the §1.2 task)} *)

let e17 () =
  let rows =
    over
      [ Families.Grid; Families.Sparse_random; Families.Dense_random; Families.Complete ]
      [ 64; 256; 1024 ]
      (fun fam g ->
        let flood =
          Tree_construction.flood_build ~scheduler:Sim.Scheduler.Synchronous g ~source:0
        in
        let advised = Tree_construction.advised_build g ~source:0 in
        [
          Families.name fam;
          Table.i (Graph.n g);
          Table.i (Graph.m g);
          Table.i (sent flood.Tree_construction.result);
          Table.b flood.is_bfs;
          Table.i advised.advice_bits;
          Table.i (sent advised.result);
          Table.b (flood.tree <> None && advised.tree <> None);
        ])
  in
  Table.render
    ~title:
      "E17 (§1.2 task): BFS-tree construction — Theta(m) messages advice-free, zero with the oracle"
    ~header:
      [ "family"; "n"; "m"; "flood msgs"; "BFS?"; "oracle bits"; "oracle msgs"; "ok" ]
    ~aligns:[ Table.L; R; R; R; L; R; R; L ]
    rows


(* {1 E18 — distributed MST (the other §1.2 construction task)} *)

let e18 () =
  let rows =
    over
      [ Families.Grid; Families.Sparse_random; Families.Dense_random; Families.Complete ]
      [ 32; 64; 128 ]
      (fun fam g ->
        let d = Syncnet.Boruvka.distributed_build g in
        let a = Syncnet.Boruvka.advised_build g in
        [
          Families.name fam;
          Table.i (Graph.n g);
          Table.i (Graph.m g);
          Table.i d.Syncnet.Boruvka.result.Syncnet.Model.messages;
          Table.i d.result.rounds;
          Table.i a.advice_bits;
          Table.i a.result.messages;
          Table.b (d.matches_reference && a.matches_reference);
        ])
  in
  Table.render
    ~title:
      "E18 (§1.2 task): MST — distributed Boruvka O(m log n) msgs vs zero with the MST-ports oracle"
    ~header:
      [ "family"; "n"; "m"; "boruvka msgs"; "rounds"; "oracle bits"; "oracle msgs"; "= MST" ]
    ~aligns:[ Table.L; R; R; R; R; R; R; L ]
    rows


(* {1 E19b — robustness under message loss (model ablation)} *)

let e19b () =
  let g = Families.build Families.Sparse_random ~n:128 ~seed in
  let n = Graph.n g in
  let informed_fraction result =
    let c = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 result.Sim.Runner.informed in
    float_of_int c /. float_of_int n
  in
  let mean_over_seeds f =
    let vals = List.map f [ 1; 2; 3; 4; 5 ] in
    List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals)
  in
  let rows =
    List.map
      (fun p ->
        let run_loss seed scheme advice =
          Sim.Runner.run ~faults:{ Sim.Fault_plan.none with drop = p; seed } ~advice g ~source:0
            scheme
        in
        let no_advice _ = Bitstring.Bitbuf.create () in
        let flood = mean_over_seeds (fun s -> informed_fraction (run_loss s Sim.Scheme.flooding no_advice)) in
        let bo = Broadcast.oracle () in
        let badvice = Oracles.Oracle.advice_fun bo g ~source:0 in
        let bcast = mean_over_seeds (fun s -> informed_fraction (run_loss s (Broadcast.scheme ()) badvice)) in
        let wo = Wakeup.oracle () in
        let wadvice = Oracles.Oracle.advice_fun wo g ~source:0 in
        let wake = mean_over_seeds (fun s -> informed_fraction (run_loss s (Wakeup.scheme ()) wadvice)) in
        [ Table.f2 p; Table.f3 flood; Table.f3 bcast; Table.f3 wake ])
      [ 0.0; 0.02; 0.05; 0.1; 0.2 ]
  in
  Table.render
    ~title:
      "E19b (model ablation): informed fraction under message loss (n=128 sparse-random,\n\
      \   mean of 5 loss seeds) — message-optimal schemes have zero redundancy to spare"
    ~header:[ "loss p"; "flooding"; "scheme B"; "wakeup tree" ]
    ~aligns:[ Table.R; R; R; R ]
    rows

(* {1 E20 — spanner construction (the conclusion's extension)} *)

let e20 () =
  let rows =
    List.concat
      (over [ Families.Sparse_random; Families.Dense_random; Families.Complete ] [ 96 ]
         (fun fam g ->
           List.map
             (fun stretch ->
               let o = Spanner.measure g ~stretch in
               [
                 Families.name fam;
                 Table.i (Graph.n g);
                 Table.i (Graph.m g);
                 Table.i o.Spanner.stretch;
                 Table.i o.edges_kept;
                 Table.i o.advice_bits;
                 Table.f1 o.measured_stretch;
                 Table.b o.valid;
               ])
             [ 1; 3; 5 ]))
  in
  Table.render
    ~title:"E20 (conclusion): greedy t-spanner oracles — edges and advice vs stretch"
    ~header:[ "family"; "n"; "m"; "t"; "edges kept"; "advice bits"; "worst stretch"; "ok" ]
    ~aligns:[ Table.L; R; R; R; R; R; R; L ]
    rows

(* {1 Smoke — one small run that emits a JSONL telemetry artifact} *)

let trace_out = ref "smoke.jsonl"

let smoke () =
  let g = Families.build Families.Sparse_random ~n:32 ~seed in
  let file = Obs.Jsonl.file_sink !trace_out in
  let ring = Obs.Ring.create ~capacity:64 in
  let o =
    Fun.protect
      ~finally:(fun () -> Obs.Sink.close file)
      (fun () -> Wakeup.run ~sinks:[ file; Obs.Ring.sink ring ] g ~source:0)
  in
  let stats = o.Wakeup.result.Sim.Runner.stats in
  let events = Obs.Jsonl.read_file !trace_out in
  let replayed = Obs.Replay.replay ~n:(Graph.n g) events in
  Printf.printf
    "smoke: wakeup on sparse-random n=%d — %d msgs, %d advice bits; trace %s (%d events,\n\
    \  ring kept last %d); replay agrees: %b\n"
    (Graph.n g) stats.Obs.Counting.sent o.Wakeup.advice_bits !trace_out (List.length events)
    (Obs.Ring.length ring)
    (replayed.Obs.Replay.all_informed = o.Wakeup.result.Sim.Runner.all_informed
    && replayed.Obs.Replay.summary.Obs.Counting.sent = stats.Obs.Counting.sent)

(* {1 Stress — every builtin fault plan x every scheduler x graph family} *)

let stress_out = ref "stress.jsonl"

(* One adversarial run of the stress grid: returns the serialized JSONL
   row plus the aggregates the summary table needs.  Runs on a pool
   worker, so it touches no shared mutable state: the graph is immutable,
   the raw advice comes from the worker's own cache, and the row string
   is written by the main domain after the join. *)
type stress_task = {
  st_proto : Fault.Harness.protocol;
  st_plan_name : string;
  st_plan : Fault.Plan.t;
  st_gname : string;
  st_graph : Graph.t;
  st_sched : Sim.Scheduler.t;
}

(* Journaled bench runs: [--stress-journal=FILE] / [--resilience-journal=FILE]
   make the grids crash-safe and resumable through the same machinery as
   [oraclesize sweep --journal].  Bench tasks are not sweep points, so
   each grid keys its journal by a coordinate hash of its own task
   tokens; the superblock spec names the grid shape so a stress journal
   can never resume a resilience run (or a reshaped grid). *)
let stress_journal = ref None

let resilience_journal = ref None

(* The journaled-grid driver shared by stress and resilience: run [tasks]
   over a domain pool through [Sim.Sweep.map_journaled] (journaled under
   the spec bench-<name>-v1 when [journal] is set), write one [row] per
   task to [out] in task order, and return the entries grouped by
   [tally_key], the graceful count and a timing note.  A journal error
   or a failed task exits 1.  Rows are a pure function of (task, entry),
   so replayed and freshly executed points print the same bytes. *)
let journaled_grid ~name ~out ~journal ~key ~entry ~row ~tally_key ~label tasks =
  let jobs = Sim.Pool.default_jobs () in
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  let oc = open_out out in
  let graceful = ref 0 in
  let tally = Hashtbl.create 64 in
  let outcome =
    Sim.Sweep.map_journaled ~jobs
      ?journal:
        (Option.map
           (fun path -> (path, { Sim.Journal.spec = "bench-" ^ name ^ "-v1"; extra = "" }))
           journal)
      ~key
      ~local:(fun () -> Sim.Sweep.Cache.create ())
      ~f:(fun cache _i t -> entry cache t)
      ~emit:(fun _i t e ->
        if Sim.Journal.graceful e then incr graceful;
        Hashtbl.add tally (tally_key t) e;
        output_string oc (row t e);
        output_char oc '\n')
      tasks
  in
  let wall = Unix.gettimeofday () -. wall0 in
  let cpu = Sys.time () -. cpu0 in
  close_out oc;
  let stats =
    match outcome with
    | Error msg ->
      Printf.eprintf "%s: journal: %s\n" name msg;
      exit 1
    | Ok stats -> stats
  in
  List.iter
    (fun (i, msg) -> Printf.eprintf "%s: task %d (%s) failed: %s\n" name i (label tasks.(i)) msg)
    stats.Sim.Sweep.failed;
  if stats.Sim.Sweep.failed <> [] then exit 1;
  (match (journal, stats.Sim.Sweep.recovery) with
  | Some path, Some r ->
    Printf.eprintf "%s: journal %s: replayed %d, skipped %d, executed %d\n" name path
      r.Sim.Journal.replayed stats.Sim.Sweep.skipped stats.Sim.Sweep.executed
  | _ -> ());
  (Hashtbl.find_all tally, !graceful, Printf.sprintf "jobs=%d wall=%.2fs cpu=%.2fs" jobs wall cpu)

(* Completed, degraded, stalled and violated counts, as table cells. *)
let verdict_cells entries =
  List.map
    (fun cls ->
      let of_class (e : Sim.Journal.entry) = e.Sim.Journal.verdict_class = cls in
      Table.i (List.length (List.filter of_class entries)))
    [ Sim.Journal.Completed; Degraded; Stalled; Violated ]

let stress_entry advice_cache t =
  Fault.Harness.cached_entry ~scheduler:t.st_sched ~plan:t.st_plan advice_cache
    ~graph_key:t.st_gname t.st_proto t.st_graph

let stress_key t =
  Sim.Sweep.derive_seed 0
    [
      "stress";
      Fault.Harness.protocol_name t.st_proto;
      t.st_plan_name;
      t.st_gname;
      Sim.Scheduler.name t.st_sched;
    ]

let stress_row t (e : Sim.Journal.entry) =
  Printf.sprintf
    {|{"protocol":"%s","graph":"%s","n":%d,"m":%d,"scheduler":"%s","plan":"%s","sent":%d,"faults":%d,"fallbacks":%d,"tampered":%d,"retransmits":%d,"corrected_bits":%d,"informed":%d,"class":"%s","verdict":"%s"}|}
    (Fault.Harness.protocol_name t.st_proto)
    (Obs.Jsonl.escape t.st_gname) e.Sim.Journal.n e.Sim.Journal.m
    (Obs.Jsonl.escape (Sim.Scheduler.name t.st_sched))
    (Obs.Jsonl.escape t.st_plan_name) e.Sim.Journal.messages e.Sim.Journal.faults
    e.Sim.Journal.fallbacks e.Sim.Journal.tampered e.Sim.Journal.retransmits
    e.Sim.Journal.corrected_bits e.Sim.Journal.informed
    (Sim.Journal.class_name e.Sim.Journal.verdict_class)
    (Obs.Jsonl.escape e.Sim.Journal.verdict)

let stress () =
  let graphs =
    [
      ("random-tree", Families.build Families.Random_tree ~n:24 ~seed);
      ("sparse-random", Families.build Families.Sparse_random ~n:24 ~seed);
      ("G_{12,S}", fst (Lower_bound.wakeup_hard_graph ~n:12 ~seed));
    ]
  in
  let protocols = [ Fault.Harness.Wakeup; Fault.Harness.Broadcast ] in
  (* Task order IS the emission order: the exact nesting of the old
     sequential loops, so stress.jsonl is byte-identical at any job
     count (the CI determinism gate diffs -j 1 against -j 2). *)
  let tasks =
    cross protocols Fault.Plan.builtins (fun proto (plan_name, plan) ->
        cross graphs Sim.Scheduler.default_suite (fun (gname, g) scheduler ->
            {
              st_proto = proto;
              st_plan_name = plan_name;
              st_plan = plan;
              st_gname = gname;
              st_graph = g;
              st_sched = scheduler;
            }))
    |> List.concat |> Array.of_list
  in
  let entries, graceful, timing =
    journaled_grid ~name:"stress" ~out:!stress_out ~journal:!stress_journal ~key:stress_key
      ~entry:stress_entry ~row:stress_row
      ~tally_key:(fun t -> (Fault.Harness.protocol_name t.st_proto, t.st_plan_name))
      ~label:(fun t ->
        Printf.sprintf "%s/%s/%s" (Fault.Harness.protocol_name t.st_proto) t.st_gname
          t.st_plan_name)
      tasks
  in
  let rows =
    cross protocols Fault.Plan.builtins (fun proto (plan_name, _) ->
        let name = Fault.Harness.protocol_name proto in
        name :: plan_name :: verdict_cells (entries (name, plan_name)))
  in
  Table.render
    ~title:
      "Stress: verdicts per fault plan over 5 schedulers x 3 graphs (tree, sparse, G_{n,S}) — \
       no run may abort"
    ~header:[ "protocol"; "plan"; "completed"; "degraded"; "stalled"; "violated" ]
    ~aligns:[ Table.L; L; R; R; R; R ]
    rows;
  let runs = Array.length tasks in
  Printf.printf "stress: %d adversarial runs -> %s; graceful (completed or degraded): %d/%d (%s)\n"
    runs !stress_out graceful runs timing

(* {1 Resilience — the recovery frontier: corruption x protection x retry} *)

let resilience_out = ref "resilience.jsonl"

type resilience_task = {
  rt_plan_name : string;
  rt_plan : Fault.Plan.t;
  rt_protect : Bitstring.Ecc.level;
  rt_retry : int;
  rt_proto : Fault.Harness.protocol;
  rt_gname : string;
  rt_graph : Graph.t;
}

(* Advice depends only on (protocol, graph): one cache entry serves the
   whole plan x protection x retry frontier over it. *)
let resilience_entry advice_cache t =
  Fault.Harness.cached_entry ~plan:t.rt_plan ~protect:t.rt_protect ~retry:t.rt_retry advice_cache
    ~graph_key:t.rt_gname t.rt_proto t.rt_graph

let resilience_key t =
  Sim.Sweep.derive_seed 0
    [
      "resilience";
      t.rt_plan_name;
      Bitstring.Ecc.name t.rt_protect;
      string_of_int t.rt_retry;
      Fault.Harness.protocol_name t.rt_proto;
      t.rt_gname;
    ]

let resilience_overhead (e : Sim.Journal.entry) =
  if e.Sim.Journal.raw_advice_bits = 0 then 1.0
  else float_of_int e.Sim.Journal.advice_bits /. float_of_int e.Sim.Journal.raw_advice_bits

let resilience_row t (e : Sim.Journal.entry) =
  Printf.sprintf
    {|{"protocol":"%s","graph":"%s","n":%d,"m":%d,"plan":"%s","protect":"%s","retry":%d,"raw_bits":%d,"protected_bits":%d,"overhead":%.3f,"sent":%d,"retransmits":%d,"corrected_bits":%d,"fallbacks":%d,"class":"%s"}|}
    (Fault.Harness.protocol_name t.rt_proto)
    (Obs.Jsonl.escape t.rt_gname) e.Sim.Journal.n e.Sim.Journal.m
    (Obs.Jsonl.escape t.rt_plan_name)
    (Bitstring.Ecc.name t.rt_protect) t.rt_retry e.Sim.Journal.raw_advice_bits
    e.Sim.Journal.advice_bits (resilience_overhead e) e.Sim.Journal.messages
    e.Sim.Journal.retransmits e.Sim.Journal.corrected_bits e.Sim.Journal.fallbacks
    (Sim.Journal.class_name e.Sim.Journal.verdict_class)

let resilience () =
  let graphs =
    [
      ("random-tree", Families.build Families.Random_tree ~n:24 ~seed);
      ("sparse-random", Families.build Families.Sparse_random ~n:24 ~seed);
    ]
  in
  let plans =
    List.map
      (fun name -> (name, Fault.Plan.of_string_exn name))
      [
        "advice-flip=1,seed=5";
        "advice-flip=4,seed=5";
        "drop=0.1,seed=7";
        "drop=0.1,crash=1@3,seed=7";
      ]
  in
  let levels = Bitstring.Ecc.all in
  let retries = [ 0; 2 ] in
  let protocols = [ Fault.Harness.Wakeup; Fault.Harness.Broadcast ] in
  (* Canonical order = the old sequential nesting (plans, levels, retries,
     protocols, graphs); emission replays it after the join. *)
  let tasks =
    cross plans levels (fun (plan_name, plan) protect ->
        cross retries protocols (fun retry proto ->
            List.map
              (fun (gname, g) ->
                {
                  rt_plan_name = plan_name;
                  rt_plan = plan;
                  rt_protect = protect;
                  rt_retry = retry;
                  rt_proto = proto;
                  rt_gname = gname;
                  rt_graph = g;
                })
              graphs))
    |> List.concat |> List.concat |> Array.of_list
  in
  let entries, graceful, timing =
    journaled_grid ~name:"resilience" ~out:!resilience_out ~journal:!resilience_journal
      ~key:resilience_key ~entry:resilience_entry ~row:resilience_row
      ~tally_key:(fun t -> (t.rt_plan_name, t.rt_protect, t.rt_retry))
      ~label:(fun t ->
        Printf.sprintf "%s/%s/%s" (Fault.Harness.protocol_name t.rt_proto) t.rt_gname
          t.rt_plan_name)
      tasks
  in
  let rows =
    cross plans levels (fun (plan_name, _) protect ->
        List.map
          (fun retry ->
            let es = entries (plan_name, protect, retry) in
            let worst_overhead = List.fold_left (fun w e -> max w (resilience_overhead e)) 1.0 es in
            [ plan_name; Bitstring.Ecc.name protect; Table.i retry; Table.f2 worst_overhead ]
            @ verdict_cells es)
          retries)
    |> List.concat
  in
  Table.render
    ~title:
      "Resilience frontier: verdicts per corruption x protection x retry (wakeup + broadcast,\n\
      \   2 graphs) — protection absorbs flips, retries absorb drops and crashes"
    ~header:
      [ "plan"; "protect"; "retry"; "bit overhead"; "completed"; "degraded"; "stalled"; "violated" ]
    ~aligns:[ Table.L; L; R; R; R; R; R; R ]
    rows;
  let runs = Array.length tasks in
  Printf.printf "resilience: %d adversarial runs -> %s; graceful: %d/%d (%s)\n" runs
    !resilience_out graceful runs timing

(* {1 Micro-benchmarks (Bechamel)} *)

let micro () =
  let open Bechamel in
  let g = Families.build Families.Sparse_random ~n:256 ~seed in
  let hard, _, _ = Lower_bound.broadcast_hard_graph ~n:64 ~k:8 ~seed in
  let instances =
    Edge_discovery.sample_instances ~n:10 ~x_size:3 ~excluded:[] ~count:200
      (Random.State.make [| seed |])
  in
  let tests =
    [
      Test.make ~name:"light-tree n=256" (Staged.stage (fun () -> Spanning.light g ~root:0));
      Test.make ~name:"bfs-tree n=256" (Staged.stage (fun () -> Spanning.bfs g ~root:0));
      Test.make ~name:"wakeup-oracle+run n=256" (Staged.stage (fun () -> Wakeup.run g ~source:0));
      Test.make ~name:"broadcast-oracle+run n=256"
        (Staged.stage (fun () -> Broadcast.run g ~source:0));
      Test.make ~name:"broadcast hard G_{64,S,C}"
        (Staged.stage (fun () -> Broadcast.run hard ~source:0));
      Test.make ~name:"adversary play n=10"
        (Staged.stage (fun () ->
             Edge_discovery.play
               (Edge_discovery.adversary instances)
               (Edge_discovery.random_strategy ~seed:3)));
    ]
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  print_endline "\n== B1: micro-benchmarks (ns/run, OLS on monotonic clock) ==";
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-32s %12.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "%-32s (no estimate)\n" name)
        results)
    tests

let experiments =
  [
    ("e1", e1);
    ("e2", e2);
    ("e3", e3);
    ("e4", e4);
    ("e5", e5);
    ("e6", e6);
    ("e7", e7);
    ("e8", e8);
    ("e9", e9);
    ("e10", e10);
    ("e11", e11);
    ("e12", e12);
    ("e13", e13);
    ("e14", e14);
    ("e15", e15);
    ("e16", e16);
    ("e17", e17);
    ("e18", e18);
    ("e19b", e19b);
    ("e20", e20);
    ("e3b", e3b);
    ("smoke", smoke);
    ("stress", stress);
    ("resilience", resilience);
    ("micro", micro);
  ]

let () =
  let options =
    [
      ("--trace-out=", fun v -> trace_out := v);
      ("--stress-out=", fun v -> stress_out := v);
      ("--resilience-out=", fun v -> resilience_out := v);
      ("--stress-journal=", fun v -> stress_journal := Some v);
      ("--resilience-journal=", fun v -> resilience_journal := Some v);
    ]
  in
  let args = Opts.parse options (List.tl (Array.to_list Sys.argv)) in
  let requested =
    match args with
    | args when args <> [] && args <> [ "all" ] -> args
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat ", " (List.map fst experiments));
        exit 1)
    requested
