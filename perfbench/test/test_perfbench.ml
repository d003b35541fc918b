(* The benchmark's own tests, on reduced sizes of its four workloads. *)

open Perfbench

let exe = "../../bin/oraclesize.exe"

let bench_exe = "../bench.exe"

let cfg ?(trace = false) seed =
  { Workloads.seed; seconds = 0.01; trace; worker_exe = exe; bench_exe; work_dir = "." }

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The grid workload's rows are the bytes [oraclesize sweep] prints for
   the same grid, seed and retry budget. *)
let grid_matches_cli () =
  let seed = 5 in
  let spec = Workloads.grid_spec ~reps:1 ~seed in
  let grid = Workloads.grid_of spec in
  let pts = Sim.Sweep.points grid in
  let em = Workloads.emitted (Array.length pts) in
  let stats, _ =
    Workloads.sweep_in_process ~path:"bench-grid.journal" ~jctx:(Rows.context grid ~retry:2)
      ~retry:2 grid pts em
  in
  Sys.remove "bench-grid.journal";
  ignore (Result.get_ok stats);
  let ours = String.concat "" (List.map (fun r -> r ^ "\n") (Array.to_list (Workloads.rows_of em))) in
  let cmd =
    Printf.sprintf
      "%s sweep %s -j 1 --retry 2 --journal cli-grid.journal --out cli-grid.jsonl 2>/dev/null" exe
      (Filename.quote spec)
  in
  Alcotest.(check int) "oraclesize sweep exits 0" 0 (Sys.command cmd);
  let theirs = read_file "cli-grid.jsonl" in
  Sys.remove "cli-grid.jsonl";
  Sys.remove "cli-grid.journal";
  Alcotest.(check int) "row count" (Array.length pts)
    (List.length (String.split_on_char '\n' theirs) - 1);
  Alcotest.(check string) "rows byte-identical" theirs ours

let edges g =
  List.init (Netgraph.Graph.n g) (fun v -> Netgraph.Graph.neighbors g v)

(* The seed moves the graphs, never the amount of work. *)
let seed_changes_graphs () =
  List.iter
    (fun (name, spec) ->
      let g1 = Workloads.grid_of (spec 1) and g2 = Workloads.grid_of (spec 2) in
      let p1 = Sim.Sweep.points g1 and p2 = Sim.Sweep.points g2 in
      Alcotest.(check int) (name ^ " point count") (Array.length p1) (Array.length p2);
      let graph grid (p : Sim.Sweep.point) =
        Netgraph.Families.build p.family ~n:p.n ~seed:(Sim.Sweep.graph_seed grid p)
      in
      Alcotest.(check bool)
        (name ^ " graphs differ")
        false
        (edges (graph g1 p1.(0)) = edges (graph g2 p2.(0))))
    [
      ("grid", fun seed -> Workloads.grid_spec ~reps:2 ~seed);
      ("fleet", fun seed -> Workloads.fleet_spec ~reps:2 ~seed);
    ];
  let s1 = Workloads.scale_graph ~n:2000 ~seed:1 and s2 = Workloads.scale_graph ~n:2000 ~seed:2 in
  Alcotest.(check int) "scale n" (Netgraph.Graph.n s1) (Netgraph.Graph.n s2);
  Alcotest.(check bool) "scale graphs differ" false (edges s1 = edges s2)

(* A row whose bytes differ from the reference, a clean point that
   misses its theorem, and a violated verdict each count as one failed
   operation. *)
let failures_counted () =
  let grid = Workloads.grid_of (Workloads.grid_spec ~reps:1 ~seed:3) in
  let pts = Sim.Sweep.points grid in
  let caches = Rows.fresh_caches () in
  let em = Workloads.emitted (Array.length pts) in
  Array.iteri (fun i p -> Workloads.emit em i p (Rows.execute grid ~retry:2 caches p)) pts;
  let reference = Workloads.rows_of em in
  Alcotest.(check int) "clean pass" 0 (Workloads.check_rows pts em ~reference);
  let corrupted = Array.copy reference in
  corrupted.(4) <- String.map (fun c -> if c = '0' then '1' else c) corrupted.(4);
  Alcotest.(check int) "corrupted row" 1 (Workloads.check_rows pts em ~reference:corrupted);
  let clean_wakeup =
    let rec find i =
      let p = pts.(i) in
      if p.protocol = "wakeup" && Sim.Fault_plan.is_none p.plan then i else find (i + 1)
    in
    find 0
  in
  let e = Option.get em.entries.(clean_wakeup) in
  em.entries.(clean_wakeup) <- Some { e with messages = e.messages + 1 };
  Alcotest.(check int) "missed bound" 1 (Workloads.check_rows pts em ~reference);
  em.entries.(clean_wakeup) <- Some { e with verdict_class = Sim.Journal.Violated };
  Alcotest.(check int) "violated" 1 (Workloads.check_rows pts em ~reference);
  Alcotest.(check bool) "broadcast over 8n bits" false
    (Rows.within_theorem Fault.Harness.Broadcast ~n:10 ~messages:5 ~advice_bits:81)

(* Two traced runs with the same seed print identical counts, and every
   per-layer metric; the layers each workload calls read non-zero. *)
let counts_repeat () =
  let runs name make ~nonzero =
    let once () =
      let c = cfg ~trace:true 9 in
      let r = Workloads.run c (make c) in
      Alcotest.(check bool) (name ^ " correct") true r.Workloads.correct;
      Alcotest.(check (list string))
        (name ^ " prints every per-layer metric")
        (List.map fst Layers.per_layer) (List.map fst r.metrics);
      r.metrics
    in
    let a = once () and b = once () in
    List.iter
      (fun m ->
        Alcotest.(check (float 0.)) (name ^ " " ^ m) (List.assoc m a) (List.assoc m b))
      Layers.counts;
    List.iter
      (fun m -> Alcotest.(check bool) (name ^ " " ^ m ^ " > 0") true (List.assoc m a > 0.))
      ("trace.explained_share" :: nonzero)
  in
  runs "grid" (Workloads.grid ~reps:1 ~probe_reps:10)
    ~nonzero:
      [
        "gen.s"; "advise.bits"; "harness.s"; "harness.events"; "verdict.s"; "sweep.graph_hit_ratio";
        "journal.append_s"; "journal.bytes_per_point"; "journal.replay_s"; "emit.s";
        "dispatch.spawn_s"; "dispatch.run_s"; "dispatch.batches"; "frame.encode_ns";
        "frame.decode_ns"; "wire.bytes_per_point";
      ];
  runs "fleet" (Workloads.fleet ~reps:10)
    ~nonzero:
      [
        "dispatch.spawn_s"; "dispatch.run_s"; "dispatch.batches"; "frame.encode_ns";
        "wire.bytes_per_point";
      ];
  runs "scale" (Workloads.scale ~n:2000)
    ~nonzero:[ "gen.s"; "advise.bits"; "decode.s"; "engine.s"; "engine.msgs" ];
  runs "resume" (Workloads.resume ~reps:10)
    ~nonzero:[ "journal.replay_s"; "frame.decode_ns"; "emit.s" ]

(* The reference kernel runs in a child process, answers every request
   with a time, and exits when its requests end. *)
let reference_sample () =
  let r = Host.start_reference bench_exe in
  for _ = 1 to 2 do
    let wall, cpu = Host.reference_sample r in
    Alcotest.(check bool) "positive, finite" true
      (wall > 0. && cpu > 0. && Float.is_finite wall && Float.is_finite cpu)
  done;
  Host.stop_reference r

(* BENCHMARK.json names exactly the metrics the benchmark prints. *)
let catalogue_matches () =
  let json =
    String.to_seq (read_file "../../BENCHMARK.json")
    |> Seq.filter (fun c -> c <> ' ' && c <> '\n')
    |> String.of_seq
  in
  let occurs sub =
    let rec count i acc =
      if i + String.length sub > String.length json then acc
      else count (i + 1) (if String.sub json i (String.length sub) = sub then acc + 1 else acc)
    in
    count 0 0
  in
  let metrics = Layers.end_to_end @ Layers.per_layer in
  List.iter
    (fun (name, unit) ->
      Alcotest.(check int) (name ^ " listed once with its unit") 1
        (occurs (Printf.sprintf {|"name":"%s","unit":"%s"|} name unit)))
    metrics;
  Alcotest.(check int) "nothing else listed" (List.length metrics) (occurs {|"unit":|})

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "grid rows match oraclesize sweep" `Quick grid_matches_cli;
          Alcotest.test_case "seed changes graphs, not point count" `Quick seed_changes_graphs;
          Alcotest.test_case "corrupt rows and missed bounds fail" `Quick failures_counted;
          Alcotest.test_case "counts repeat across traced runs" `Quick counts_repeat;
          Alcotest.test_case "BENCHMARK.json lists every metric" `Quick catalogue_matches;
          Alcotest.test_case "reference kernel runs in a child" `Quick reference_sample;
        ] );
    ]
