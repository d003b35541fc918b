(* The parallel sweep engine: pool semantics (ordering, error isolation,
   reuse after a raising batch), coordinate-derived seeds, grid spec
   round-trips, worker-local caches, the sink single-writer guard, and
   the headline guarantee — grid results, fault plans and retransmissions
   included, are identical at every job count. *)

module Graph = Netgraph.Graph
module Families = Netgraph.Families
module Sweep = Sim.Sweep

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* {1 Pool} *)

let test_pool_map_order () =
  let expected = Array.init 100 (fun i -> i * i) in
  List.iter
    (fun jobs ->
      let results = Sim.Pool.with_pool ~jobs (fun p -> Sim.Pool.map p (fun i -> i * i) 100) in
      check_int (Printf.sprintf "jobs=%d: all slots filled" jobs) 100 (Array.length results);
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> check_int (Printf.sprintf "jobs=%d slot %d" jobs i) expected.(i) v
          | Error (e, _) ->
            Alcotest.failf "jobs=%d slot %d raised %s" jobs i (Printexc.to_string e))
        results)
    [ 1; 4 ]

let test_pool_error_isolation () =
  Sim.Pool.with_pool ~jobs:3 (fun p ->
      let results =
        Sim.Pool.map p (fun i -> if i = 5 then failwith "task five dies" else i + 1) 12
      in
      Array.iteri
        (fun i r ->
          match (i, r) with
          | 5, Error (Failure msg, _) -> check_string "captured exception" "task five dies" msg
          | 5, Ok _ -> Alcotest.fail "raising task reported Ok"
          | 5, Error (e, _) -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
          | _, Ok v -> check_int (Printf.sprintf "slot %d" i) (i + 1) v
          | _, Error (e, _) -> Alcotest.failf "slot %d raised %s" i (Printexc.to_string e))
        results;
      (* The pool survives the raising batch: the next map is clean. *)
      let again = Sim.Pool.map p (fun i -> 2 * i) 8 in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> check_int (Printf.sprintf "second batch slot %d" i) (2 * i) v
          | Error (e, _) -> Alcotest.failf "second batch raised %s" (Printexc.to_string e))
        again)

let test_pool_rejects_nesting () =
  Sim.Pool.with_pool ~jobs:2 (fun p ->
      let results =
        Sim.Pool.map p
          (fun i -> if i = 0 then Array.length (Sim.Pool.map p (fun j -> j) 3) else i)
          4
      in
      match results.(0) with
      | Error (Invalid_argument _, _) -> ()
      | Error (e, _) -> Alcotest.failf "expected Invalid_argument, got %s" (Printexc.to_string e)
      | Ok _ -> Alcotest.fail "nested map did not raise")

let test_pool_map_local_caches () =
  (* Each worker sees one local value, created lazily and reused for the
     pool's whole life, however many maps pass the handle; with a cache
     as the local, repeated keys hit.  A handle from another pool is
     refused. *)
  List.iter
    (fun jobs ->
      let made = Atomic.make 0 in
      Sim.Pool.with_pool ~jobs (fun p ->
          let locals =
            Sim.Pool.locals p (fun () ->
                Atomic.incr made;
                Sweep.Cache.create ())
          in
          for round = 1 to 4 do
            Array.iteri
              (fun i r ->
                match r with
                | Ok v ->
                  check_int (Printf.sprintf "jobs=%d round %d slot %d" jobs round i) (i mod 5) v
                | Error (e, _) -> Alcotest.failf "slot %d raised %s" i (Printexc.to_string e))
              (Sim.Pool.map_local p locals
                 (fun cache i -> Sweep.Cache.find cache (i mod 5) (fun () -> i mod 5))
                 40)
          done;
          check_bool
            (Printf.sprintf "jobs=%d: at most one local per worker over four maps" jobs)
            true
            (Atomic.get made >= 1 && Atomic.get made <= jobs);
          Sim.Pool.with_pool ~jobs:1 (fun other ->
              match Sim.Pool.map_local other locals (fun _ i -> i) 3 with
              | exception Invalid_argument _ -> ()
              | _ -> Alcotest.fail "locals of another pool accepted")))
    [ 1; 2; 3 ]

(* {1 Seeds} *)

let test_derive_seed_pinned () =
  (* The derivation is part of the output contract: sweep rows record
     their seeds, so the hash may never change silently.  Pinned values
     were produced by the initial implementation. *)
  check_int "derive_seed 42 [a;b]" 1774689158723077451 (Sweep.derive_seed 42 [ "a"; "b" ]);
  check_int "derive_seed 1 [graph;sparse-random;24;0]" 2388949361269048765
    (Sweep.derive_seed 1 [ "graph"; "sparse-random"; "24"; "0" ])

let test_derive_seed_separates () =
  let s = Sweep.derive_seed 42 in
  check_bool "token split matters" true (s [ "ab"; "c" ] <> s [ "a"; "bc" ]);
  check_bool "order matters" true (s [ "a"; "b" ] <> s [ "b"; "a" ]);
  check_bool "base matters" true (Sweep.derive_seed 1 [ "a" ] <> Sweep.derive_seed 2 [ "a" ]);
  check_bool "non-negative" true (s [ "x" ] >= 0 && Sweep.derive_seed min_int [ "x" ] >= 0)

let small_grid =
  {
    Sweep.protocols = [ "wakeup"; "broadcast" ];
    families = [ Families.Sparse_random ];
    ns = [ 16 ];
    schedulers = [ Sim.Scheduler.Synchronous; Sim.Scheduler.Async_fifo ];
    plans = [ Sim.Fault_plan.none; Sim.Fault_plan.of_string_exn "drop=0.15,seed=9" ];
    reps = 2;
    base_seed = 42;
  }

let test_point_seeds_unique_and_stable () =
  let pts = Sweep.points small_grid in
  check_int "cross product size" 16 (Array.length pts);
  let seeds = Array.to_list (Array.map (fun p -> p.Sweep.seed) pts) in
  check_int "seeds all distinct" (List.length seeds) (List.length (List.sort_uniq compare seeds));
  let pts' = Sweep.points small_grid in
  Array.iteri
    (fun i p -> check_int (Printf.sprintf "point %d seed stable" i) p.Sweep.seed pts'.(i).Sweep.seed)
    pts

let test_graph_seed_shared_across_non_graph_axes () =
  let pts = Sweep.points small_grid in
  (* Points that agree on (family, n, rep) must share a graph seed no
     matter their protocol, scheduler, or plan — that is what makes the
     per-worker graph cache sound. *)
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun p ->
      let key = (Families.name p.Sweep.family, p.Sweep.n, p.Sweep.rep) in
      let gs = Sweep.graph_seed small_grid p in
      match Hashtbl.find_opt tbl key with
      | None -> Hashtbl.add tbl key gs
      | Some gs' -> check_int "same (family,n,rep) -> same graph seed" gs' gs)
    pts;
  check_int "one graph seed per (family,n,rep)" 2 (Hashtbl.length tbl)

(* {1 Grid specs} *)

let test_spec_roundtrip () =
  let spec =
    "protocols=wakeup;families=sparse-random,cycle;ns=24,64;scheds=sync,async-random(7);plans=none|drop=0.1,seed=7;reps=2;seed=11"
  in
  match Sweep.of_string spec with
  | Error e -> Alcotest.failf "of_string: %s" e
  | Ok g -> (
    match Sweep.of_string (Sweep.to_string g) with
    | Error e -> Alcotest.failf "reparse: %s" e
    | Ok g' ->
      check_string "canonical form round-trips" (Sweep.to_string g) (Sweep.to_string g');
      let p = Sweep.points g and p' = Sweep.points g' in
      check_int "same point count" (Array.length p) (Array.length p');
      Array.iteri
        (fun i pt ->
          check_string "same labels" (Sweep.point_label pt) (Sweep.point_label p'.(i));
          check_int "same seeds" pt.Sweep.seed p'.(i).Sweep.seed)
        p)

let test_spec_defaults_and_errors () =
  (match Sweep.of_string "" with
  | Ok g ->
    check_int "default reps" 1 g.Sweep.reps;
    check_int "default seed" 42 g.Sweep.base_seed;
    check_int "default points" 2 (Array.length (Sweep.points g))
  | Error e -> Alcotest.failf "empty spec: %s" e);
  let rejects s =
    match Sweep.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted bad spec %S" s
  in
  rejects "families=nosuch";
  rejects "ns=0";
  rejects "scheds=warp";
  rejects "plans=drop=2.5";
  rejects "reps=0";
  rejects "turbo=yes"

(* {1 Caches} *)

let test_cache_counters_and_equality () =
  let c = Sweep.Cache.create () in
  let builds = ref 0 in
  let build () =
    incr builds;
    Families.build Families.Sparse_random ~n:24 ~seed:7
  in
  let g1 = Sweep.Cache.find c ("sparse-random", 24, 7) build in
  let g2 = Sweep.Cache.find c ("sparse-random", 24, 7) build in
  check_int "one build" 1 !builds;
  check_int "one miss" 1 (Sweep.Cache.misses c);
  check_int "one hit" 1 (Sweep.Cache.hits c);
  check_bool "hit is the same graph" true (g1 == g2);
  check_bool "cached equals fresh" true
    (Graph.equal g1 (Families.build Families.Sparse_random ~n:24 ~seed:7))

let test_cached_advice_equals_fresh () =
  let g = Families.build Families.Sparse_random ~n:16 ~seed:3 in
  let c = Sweep.Cache.create () in
  let cached () =
    Sweep.Cache.find c ("wakeup", 3) (fun () -> Fault.Harness.advise Fault.Harness.Wakeup g ~source:0)
  in
  let a1 = cached () in
  let a2 = cached () in
  check_bool "hit is the same advice" true (a1 == a2);
  check_int "cached advice bits = fresh advice bits"
    (Oracles.Advice.size_bits (Fault.Harness.advise Fault.Harness.Wakeup g ~source:0))
    (Oracles.Advice.size_bits a1)

(* {1 The headline guarantee} *)

(* One harness run per point, serialized to the row a sweep would emit;
   with caches warm or cold, at any job count, the rows must be equal. *)
let run_grid ~jobs ~with_caches grid =
  let f (graphs, advice) p =
    let proto =
      match p.Sweep.protocol with
      | "wakeup" -> Fault.Harness.Wakeup
      | "broadcast" -> Fault.Harness.Broadcast
      | s -> Alcotest.failf "unknown protocol %s" s
    in
    let gseed = Sweep.graph_seed grid p in
    let gkey = (Families.name p.Sweep.family, p.Sweep.n, gseed) in
    let build_graph () = Families.build p.Sweep.family ~n:p.Sweep.n ~seed:gseed in
    let g =
      if with_caches then Sweep.Cache.find graphs gkey build_graph else build_graph ()
    in
    let build_advice () = Fault.Harness.advise proto g ~source:0 in
    let raw_advice =
      if with_caches then Sweep.Cache.find advice (p.Sweep.protocol, gkey) build_advice
      else build_advice ()
    in
    Fault.Harness.journal_entry g
      (Fault.Harness.run ~scheduler:p.Sweep.scheduler ~plan:p.Sweep.plan ~retry:1 ~raw_advice
         proto g ~source:0)
  in
  let rows = ref [] in
  let emit p e =
    rows :=
      Printf.sprintf "%s sent=%d faults=%d retransmits=%d verdict=%s" (Sweep.point_label p)
        e.Sim.Journal.messages e.Sim.Journal.faults e.Sim.Journal.retransmits
        e.Sim.Journal.verdict
      :: !rows
  in
  (match
     Sweep.run_journaled ~jobs
       ~local:(fun () -> (Sweep.Cache.create (), Sweep.Cache.create ()))
       ~f ~emit grid
   with
  | Ok { Sweep.failed = []; _ } -> ()
  | Ok { Sweep.failed = (i, e) :: _; _ } -> Alcotest.failf "point %d raised: %s" i e
  | Error e -> Alcotest.failf "sweep: %s" e);
  Array.of_list (List.rev !rows)

let test_grid_identical_across_jobs () =
  let reference = run_grid ~jobs:1 ~with_caches:true small_grid in
  check_int "16 rows" 16 (Array.length reference);
  List.iter
    (fun jobs ->
      let rows = run_grid ~jobs ~with_caches:true small_grid in
      Array.iteri
        (fun i row -> check_string (Printf.sprintf "jobs=%d row %d" jobs i) reference.(i) row)
        rows)
    [ 2; 7 ]

let test_grid_identical_with_cold_caches () =
  (* The cache must be invisible: rebuilding everything from coordinate
     seeds yields the same rows as the warm path. *)
  let warm = run_grid ~jobs:2 ~with_caches:true small_grid in
  let cold = run_grid ~jobs:2 ~with_caches:false small_grid in
  Array.iteri (fun i row -> check_string (Printf.sprintf "row %d" i) warm.(i) row) cold

(* {1 Journaled sweeps: caches across chunks} *)

(* A grid whose 64 points share 8 graphs: 2 families × 2 sizes × 2 reps,
   each under 2 protocols × 2 schedulers × 2 plans. *)
let shared_grid =
  {
    small_grid with
    Sweep.families = [ Families.Sparse_random; Families.Path ];
    ns = [ 16; 24 ];
  }

(* A journaled chunk = 8 sweep of [shared_grid]: the emitted rows, the
   journal's bytes, and every cache pair the pool created. *)
let journaled_sweep ~jobs =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "oraclesize-test-sweep-%d-%d.journal" (Unix.getpid ()) jobs)
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let made = ref [] and lock = Mutex.create () in
      let rows = Buffer.create 4096 in
      let stats =
        Sweep.run_journaled ~jobs ~journal:path ~chunk:8
          ~local:(fun () ->
            let c = Fault.Sweep_point.caches () in
            Mutex.protect lock (fun () -> made := c :: !made);
            c)
          ~f:(Fault.Sweep_point.execute shared_grid ~protect:Bitstring.Ecc.Raw ~retry:2)
          ~emit:(fun p e ->
            Printf.bprintf rows "%s %d %d %s\n" (Sweep.point_label p) e.Sim.Journal.messages
              e.Sim.Journal.informed e.Sim.Journal.verdict)
          shared_grid
      in
      (match stats with
      | Ok s -> check_int "every point executed" 64 s.Sweep.executed
      | Error e -> Alcotest.failf "jobs=%d: %s" jobs e);
      (Buffer.contents rows, In_channel.with_open_bin path In_channel.input_all, !made))

let test_journaled_sweep_builds_each_graph_once () =
  let _, _, made = journaled_sweep ~jobs:1 in
  let pts = Sweep.points shared_grid in
  let distinct f = List.length (List.sort_uniq compare (Array.to_list (Array.map f pts))) in
  let graphs = distinct (Sweep.graph_seed shared_grid) in
  check_int "eight distinct graphs" 8 graphs;
  match made with
  | [ { Fault.Sweep_point.graphs = g; advice = a } ] ->
    check_int "graph misses = distinct graph seeds" graphs (Sweep.Cache.misses g);
    check_int "graph hits = the other points" (64 - graphs) (Sweep.Cache.hits g);
    check_int "advice misses = distinct (protocol, graph)"
      (distinct (fun p -> (p.Sweep.protocol, Sweep.graph_seed shared_grid p)))
      (Sweep.Cache.misses a)
  | l -> Alcotest.failf "jobs=1 created %d cache pairs across 8 chunks, expected 1" (List.length l)

let test_journaled_sweep_identical_across_jobs () =
  let rows1, journal1, _ = journaled_sweep ~jobs:1 in
  check_int "64 rows" 64 (List.length (String.split_on_char '\n' (String.trim rows1)));
  List.iter
    (fun jobs ->
      let rows, journal, made = journaled_sweep ~jobs in
      check_bool (Printf.sprintf "jobs=%d: at most one cache pair per worker" jobs) true
        (List.length made <= jobs);
      check_string (Printf.sprintf "jobs=%d rows" jobs) rows1 rows;
      check_bool (Printf.sprintf "jobs=%d journal bytes" jobs) true (String.equal journal1 journal))
    [ 2; 3 ]

let test_sweep_map_error_slot () =
  let results =
    Sweep.map ~jobs:2
      ~local:(fun () -> ())
      ~f:(fun () i x -> if i = 2 then failwith "boom" else x * 10)
      [| 1; 2; 3; 4 |]
  in
  (match results.(2) with
  | Error msg -> check_bool "message captured" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "raising task reported Ok");
  List.iter
    (fun i ->
      match results.(i) with
      | Ok v -> check_int (Printf.sprintf "slot %d" i) ((i + 1) * 10) v
      | Error e -> Alcotest.failf "slot %d: %s" i e)
    [ 0; 1; 3 ]

(* {1 Sinks are single-writer} *)

let test_sink_rejects_cross_domain_emit () =
  let sink, collected = Obs.Sink.collect () in
  let ev = { Obs.Event.seq = 0; round = 0; kind = Obs.Event.Wake 0 } in
  let raised =
    Domain.join
      (Domain.spawn (fun () ->
           try
             Obs.Sink.emit sink ev;
             false
           with Failure _ -> true))
  in
  check_bool "cross-domain emit raises" true raised;
  Obs.Sink.emit sink ev;
  check_int "owning domain still emits" 1 (List.length (collected ()))

(* {1 Sweep points: the journal context} *)

let test_context_roundtrip () =
  List.iter
    (fun protect ->
      List.iter
        (fun retry ->
          let ctx = Fault.Sweep_point.context ~protect ~retry in
          match Fault.Sweep_point.parse_context ctx with
          | Ok (p, r) ->
            check_string (ctx ^ ": protect") (Bitstring.Ecc.name protect) (Bitstring.Ecc.name p);
            check_int (ctx ^ ": retry") retry r
          | Error e -> Alcotest.failf "%s rejected: %s" ctx e)
        [ 0; 1; max_int ])
    Bitstring.Ecc.all

let test_context_rejects_non_canonical () =
  List.iter
    (fun extra ->
      match Fault.Sweep_point.parse_context extra with
      | Ok _ -> Alcotest.failf "%S accepted" extra
      | Error _ -> ())
    [
      "";
      "protect=raw";
      "protect=;retry=0";
      "protect=bogus;retry=0";
      "protect=raw;retry=-1";
      "protect=raw;retry=0x10";
      "protect=raw;retry= 2";
      "protect=raw;retry=0;x";
      "protect=raw;retry=+2";
      "protect=raw;retry=1_0";
      "protect=none;retry=0";
    ]

(* All zeros, all ones and every field at its maximum: the byte strings
   of the canonical context's length, [N] at [max_int] under the last
   protection level, and [N] one past [max_int]. *)
let test_context_boundaries () =
  let top = List.nth Bitstring.Ecc.all (List.length Bitstring.Ecc.all - 1) in
  let max_ctx = Fault.Sweep_point.context ~protect:top ~retry:max_int in
  List.iter
    (fun c ->
      List.iter
        (fun len ->
          match Fault.Sweep_point.parse_context (String.make len c) with
          | Ok _ -> Alcotest.failf "%d bytes of %C accepted" len c
          | Error _ -> ())
        [ 0; 1; String.length max_ctx ])
    [ '\000'; '\xff' ];
  (match Fault.Sweep_point.parse_context max_ctx with
  | Ok (p, r) ->
    check_string "top level" (Bitstring.Ecc.name top) (Bitstring.Ecc.name p);
    check_int "max retry" max_int r
  | Error e -> Alcotest.failf "%s rejected: %s" max_ctx e);
  let prefix = "protect=" ^ Bitstring.Ecc.name top ^ ";retry=" in
  List.iter
    (fun retry ->
      match Fault.Sweep_point.parse_context (prefix ^ retry) with
      | Ok _ -> Alcotest.failf "retry=%s accepted" retry
      | Error _ -> ())
    [ "4611686018427387904"; "9999999999999999999"; "00"; "0" ^ string_of_int max_int ];
  match Fault.Sweep_point.parse_context "protect=raw;retry=0" with
  | Ok (Bitstring.Ecc.Raw, 0) -> ()
  | _ -> Alcotest.fail "the all-zero retry rejected"

let suite =
  [
    Alcotest.test_case "pool: map preserves index order" `Quick test_pool_map_order;
    Alcotest.test_case "pool: raising task is isolated, pool survives" `Quick
      test_pool_error_isolation;
    Alcotest.test_case "pool: nested map rejected" `Quick test_pool_rejects_nesting;
    Alcotest.test_case "pool: per-worker locals" `Quick test_pool_map_local_caches;
    Alcotest.test_case "seeds: pinned derivation" `Quick test_derive_seed_pinned;
    Alcotest.test_case "seeds: tokens, order, base all separate" `Quick test_derive_seed_separates;
    Alcotest.test_case "seeds: unique and stable per point" `Quick
      test_point_seeds_unique_and_stable;
    Alcotest.test_case "seeds: graph seed shared across protocol/sched/plan" `Quick
      test_graph_seed_shared_across_non_graph_axes;
    Alcotest.test_case "spec: round-trip" `Quick test_spec_roundtrip;
    Alcotest.test_case "spec: defaults and rejections" `Quick test_spec_defaults_and_errors;
    Alcotest.test_case "cache: counters and structural equality" `Quick
      test_cache_counters_and_equality;
    Alcotest.test_case "cache: advice hit equals fresh" `Quick test_cached_advice_equals_fresh;
    Alcotest.test_case "grid: rows identical at jobs 1/2/7" `Quick test_grid_identical_across_jobs;
    Alcotest.test_case "grid: caches invisible in output" `Quick
      test_grid_identical_with_cold_caches;
    Alcotest.test_case "journaled: each shared graph built once" `Quick
      test_journaled_sweep_builds_each_graph_once;
    Alcotest.test_case "journaled: rows and journal identical at jobs 1/2/3" `Quick
      test_journaled_sweep_identical_across_jobs;
    Alcotest.test_case "map: error lands in its slot" `Quick test_sweep_map_error_slot;
    Alcotest.test_case "sweep point: context round-trips" `Quick test_context_roundtrip;
    Alcotest.test_case "sweep point: context is canonical only" `Quick
      test_context_rejects_non_canonical;
    Alcotest.test_case "sweep point: context at zeros, ones and maxima" `Quick
      test_context_boundaries;
    Alcotest.test_case "sink: cross-domain emit rejected" `Quick
      test_sink_rejects_cross_domain_emit;
  ]
