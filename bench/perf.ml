(* Tracked performance benchmark of the simulation hot path.

   [dune build @perf] produces BENCH_perf.json: messages/sec, rounds/sec
   and GC words per delivered message (minor and major) for the wakeup
   and broadcast schemes on the path / clique / G_{n,S} / sparse-random
   families, at sizes up to n = 10^7 (PERF_MAX_N caps the sweep; CI runs
   it at 10^4).  The checked-in copy at the repository root is the
   baseline future PRs regress against: --baseline=FILE fails the run
   (exit 1) if any matching row's messages/sec drops more than 25%
   below the recorded value.

   Schema ("oracle-size/perf/v3"): a top-level object with "schema",
   "max_n", "jobs", "wall_seconds", "cpu_seconds" and "rows"; each row
   carries protocol, family, n, m, advice_bits, messages, rounds, reps,
   seconds, msgs_per_sec, rounds_per_sec, minor_words_per_msg,
   major_words_per_msg, all_informed, quiescent.  v3 appends
   major_words_per_msg (words promoted to or directly allocated on the
   major heap per message, over one post-warmup run — the long-lived
   per-node state that major collections must repeatedly mark); every
   v2 field keeps its meaning, so v2 baseline files still compare.

   Measurement configuration, deliberately pinned so rows are
   comparable across PRs:

   - [Gc.space_overhead] is set to 200 for the whole sweep.  At n =
     10^7 a broadcast run promotes ~740M words of per-node scheme
     state that every major cycle must re-mark; the default overhead
     of 120 triggers majors often enough that marking dominates the
     row (measured ~40% slower in-sweep on the same binary), and 200
     trades transient heap headroom for that marking time.  The
     baseline records numbers under this setting.
   - Graphs are cached keep-last-only, not in an unbounded per-worker
     cache.  Protocols are the innermost sweep axis, so consecutive
     tasks share their graph; keeping {e every} graph alive (the old
     behaviour) inflated the live major heap as the sweep advanced and
     slowed later rows by up to 3x — a measurement artifact, not a
     runner cost.
   - [Gc.compact] runs before each row, so heap state left by earlier
     rows never leaks into this one.

   The grid executes on a Sim.Pool ([--jobs=N] / ORACLE_SIZE_JOBS;
   default 1).  Every deterministic row field is identical at any job
   count; only the timing fields move.  At jobs = 1 timing is CPU time
   best-of-three (the baseline-comparable configuration); at jobs > 1
   rows are timed by wall clock, since [Sys.time] sums CPU across all
   domains.

   Wakeup rows double as a correctness gate: the paper's Theorem 2.1
   count (exactly n-1 messages, every node informed, quiescent) is
   asserted at every size, 10^7 included. *)

module Graph = Netgraph.Graph

let seed = 42

type row = {
  protocol : string;
  family : string;
  n : int;
  m : int;
  advice_bits : int;
  messages : int;
  rounds : int;
  reps : int;
  seconds : float;
  msgs_per_sec : float;
  rounds_per_sec : float;
  minor_words_per_msg : float;
  major_words_per_msg : float;
  all_informed : bool;
  quiescent : bool;
}

(* {1 Workloads} *)

let build_family family n =
  match family with
  | "path" -> Netgraph.Gen.path n
  | "clique" -> Netgraph.Gen.complete n
  | "gns" -> fst (Oracle_core.Lower_bound.wakeup_hard_graph ~n ~seed)
  | "sparse" ->
    let st = Random.State.make [| seed; n |] in
    Netgraph.Gen.random_connected ~n ~p:(min 1.0 (4.0 /. float_of_int n)) st
  | f -> invalid_arg ("perf: unknown family " ^ f)

(* Per-family size caps below the sweep ceiling: the quadratic families
   bound memory, not the runner — a clique at n = 2*10^3 already carries
   ~2*10^6 edges, and n = 10^4 would need ~5*10^7 — so they stop at
   2*10^3 and the cap is logged rather than silently dropped.  Sparse
   stops at 10^6: generating a connected G(n,p) at 10^7 costs more wall
   time than every measured row combined, for no additional coverage of
   the runner (the CSR adjacency it exercises is the same one the path
   rows stress at 10^7). *)
let families =
  [ ("path", 10_000_000); ("clique", 2_000); ("gns", 2_000); ("sparse", 1_000_000) ]

let sizes = [ 1_000; 2_000; 10_000; 100_000; 1_000_000; 10_000_000 ]

let wakeup_workload g =
  let o = Oracle_core.Wakeup.oracle () in
  let advice = o.Oracles.Oracle.advise g ~source:0 in
  (Oracles.Advice.size_bits advice, Oracles.Advice.get advice, Oracle_core.Wakeup.scheme ())

let broadcast_workload g =
  let o = Oracle_core.Broadcast.oracle () in
  let advice = o.Oracles.Oracle.advise g ~source:0 in
  (Oracles.Advice.size_bits advice, Oracles.Advice.get advice, Oracle_core.Broadcast.scheme ())

let workloads = [ ("wakeup", wakeup_workload); ("broadcast", broadcast_workload) ]

(* {1 Measurement} *)

let measure ~clock ~protocol ~family g =
  let n = Graph.n g in
  let advice_bits, advice, factory = (List.assoc protocol workloads) g in
  let run () = Sim.Runner.run ~max_messages:(5 * n) ~advice g ~source:0 factory in
  (* At jobs = 1, [clock] is CPU time ([Sys.time]): the row is
     single-threaded and does no I/O inside the timed region, so CPU
     time is the quantity we are optimising, and it is immune to the
     preemption noise of a shared machine (where a wall-clock pass can
     eat a 2x scheduling hit).  At jobs > 1 it is wall clock, because
     [Sys.time] is process-wide across domains.  Repeat small runs so
     each pass covers >= ~2*10^5 messages, and take the best of three
     passes.  [Gc.compact] first, so heap state left over from earlier
     rows never leaks into this one; one warmup run re-primes code
     paths and allocator state.  The allocation columns come from the
     single post-warmup run between the two counter reads: minor words
     are everything allocated, major words everything promoted or
     allocated directly on the major heap (the state major collections
     must repeatedly mark — the quantity that made large sparse rows
     fall off a cliff before the CSR adjacency). *)
  let reps = max 1 (200_000 / n) in
  Gc.compact ();
  ignore (run ());
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let last = ref (run ()) in
  let minor = Gc.minor_words () -. minor0 in
  let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
  let dt = ref infinity in
  for _ = 1 to 3 do
    let t0 = clock () in
    for _ = 1 to reps do
      last := run ()
    done;
    let d = clock () -. t0 in
    if d < !dt then dt := d
  done;
  let dt = !dt in
  let r = !last in
  let sent = r.Sim.Runner.stats.Obs.Counting.sent in
  let rounds = r.Sim.Runner.stats.Obs.Counting.rounds in
  let per_run = dt /. float_of_int reps in
  let per_msg words = if sent > 0 then words /. float_of_int sent else 0.0 in
  {
    protocol;
    family;
    n;
    m = Graph.m g;
    advice_bits;
    messages = sent;
    rounds;
    reps;
    seconds = dt;
    msgs_per_sec = (if per_run > 0.0 then float_of_int sent /. per_run else 0.0);
    rounds_per_sec = (if per_run > 0.0 then float_of_int rounds /. per_run else 0.0);
    minor_words_per_msg = per_msg minor;
    major_words_per_msg = per_msg major;
    all_informed = r.Sim.Runner.all_informed;
    quiescent = r.Sim.Runner.quiescent;
  }

let assert_row row =
  (* The benchmark is also a correctness gate: a fast runner that loses
     the paper's counts is worthless. *)
  if not (row.all_informed && row.quiescent) then begin
    Printf.eprintf "perf: %s on %s n=%d did not complete (informed=%b quiescent=%b)\n"
      row.protocol row.family row.n row.all_informed row.quiescent;
    exit 1
  end;
  if row.protocol = "wakeup" && row.messages <> row.n - 1 then begin
    Printf.eprintf "perf: wakeup on %s n=%d sent %d messages, expected exactly n-1 = %d\n"
      row.family row.n row.messages (row.n - 1);
    exit 1
  end

(* {1 JSON out} *)

let row_to_json r =
  Printf.sprintf
    {|{"protocol":"%s","family":"%s","n":%d,"m":%d,"advice_bits":%d,"messages":%d,"rounds":%d,"reps":%d,"seconds":%.6f,"msgs_per_sec":%.1f,"rounds_per_sec":%.1f,"minor_words_per_msg":%.2f,"major_words_per_msg":%.2f,"all_informed":%b,"quiescent":%b}|}
    r.protocol r.family r.n r.m r.advice_bits r.messages r.rounds r.reps r.seconds
    r.msgs_per_sec r.rounds_per_sec r.minor_words_per_msg r.major_words_per_msg r.all_informed
    r.quiescent

let write_json file ~max_n ~jobs ~wall_seconds ~cpu_seconds rows =
  let oc = open_out file in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"oracle-size/perf/v3\",\n\
    \  \"max_n\": %d,\n\
    \  \"jobs\": %d,\n\
    \  \"wall_seconds\": %.3f,\n\
    \  \"cpu_seconds\": %.3f,\n\
    \  \"rows\": [\n"
    max_n jobs wall_seconds cpu_seconds;
  List.iteri
    (fun i r ->
      output_string oc ("    " ^ row_to_json r);
      if i < List.length rows - 1 then output_string oc ",";
      output_char oc '\n')
    rows;
  output_string oc "  ]\n}\n";
  close_out oc

(* {1 Baseline comparison}

   The baseline file is our own stable schema, so a full JSON parser is
   not needed: each row lives on one line, and we extract the keyed
   fields with string searches. *)

let find_field line key =
  let pat = "\"" ^ key ^ "\":" in
  let plen = String.length pat in
  let rec search i =
    if i + plen > String.length line then None
    else if String.sub line i plen = pat then Some (i + plen)
    else search (i + 1)
  in
  match search 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    let len = String.length line in
    while !stop < len && (match line.[!stop] with ',' | '}' -> false | _ -> true) do
      incr stop
    done;
    Some (String.sub line start (!stop - start))

let strip_quotes s =
  let s = String.trim s in
  if String.length s >= 2 && s.[0] = '"' then String.sub s 1 (String.length s - 2) else s

let read_baseline file =
  let ic = open_in file in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       match
         ( find_field line "protocol",
           find_field line "family",
           find_field line "n",
           find_field line "msgs_per_sec" )
       with
       | Some p, Some f, Some n, Some mps -> (
         match (int_of_string_opt (String.trim n), float_of_string_opt (String.trim mps)) with
         | Some n, Some mps -> rows := ((strip_quotes p, strip_quotes f, n), mps) :: !rows
         | _ -> ())
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  !rows

(* The regression gate: more than 25% below the recorded msgs/sec at
   any matching (protocol, family, n) point fails the run.  The margin
   absorbs the CPU-time jitter of a shared machine (measured at well
   under 10% for best-of-three CPU-time rows) while still catching any
   real hot-path regression worth a review comment. *)
let check_baseline file rows =
  if not (Sys.file_exists file) then
    Printf.printf "perf: baseline %s not found, skipping regression check\n" file
  else begin
    let baseline = read_baseline file in
    let failures = ref 0 in
    List.iter
      (fun r ->
        match List.assoc_opt (r.protocol, r.family, r.n) baseline with
        | None -> ()
        | Some base ->
          if r.msgs_per_sec < base *. 0.75 then begin
            incr failures;
            Printf.eprintf
              "perf: REGRESSION %s/%s n=%d: %.0f msgs/s is more than 25%% below the baseline \
               %.0f\n"
              r.protocol r.family r.n r.msgs_per_sec base
          end
          else
            Printf.printf "perf: %s/%s n=%d ok vs baseline (%.0f vs %.0f msgs/s)\n" r.protocol
              r.family r.n r.msgs_per_sec base)
      rows;
    if !failures > 0 then exit 1
  end

(* {1 Driver} *)

type task = { t_family : string; t_n : int; t_protocol : string }

let () =
  let out = ref "BENCH_perf.json" in
  let max_n = ref 10_000_000 in
  let baseline = ref "" in
  let jobs_arg = ref None in
  let usage () =
    Printf.eprintf "usage: perf [--out=FILE] [--max-n=N] [--baseline=FILE] [--jobs=N]\n";
    exit 2
  in
  let int_value v = match int_of_string_opt v with Some n -> n | None -> usage () in
  List.iter
    (fun a ->
      let with_prefix p f =
        if String.starts_with ~prefix:p a then begin
          f (String.sub a (String.length p) (String.length a - String.length p));
          true
        end
        else false
      in
      if
        not
          (with_prefix "--out=" (fun v -> out := v)
          || with_prefix "--max-n=" (fun v -> max_n := int_value v)
          || with_prefix "--baseline=" (fun v -> baseline := v)
          || with_prefix "--jobs=" (fun v -> jobs_arg := Some (int_value v)))
      then usage ())
    (List.tl (Array.to_list Sys.argv));
  (* Pinned GC configuration — see the header comment.  Set before any
     row runs so warmups and measurements agree. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 200 };
  (* Default 1, not recommended_domain_count: the checked-in baseline is
     the single-job CPU-time configuration, and timing semantics switch
     with the job count (see [measure]). *)
  let jobs =
    match !jobs_arg with
    | Some j -> max 1 j
    | None -> (
      match Sys.getenv_opt "ORACLE_SIZE_JOBS" with
      | Some s -> ( match int_of_string_opt (String.trim s) with Some j -> max 1 j | None -> 1)
      | None -> 1)
  in
  let clock = if jobs = 1 then Sys.time else Unix.gettimeofday in
  (* The task list is the canonical emission order: families (outer),
     sizes, protocols — identical to the old sequential nesting, so v1
     consumers see rows in the same order at any job count. *)
  let tasks = ref [] in
  List.iter
    (fun (family, cap) ->
      List.iter
        (fun n ->
          if n > !max_n then ()
          else if n > cap then
            Printf.printf "perf: skipping %s at n=%d (family capped at %d)\n" family n cap
          else
            List.iter
              (fun (protocol, _) ->
                tasks := { t_family = family; t_n = n; t_protocol = protocol } :: !tasks)
              workloads)
        sizes)
    families;
  let tasks = Array.of_list (List.rev !tasks) in
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  let results =
    Sim.Sweep.map ~jobs
      ~local:(fun () -> ref None)
      ~f:(fun cache _i t ->
        (* Keep-last, not keep-all: protocols are the innermost axis, so
           the cache still saves every redundant build, but graphs from
           earlier (family, n) coordinates are dropped and collected
           instead of sitting in the live set distorting the GC costs of
           every row measured after them. *)
        let key = (t.t_family, t.t_n) in
        let g =
          match !cache with
          | Some (k, g) when k = key -> g
          | _ ->
            let g = build_family t.t_family t.t_n in
            cache := Some (key, g);
            g
        in
        let r = measure ~clock ~protocol:t.t_protocol ~family:t.t_family g in
        (* Live line on stderr as each row lands: a 10^7 sweep runs for
           minutes, and the ordered pass below only speaks after the
           join.  Unordered at jobs>1; the post-join pass stays the
           canonical record. *)
        Printf.eprintf "perf-live: %s %s n=%d %.0f msgs/s %.3f s\n%!"
          t.t_protocol t.t_family t.t_n r.msgs_per_sec r.seconds;
        r)
      tasks
  in
  let wall_seconds = Unix.gettimeofday () -. wall0 in
  let cpu_seconds = Sys.time () -. cpu0 in
  (* Single ordered pass after the join: asserts, progress lines and the
     JSON file all replay task order. *)
  let rows = ref [] in
  Array.iteri
    (fun i -> function
      | Error msg ->
        Printf.eprintf "perf: %s/%s n=%d failed: %s\n" tasks.(i).t_protocol tasks.(i).t_family
          tasks.(i).t_n msg;
        exit 1
      | Ok r ->
        assert_row r;
        Printf.printf "perf: %-9s %-6s n=%-8d %9.0f msgs/s %9.0f rounds/s %6.1f minor w/msg\n"
          r.protocol r.family r.n r.msgs_per_sec r.rounds_per_sec r.minor_words_per_msg;
        rows := r :: !rows)
    results;
  let rows = List.rev !rows in
  Table.render ~title:"perf: simulation hot path"
    ~header:
      [ "protocol"; "family"; "n"; "msgs/s"; "rounds/s"; "minor w/msg"; "major w/msg"; "run s" ]
    ~aligns:[ Table.L; Table.L; Table.R; Table.R; Table.R; Table.R; Table.R; Table.R ]
    (List.map
       (fun r ->
         [
           r.protocol;
           r.family;
           Table.i r.n;
           Printf.sprintf "%.0f" r.msgs_per_sec;
           Printf.sprintf "%.0f" r.rounds_per_sec;
           Table.f1 r.minor_words_per_msg;
           Table.f1 r.major_words_per_msg;
           Table.f3 (r.seconds /. float_of_int r.reps);
         ])
       rows);
  write_json !out ~max_n:!max_n ~jobs ~wall_seconds ~cpu_seconds rows;
  Printf.printf "perf: wrote %d rows to %s (jobs=%d wall=%.1fs cpu=%.1fs)\n" (List.length rows)
    !out jobs wall_seconds cpu_seconds;
  if !baseline <> "" then check_baseline !baseline rows
