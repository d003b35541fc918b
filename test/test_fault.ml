(* The fault-injection subsystem: plans, advice corruption, runner-level
   injection, the adversarial scheduler wrapper, hardened schemes with
   graceful degradation, and the verdict classifier. *)

module Graph = Netgraph.Graph
module Families = Netgraph.Families
module Gen = Netgraph.Gen
module Bitbuf = Bitstring.Bitbuf
module Advice = Oracles.Advice
module Event = Obs.Event
module Plan = Fault.Plan

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let no_advice _v = Bitbuf.create ()

(* {1 Fault plans} *)

let test_plan_none () =
  check_bool "none is none" true (Plan.is_none Plan.none);
  check_string "prints as none" "none" (Plan.to_string Plan.none);
  (match Plan.of_string "none" with
  | Ok p -> check_bool "parses back" true (Plan.is_none p)
  | Error e -> Alcotest.failf "none rejected: %s" e);
  (* the seed alone does not make a plan adversarial *)
  check_bool "seeded empty plan still none" true
    (Plan.is_none (Plan.of_string_exn "seed=9"));
  check_bool "none has no network faults" false (Plan.has_network_faults Plan.none)

let test_plan_builtins_roundtrip () =
  check_int "twelve builtin plans" 12 (List.length Plan.builtins);
  List.iter
    (fun (spec, plan) ->
      check_string (spec ^ " canonical") spec (Plan.to_string plan);
      match Plan.of_string (Plan.to_string plan) with
      | Ok back -> check_bool (spec ^ " roundtrips") true (back = plan)
      | Error e -> Alcotest.failf "%s does not parse back: %s" spec e)
    Plan.builtins;
  let names = List.map fst Plan.builtins in
  check_int "builtin names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_plan_parse_fields () =
  let p =
    Plan.of_string_exn
      "drop=0.25,dup=0.1,reorder=3,delay=0.5:4,crash=2@7,dead=5,advice-flip=2,advice-swap=1:3,seed=42"
  in
  Alcotest.(check (float 1e-9)) "drop" 0.25 p.Plan.drop;
  Alcotest.(check (float 1e-9)) "dup" 0.1 p.Plan.duplicate;
  check_int "reorder" 3 p.Plan.reorder_every;
  (match p.Plan.delay with
  | Some (prob, k) ->
    Alcotest.(check (float 1e-9)) "delay prob" 0.5 prob;
    check_int "delay max" 4 k
  | None -> Alcotest.fail "delay missing");
  check_bool "crash" true (p.Plan.crashes = [ (2, 7) ]);
  check_bool "dead" true (p.Plan.dead = [ 5 ]);
  check_bool "advice faults in order" true
    (p.Plan.advice = [ Plan.Flip 2; Plan.Swap (1, 3) ]);
  check_int "seed" 42 p.Plan.seed;
  check_bool "network faults present" true (Plan.has_network_faults p)

let test_plan_rejects_malformed () =
  List.iter
    (fun spec ->
      match Plan.of_string spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed spec %S" spec)
    [
      "drop=1.0" (* probabilities live in [0,1) *);
      "drop=-0.1";
      "dup=x";
      "frob=1";
      "what is this";
      "crash=3" (* missing @STEP *);
      "delay=0.5" (* missing :MAXSTEPS *);
      "delay=0.5:0" (* max delay must be >= 1 *);
      "advice-swap=1";
      "reorder=-2";
      "drop=0.1,drop=2.0" (* a bad token poisons the whole spec *);
    ];
  match Plan.of_string_exn "drop=2.0" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "of_string_exn must raise"

let test_plan_advice_only_is_not_network () =
  let p = Plan.of_string_exn "advice-trunc=1,seed=3" in
  check_bool "advice faults are not network faults" false (Plan.has_network_faults p);
  check_bool "but the plan is not none" false (Plan.is_none p);
  check_bool "dead alone is a network fault" true
    (Plan.has_network_faults (Plan.of_string_exn "dead=1"))

(* {1 Advice corruption} *)

let tree_advice () =
  let g = Families.build Families.Random_tree ~n:16 ~seed:7 in
  let oracle = Oracle_core.Wakeup.oracle () in
  (g, oracle.Oracles.Oracle.advise g ~source:0)

let diff_bits a b =
  let d = ref 0 in
  for v = 0 to Advice.n a - 1 do
    let x = Bitbuf.to_bits (Advice.get a v) and y = Bitbuf.to_bits (Advice.get b v) in
    if List.length x <> List.length y then d := !d + 1_000_000
    else List.iter2 (fun p q -> if p <> q then incr d) x y
  done;
  !d

let test_corrupt_empty_plan_is_identity () =
  let _, advice = tree_advice () in
  let corrupted, log = Fault.Corrupt.apply Plan.none advice in
  check_bool "same assignment" true (corrupted == advice);
  check_int "empty tamper log" 0 (List.length log)

let test_corrupt_pure_and_deterministic () =
  let _, advice = tree_advice () in
  let before = Advice.size_bits advice in
  let plan = Plan.of_string_exn "advice-flip=5,seed=17" in
  let a, la = Fault.Corrupt.apply plan advice in
  let b, lb = Fault.Corrupt.apply plan advice in
  check_int "original untouched" before (Advice.size_bits advice);
  check_bool "identical corruption" true (diff_bits a b = 0);
  check_bool "identical tamper logs" true (la = lb);
  let other, _ = Fault.Corrupt.apply (Plan.of_string_exn "advice-flip=5,seed=18") advice in
  check_bool "a different seed corrupts differently" true (diff_bits a other > 0)

let test_corrupt_flip () =
  let _, advice = tree_advice () in
  let corrupted, log = Fault.Corrupt.apply (Plan.of_string_exn "advice-flip=1,seed=5") advice in
  check_int "total size preserved" (Advice.size_bits advice) (Advice.size_bits corrupted);
  check_int "exactly one bit flipped" 1 (diff_bits advice corrupted);
  check_int "one tamper entry" 1 (List.length log);
  (* flipping on an all-empty assignment is a no-op *)
  let empty = Advice.empty ~n:4 in
  let c, l = Fault.Corrupt.apply (Plan.of_string_exn "advice-flip=3") empty in
  check_int "empty advice unflippable" 0 (Advice.size_bits c);
  check_int "no tampering recorded" 0 (List.length l)

let test_corrupt_truncate () =
  let _, advice = tree_advice () in
  let corrupted, log = Fault.Corrupt.apply (Plan.of_string_exn "advice-trunc=1") advice in
  let nonempty = ref 0 in
  for v = 0 to Advice.n advice - 1 do
    let len = Bitbuf.length (Advice.get advice v) in
    if len > 0 then incr nonempty;
    check_int
      (Printf.sprintf "node %d loses one bit" v)
      (max 0 (len - 1))
      (Bitbuf.length (Advice.get corrupted v))
  done;
  check_int "one tamper entry per nonempty node" !nonempty (List.length log);
  List.iter (fun (_, tag) -> check_string "tag" "trunc:1" tag) log

let test_corrupt_swap () =
  let _, advice = tree_advice () in
  let corrupted, log = Fault.Corrupt.apply (Plan.of_string_exn "advice-swap=1:2") advice in
  check_bool "node 1 now holds node 2's advice" true
    (Bitbuf.equal (Advice.get corrupted 1) (Advice.get advice 2));
  check_bool "node 2 now holds node 1's advice" true
    (Bitbuf.equal (Advice.get corrupted 2) (Advice.get advice 1));
  check_int "two tamper entries" 2 (List.length log);
  (* out-of-range and self swaps are ignored *)
  List.iter
    (fun spec ->
      let c, l = Fault.Corrupt.apply (Plan.of_string_exn spec) advice in
      check_int (spec ^ " is a no-op") 0 (diff_bits advice c);
      check_int (spec ^ " logs nothing") 0 (List.length l))
    [ "advice-swap=1:99"; "advice-swap=3:3" ]

let test_corrupt_garbage () =
  let _, advice = tree_advice () in
  let n = Advice.n advice in
  let corrupted, log = Fault.Corrupt.apply (Plan.of_string_exn "advice-garbage=9,seed=3") advice in
  for v = 0 to n - 1 do
    check_int (Printf.sprintf "node %d resized" v) 9 (Bitbuf.length (Advice.get corrupted v))
  done;
  check_int "every node tampered" n (List.length log)

let test_corrupt_events () =
  let evs = Fault.Corrupt.events [ (3, "trunc:1"); (5, "garbage:9") ] in
  check_int "one event per entry" 2 (List.length evs);
  List.iter2
    (fun ev (node, tag) ->
      check_int "pre-run seq" 0 ev.Event.seq;
      check_int "pre-run round" 0 ev.Event.round;
      match ev.Event.kind with
      | Event.Fault (Event.Advice_tampered (v, t)) ->
        check_int "node" node v;
        check_string "tag" tag t
      | _ -> Alcotest.fail "expected an advice-tampered fault")
    evs
    [ (3, "trunc:1"); (5, "garbage:9") ]

(* {1 Fault injection in the runner} *)

let test_runner_empty_plan_identical_stream () =
  let g = Families.build Families.Random_tree ~n:20 ~seed:3 in
  let c1, got1 = Obs.Sink.collect () in
  let _ = Sim.Runner.run ~sinks:[ c1 ] ~advice:no_advice g ~source:0 Sim.Scheme.flooding in
  let c2, got2 = Obs.Sink.collect () in
  let _ =
    Sim.Runner.run ~sinks:[ c2 ] ~faults:Plan.none ~advice:no_advice g ~source:0
      Sim.Scheme.flooding
  in
  let a = got1 () and b = got2 () in
  check_int "same length" (List.length a) (List.length b);
  List.iter2 (fun x y -> check_bool "same event" true (Event.equal x y)) a b

let test_runner_accounting_balance () =
  (* drop destroys sends, duplicate adds deliveries but no sends; the
     stream must still balance: delivered = sent + duplicated - dropped. *)
  let g = Gen.complete 12 in
  let collect, collected = Obs.Sink.collect () in
  let r =
    Sim.Runner.run ~sinks:[ collect ]
      ~faults:(Plan.of_string_exn "drop=0.2,dup=0.2,seed=41")
      ~advice:no_advice g ~source:0 Sim.Scheme.flooding
  in
  let s = Obs.Counting.of_events (collected ()) in
  check_bool "some drops" true (s.Obs.Counting.dropped > 0);
  check_bool "some duplicates" true (s.Obs.Counting.duplicated > 0);
  check_int "delivered = sent + dup - dropped"
    (s.Obs.Counting.sent + s.Obs.Counting.duplicated - s.Obs.Counting.dropped)
    s.Obs.Counting.delivered;
  check_bool "stats mirror the stream" true (s = r.Sim.Runner.stats);
  check_bool "quiescent" true r.Sim.Runner.quiescent

let test_runner_dead_node () =
  (* 0 - 1 - 2: node 1 starts dead, so flooding cannot cross it. *)
  let g = Gen.path 3 in
  let collect, collected = Obs.Sink.collect () in
  let r =
    Sim.Runner.run ~sinks:[ collect ] ~faults:(Plan.of_string_exn "dead=1") ~advice:no_advice g
      ~source:0 Sim.Scheme.flooding
  in
  check_bool "far end stranded" false r.Sim.Runner.informed.(2);
  check_bool "dead node not informed" false r.Sim.Runner.informed.(1);
  let deads =
    List.filter
      (fun e -> match e.Event.kind with Event.Fault (Event.Dead 1) -> true | _ -> false)
      (collected ())
  in
  check_int "one dead fault" 1 (List.length deads);
  (* the delivery into the dead node became a drop *)
  let s = Obs.Counting.of_events (collected ()) in
  check_bool "delivery to the dead node dropped" true (s.Obs.Counting.dropped > 0);
  (* a dead source would make the task vacuous: the plan entry is ignored *)
  let r2 =
    Sim.Runner.run ~faults:(Plan.of_string_exn "dead=0") ~advice:no_advice g ~source:0
      Sim.Scheme.flooding
  in
  check_bool "dead source ignored" true r2.Sim.Runner.all_informed

let test_runner_crash_stop () =
  let g = Gen.path 3 in
  let collect, collected = Obs.Sink.collect () in
  let r =
    Sim.Runner.run ~sinks:[ collect ] ~faults:(Plan.of_string_exn "crash=1@1") ~advice:no_advice
      g ~source:0 Sim.Scheme.flooding
  in
  check_bool "relay crashed before forwarding" false r.Sim.Runner.informed.(2);
  check_bool "run still drains" true r.Sim.Runner.quiescent;
  let crashes =
    List.filter
      (fun e -> match e.Event.kind with Event.Fault (Event.Crashed 1) -> true | _ -> false)
      (collected ())
  in
  check_int "crash recorded once" 1 (List.length crashes)

let test_runner_reorder_and_delay_complete () =
  let g = Gen.grid ~rows:4 ~cols:4 in
  List.iter
    (fun spec ->
      let collect, collected = Obs.Sink.collect () in
      let r =
        Sim.Runner.run ~sinks:[ collect ] ~faults:(Plan.of_string_exn spec) ~advice:no_advice g
          ~source:0 Sim.Scheme.flooding
      in
      check_bool (spec ^ " still informs everyone") true r.Sim.Runner.all_informed;
      check_bool (spec ^ " drains") true r.Sim.Runner.quiescent;
      check_bool (spec ^ " injected something") true
        ((Obs.Counting.of_events (collected ())).Obs.Counting.faults > 0))
    [ "reorder=3"; "delay=0.5:4,seed=19" ]

let test_runner_fault_determinism () =
  let g = Families.build Families.Sparse_random ~n:24 ~seed:9 in
  let plan = Plan.of_string_exn "drop=0.1,dup=0.1,delay=0.3:3,reorder=4,seed=77" in
  let run () =
    let collect, collected = Obs.Sink.collect () in
    let _ =
      Sim.Runner.run ~sinks:[ collect ] ~faults:plan ~advice:no_advice g ~source:0
        Sim.Scheme.flooding
    in
    collected ()
  in
  let a = run () and b = run () in
  check_int "same stream length" (List.length a) (List.length b);
  List.iter2 (fun x y -> check_bool "bit-identical streams" true (Event.equal x y)) a b

(* {1 Hardened schemes and the harness} *)

let tree24 () = Families.build Families.Random_tree ~n:24 ~seed:7
let hard12 () = fst (Oracle_core.Lower_bound.wakeup_hard_graph ~n:12 ~seed:11)

let test_harness_budgets () =
  let g = Gen.path 4 in
  (* n = 4, m = 3 *)
  let w = Fault.Harness.budgets Fault.Harness.Wakeup g in
  check_int "wakeup clean = n-1" 3 w.Fault.Verdict.clean;
  check_int "wakeup degraded = 2m+3n" 18 w.Fault.Verdict.degraded;
  let b = Fault.Harness.budgets Fault.Harness.Broadcast g in
  check_int "broadcast clean = 3n" 12 b.Fault.Verdict.clean;
  check_int "broadcast degraded = 4m+3n" 24 b.Fault.Verdict.degraded;
  check_string "wakeup name" "wakeup" (Fault.Harness.protocol_name Fault.Harness.Wakeup);
  check_string "broadcast name" "broadcast" (Fault.Harness.protocol_name Fault.Harness.Broadcast)

let test_hardened_wakeup_clean_advice () =
  (* With untampered advice the hardened scheme must behave exactly like
     the plain Theorem 2.1 scheme: n-1 messages, no fallbacks. *)
  let g = tree24 () in
  let o = Fault.Harness.run Fault.Harness.Wakeup g ~source:0 in
  check_bool "completed" true (o.Fault.Harness.verdict = Fault.Verdict.Completed);
  check_int "n-1 messages" (Graph.n g - 1) o.Fault.Harness.result.Sim.Runner.stats.Obs.Counting.sent;
  check_int "no fallbacks" 0 (List.length o.Fault.Harness.fallbacks);
  check_int "no tampering" 0 (List.length o.Fault.Harness.tampered);
  check_bool "all informed" true o.Fault.Harness.result.Sim.Runner.all_informed

let test_hardened_broadcast_clean_advice () =
  let g = tree24 () in
  let o = Fault.Harness.run Fault.Harness.Broadcast g ~source:0 in
  check_bool "completed" true (o.Fault.Harness.verdict = Fault.Verdict.Completed);
  check_bool "within the 3n Scheme B budget" true
    (o.Fault.Harness.result.Sim.Runner.stats.Obs.Counting.sent <= 3 * Graph.n g);
  check_bool "all informed" true o.Fault.Harness.result.Sim.Runner.all_informed

let test_truncated_advice_degrades_to_flooding () =
  (* The acceptance property: one truncated bit makes every nonempty
     advice undecodable, every advised node falls back to flooding, and
     the task still completes within the Θ(m) degraded budget. *)
  let plan = Plan.of_string_exn "advice-trunc=1" in
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun protocol ->
          let o = Fault.Harness.run ~plan protocol g ~source:0 in
          let label = Fault.Harness.protocol_name protocol ^ " on " ^ gname in
          (match o.Fault.Harness.verdict with
          | Fault.Verdict.Degraded _ -> ()
          | v -> Alcotest.failf "%s: expected degraded, got %s" label (Fault.Verdict.to_string v));
          check_bool (label ^ ": all informed despite corruption") true
            o.Fault.Harness.result.Sim.Runner.all_informed;
          check_bool (label ^ ": fell back somewhere") true
            (List.length o.Fault.Harness.fallbacks > 0);
          let budgets = Fault.Harness.budgets protocol g in
          check_bool (label ^ ": within the degraded budget") true
            (o.Fault.Harness.result.Sim.Runner.stats.Obs.Counting.sent
            <= budgets.Fault.Verdict.degraded))
        [ Fault.Harness.Wakeup; Fault.Harness.Broadcast ])
    [ ("tree", tree24 ()); ("G_{n,S}", hard12 ()) ]

let test_garbage_advice_still_acceptable () =
  let plan = Plan.of_string_exn "advice-garbage=16,seed=3" in
  List.iter
    (fun protocol ->
      let o = Fault.Harness.run ~plan protocol (tree24 ()) ~source:0 in
      check_bool
        (Fault.Harness.protocol_name protocol ^ " graceful under garbage")
        true
        (Fault.Verdict.acceptable o.Fault.Harness.verdict);
      check_bool "all informed" true o.Fault.Harness.result.Sim.Runner.all_informed)
    [ Fault.Harness.Wakeup; Fault.Harness.Broadcast ]

let test_hardened_wakeup_keeps_silence () =
  (* Even with undecodable advice, a hardened non-source node must stay
     silent until woken — degradation cannot buy back the wakeup
     restriction. *)
  let g = tree24 () in
  let oracle = Oracle_core.Wakeup.oracle () in
  let advice = oracle.Oracles.Oracle.advise g ~source:0 in
  let corrupted, _ = Fault.Corrupt.apply (Plan.of_string_exn "advice-trunc=1") advice in
  check_bool "silent network check holds" true
    (Sim.Runner.run_silent_network_check ~advice:(Advice.get corrupted) g ~source:0
       (Oracle_core.Wakeup.hardened_scheme ()))

(* {1 Reference model: Scheme B as written}

   The hardened broadcast once ran Scheme B over functional sets — kx
   and sx as [Set.Make (Int)] values, one diff/union/elements round trip
   per delivery.  It now shares the plain scheme's sorted-port-list
   state.  This copy of the set-based version is the oracle: on seeded
   draws over every family (with and without permuted ports), every
   scheduler, the advice and network fault kinds and two retry budgets,
   both must produce the same event stream, statistics, per-node load,
   informed set and fallbacks. *)
module IS = Set.Make (Int)

let reference_hardened_broadcast ~on_fallback static =
  let degree = static.Sim.History.degree in
  let fallback reason =
    on_fallback static.Sim.History.id reason;
    None
  in
  let usable ports =
    List.for_all (fun p -> p >= 0 && p < degree) ports
    && List.length (List.sort_uniq compare ports) = List.length ports
  in
  let advised =
    match Oracle_core.Broadcast.decode_known_ports_result Oracle_core.Broadcast.Marked
            static.Sim.History.advice
    with
    | Ok ports when usable ports -> Some ports
    | Ok _ -> fallback "unusable ports"
    | Error msg -> fallback msg
  in
  let reflooded = ref false in
  let reflood_from arrival =
    if !reflooded then []
    else begin
      reflooded := true;
      List.filter_map
        (fun p -> if arrival = Some p then None else Some (Sim.Message.reflood, p))
        (List.init degree (fun p -> p))
    end
  in
  match advised with
  | Some ports ->
    let kx = ref (IS.of_list ports) in
    let sx = ref IS.empty in
    let informed = ref static.Sim.History.is_source in
    let flush () =
      if !informed then begin
        let fresh = IS.diff !kx !sx in
        sx := IS.union !sx fresh;
        List.map (fun p -> (Sim.Message.Source, p)) (IS.elements fresh)
      end
      else []
    in
    let on_start () =
      if static.Sim.History.is_source then flush ()
      else List.map (fun p -> (Sim.Message.Hello, p)) (IS.elements !kx)
    in
    let on_receive msg ~port =
      match msg with
      | Sim.Message.Source ->
        kx := IS.add port !kx;
        sx := IS.add port !sx;
        informed := true;
        flush ()
      | Sim.Message.Hello ->
        kx := IS.add port !kx;
        flush ()
      | Sim.Message.Control _ when Sim.Message.is_timeout msg ->
        if !informed then reflood_from (Some port) else []
      | Sim.Message.Control _ when Sim.Message.is_reflood msg ->
        let first = not !informed in
        informed := true;
        kx := IS.add port !kx;
        sx := IS.add port !sx;
        (if first then flush () else []) @ reflood_from (Some port)
      | Sim.Message.Control _ -> []
    in
    { Sim.Scheme.on_start; on_receive }
  | None ->
    let all_ports = List.init degree (fun p -> p) in
    let informed = ref static.Sim.History.is_source in
    let flood arrival =
      List.filter_map
        (fun p -> if arrival = Some p then None else Some (Sim.Message.Source, p))
        all_ports
    in
    let on_start () =
      if static.Sim.History.is_source then flood None
      else List.map (fun p -> (Sim.Message.Hello, p)) all_ports
    in
    let on_receive msg ~port =
      match msg with
      | Sim.Message.Source when not !informed ->
        informed := true;
        flood (Some port)
      | Sim.Message.Control _ when Sim.Message.is_timeout msg ->
        if !informed then reflood_from (Some port) else []
      | Sim.Message.Control _ when Sim.Message.is_reflood msg ->
        let first = not !informed in
        informed := true;
        (if first then flood (Some port) else []) @ reflood_from (Some port)
      | Sim.Message.Source | Sim.Message.Hello | Sim.Message.Control _ -> []
    in
    { Sim.Scheme.on_start; on_receive }

let test_hardened_broadcast_matches_reference () =
  let rng = Random.State.make [| 31; 7 |] in
  let runs = ref 0 and with_fallbacks = ref 0 and with_control = ref 0 in
  List.iter
    (fun family ->
      List.iter
        (fun permuted ->
          let n = 6 + Random.State.int rng 42 in
          let g = Families.build family ~n ~seed:(Random.State.bits rng) in
          let g = if permuted then Netgraph.Transform.permute_ports g rng else g in
          let n = Graph.n g in
          let raw = Fault.Harness.advise Fault.Harness.Broadcast g ~source:0 in
          let seed = Random.State.int rng 1000 in
          let plans =
            [
              "none";
              Printf.sprintf "drop=0.%d,seed=%d" (1 + Random.State.int rng 3) seed;
              Printf.sprintf "crash=%d@%d,seed=%d" (Random.State.int rng n)
                (1 + Random.State.int rng (2 * n)) seed;
              Printf.sprintf "dead=%d,seed=%d" (1 + Random.State.int rng (n - 1)) seed;
              Printf.sprintf "advice-flip=%d,seed=%d" (1 + Random.State.int rng 4) seed;
              Printf.sprintf "advice-garbage=%d,seed=%d" (1 + Random.State.int rng 12) seed;
            ]
          in
          List.iter
            (fun spec ->
              let plan = Plan.of_string_exn spec in
              let advice = Advice.get (fst (Fault.Corrupt.apply plan raw)) in
              List.iter
                (fun scheduler ->
                  List.iter
                    (fun retry ->
                      let run factory_of =
                        let sink, collected = Obs.Sink.collect () in
                        let fallbacks = ref [] in
                        let on_fallback id reason = fallbacks := (id, reason) :: !fallbacks in
                        let r =
                          Sim.Runner.run ~scheduler ~sinks:[ sink ] ~faults:plan ~retry ~advice g
                            ~source:0 (factory_of ~on_fallback)
                        in
                        (collected (), r, List.rev !fallbacks)
                      in
                      let ev, r, fb =
                        run (fun ~on_fallback ->
                            Oracle_core.Broadcast.hardened_scheme ~on_fallback ())
                      in
                      let ev', r', fb' = run reference_hardened_broadcast in
                      let label =
                        Printf.sprintf "%s%s n=%d %s %s retry=%d" (Families.name family)
                          (if permuted then " permuted" else "")
                          n spec (Sim.Scheduler.name scheduler) retry
                      in
                      check_bool (label ^ ": events") true
                        (List.length ev = List.length ev' && List.for_all2 Event.equal ev ev');
                      check_bool (label ^ ": stats") true
                        (r.Sim.Runner.stats = r'.Sim.Runner.stats);
                      check_bool (label ^ ": per-node sent") true
                        (r.Sim.Runner.per_node_sent = r'.Sim.Runner.per_node_sent);
                      check_bool (label ^ ": informed") true
                        (r.Sim.Runner.informed = r'.Sim.Runner.informed);
                      check_bool (label ^ ": fallbacks") true (fb = fb');
                      incr runs;
                      if fb <> [] then incr with_fallbacks;
                      if r.Sim.Runner.stats.Obs.Counting.control_sent > 0 then incr with_control)
                    [ 0; 2 ])
                [
                  Sim.Scheduler.Synchronous;
                  Sim.Scheduler.Async_fifo;
                  Sim.Scheduler.Async_lifo;
                  Sim.Scheduler.Async_random (Random.State.bits rng);
                ])
            plans)
        [ false; true ])
    Families.all;
  check_int "every draw ran" (List.length Families.all * 2 * 6 * 4 * 2) !runs;
  check_bool "draws reach the degraded mode" true (!with_fallbacks > 0);
  check_bool "draws reach the recovery overlay" true (!with_control > 0)

let test_acceptance_grid_never_raises () =
  (* Every builtin plan x every scheduler x both graph families, for both
     protocols: the hardened schemes always terminate with a structured
     verdict and never break an invariant. *)
  let graphs = [ ("tree", tree24 ()); ("G_{n,S}", hard12 ()) ] in
  List.iter
    (fun (_, plan) ->
      List.iter
        (fun scheduler ->
          List.iter
            (fun (gname, g) ->
              List.iter
                (fun protocol ->
                  let label =
                    Printf.sprintf "%s %s %s %s"
                      (Fault.Harness.protocol_name protocol)
                      gname
                      (Sim.Scheduler.name scheduler)
                      (Plan.to_string plan)
                  in
                  match Fault.Harness.run ~scheduler ~plan protocol g ~source:0 with
                  | o -> (
                    match o.Fault.Harness.verdict with
                    | Fault.Verdict.Violated reason ->
                      Alcotest.failf "%s: violated (%s)" label reason
                    | Fault.Verdict.Completed | Fault.Verdict.Degraded _
                    | Fault.Verdict.Stalled _ ->
                      ())
                  | exception e ->
                    Alcotest.failf "%s: raised %s" label (Printexc.to_string e))
                [ Fault.Harness.Wakeup; Fault.Harness.Broadcast ])
            graphs)
        Sim.Scheduler.default_suite)
    Plan.builtins

(* {1 The verdict classifier, in isolation} *)

let send_link ~src ~dst ~informed =
  {
    Event.src;
    src_port = 0;
    dst;
    dst_port = 0;
    cls = Event.Source;
    bits = 1;
    informed;
    depth = 1;
  }

let clean_stream =
  [
    { Event.seq = 0; round = 0; kind = Event.Wake 0 };
    { Event.seq = 1; round = 0; kind = Event.Send (send_link ~src:0 ~dst:1 ~informed:true) };
    { Event.seq = 1; round = 1; kind = Event.Deliver (send_link ~src:0 ~dst:1 ~informed:true) };
    { Event.seq = 1; round = 1; kind = Event.Wake 1 };
  ]

let budgets ?(recovery = 0) ~clean ~degraded () = { Fault.Verdict.clean; degraded; recovery }

let test_verdict_completed_and_degraded () =
  (match Fault.Verdict.classify ~n:2 ~budgets:(budgets ~clean:1 ~degraded:4 ()) clean_stream with
  | Fault.Verdict.Completed -> ()
  | v -> Alcotest.failf "expected completed, got %s" (Fault.Verdict.to_string v));
  (* a fallback decision downgrades an otherwise clean run *)
  let with_fallback =
    { Event.seq = 0; round = 0; kind = Event.Decide (1, Fault.Verdict.fallback_tag) }
    :: clean_stream
  in
  (match Fault.Verdict.classify ~n:2 ~budgets:(budgets ~clean:1 ~degraded:4 ()) with_fallback with
  | Fault.Verdict.Degraded reason ->
    check_bool "reason names the fallback" true
      (String.length reason >= 15 && String.sub reason 0 15 = "advice-fallback")
  | v -> Alcotest.failf "expected degraded, got %s" (Fault.Verdict.to_string v));
  (* blowing the clean budget alone also degrades *)
  match Fault.Verdict.classify ~n:2 ~budgets:(budgets ~clean:0 ~degraded:4 ()) clean_stream with
  | Fault.Verdict.Degraded reason ->
    check_bool "reason names the budget" true
      (String.length reason >= 17 && String.sub reason 0 17 = "over-clean-budget")
  | v -> Alcotest.failf "expected degraded, got %s" (Fault.Verdict.to_string v)

let test_verdict_stalled_and_exclusion () =
  (* with n = 3 the same stream leaves node 2 uninformed *)
  (match Fault.Verdict.classify ~n:3 ~budgets:(budgets ~clean:5 ~degraded:9 ()) clean_stream with
  | Fault.Verdict.Stalled { informed; survivors; n } ->
    check_int "informed" 2 informed;
    check_int "survivors" 3 survivors;
    check_int "n" 3 n
  | v -> Alcotest.failf "expected stalled, got %s" (Fault.Verdict.to_string v));
  (* ... unless the adversary killed node 2: the scheme owes it nothing *)
  let with_dead =
    { Event.seq = 0; round = 0; kind = Event.Fault (Event.Dead 2) } :: clean_stream
  in
  match Fault.Verdict.classify ~n:3 ~budgets:(budgets ~clean:5 ~degraded:9 ()) with_dead with
  | Fault.Verdict.Degraded reason ->
    check_bool "reason names the failure" true
      (String.length reason >= 13 && String.sub reason 0 13 = "node-failures")
  | v -> Alcotest.failf "expected degraded, got %s" (Fault.Verdict.to_string v)

let test_verdict_violations () =
  (* degraded budget blown *)
  (match Fault.Verdict.classify ~n:2 ~budgets:(budgets ~clean:0 ~degraded:0 ()) clean_stream with
  | Fault.Verdict.Violated _ -> ()
  | v -> Alcotest.failf "expected violated, got %s" (Fault.Verdict.to_string v));
  (* a send by a non-woken node breaks wakeup silence — but only when the
     protocol claims that invariant *)
  let silent_break =
    [
      { Event.seq = 0; round = 0; kind = Event.Wake 0 };
      { Event.seq = 1; round = 0; kind = Event.Send (send_link ~src:1 ~dst:0 ~informed:false) };
      { Event.seq = 1; round = 1; kind = Event.Deliver (send_link ~src:1 ~dst:0 ~informed:false) };
      { Event.seq = 2; round = 1; kind = Event.Wake 1 };
    ]
  in
  (match
     Fault.Verdict.classify ~check_silence:true ~n:2 ~budgets:(budgets ~clean:5 ~degraded:9 ())
       silent_break
   with
  | Fault.Verdict.Violated _ -> ()
  | v -> Alcotest.failf "expected silence violation, got %s" (Fault.Verdict.to_string v));
  (* a run that ends with messages still in flight never really drained *)
  let runaway =
    [
      { Event.seq = 0; round = 0; kind = Event.Wake 0 };
      { Event.seq = 1; round = 0; kind = Event.Send (send_link ~src:0 ~dst:1 ~informed:true) };
    ]
  in
  match Fault.Verdict.classify ~n:2 ~budgets:(budgets ~clean:5 ~degraded:9 ()) runaway with
  | Fault.Verdict.Violated _ -> ()
  | v -> Alcotest.failf "expected runaway violation, got %s" (Fault.Verdict.to_string v)

let test_verdict_strings_and_acceptability () =
  check_bool "completed acceptable" true (Fault.Verdict.acceptable Fault.Verdict.Completed);
  check_bool "degraded acceptable" true
    (Fault.Verdict.acceptable (Fault.Verdict.Degraded "advice-fallback(3)"));
  check_bool "stalled not acceptable" false
    (Fault.Verdict.acceptable (Fault.Verdict.Stalled { informed = 1; survivors = 2; n = 2 }));
  check_bool "violated not acceptable" false
    (Fault.Verdict.acceptable (Fault.Verdict.Violated "x"));
  check_string "completed" "completed" (Fault.Verdict.to_string Fault.Verdict.Completed);
  check_string "stalled" "stalled: 1/2 survivors informed (n=3)"
    (Fault.Verdict.to_string (Fault.Verdict.Stalled { informed = 1; survivors = 2; n = 3 }))

(* {1 Recovery: the ack/retransmit channel and error-protected advice} *)

let sparse24 () = Families.build Families.Sparse_random ~n:24 ~seed:43

let test_verdict_cutoff_violates () =
  (* A run stopped by the message cutoff never drained: it must classify
     as a violation, not as a stalled-but-graceful run. *)
  (match
     Fault.Verdict.classify ~quiescent:false ~n:3 ~budgets:(budgets ~clean:5 ~degraded:9 ())
       clean_stream
   with
  | Fault.Verdict.Violated reason ->
    check_bool "reason names the cutoff" true
      (String.length reason >= 14 && String.sub reason 0 14 = "message-cutoff")
  | v -> Alcotest.failf "expected cutoff violation, got %s" (Fault.Verdict.to_string v));
  (* end to end: a tiny max_messages forces the cutoff *)
  let o = Fault.Harness.run ~max_messages:3 Fault.Harness.Broadcast (tree24 ()) ~source:0 in
  match o.Fault.Harness.verdict with
  | Fault.Verdict.Violated _ -> ()
  | v -> Alcotest.failf "harness cutoff: expected violated, got %s" (Fault.Verdict.to_string v)

let recovery_stream =
  (* send, dropped in flight, retransmitted once, finally delivered *)
  [
    { Event.seq = 0; round = 0; kind = Event.Wake 0 };
    { Event.seq = 1; round = 0; kind = Event.Send (send_link ~src:0 ~dst:1 ~informed:true) };
    { Event.seq = 1; round = 0; kind = Event.Fault Event.Msg_dropped };
    { Event.seq = 1; round = 1; kind = Event.Recover (Event.Msg_retransmitted 1) };
    { Event.seq = 1; round = 2; kind = Event.Deliver (send_link ~src:0 ~dst:1 ~informed:true) };
    { Event.seq = 1; round = 2; kind = Event.Wake 1 };
  ]

let test_verdict_recovery_budget () =
  (* within the recovery budget a retransmission only degrades *)
  (match
     Fault.Verdict.classify ~n:2
       ~budgets:(budgets ~clean:1 ~degraded:4 ~recovery:2 ())
       recovery_stream
   with
  | Fault.Verdict.Degraded reason ->
    check_bool "reason mentions retransmissions" true
      (String.length reason > 0
      && Option.is_some (String.index_opt reason 'r'))
  | v -> Alcotest.failf "expected degraded, got %s" (Fault.Verdict.to_string v));
  (* a zero recovery budget makes the same stream a violation *)
  (match
     Fault.Verdict.classify ~n:2 ~budgets:(budgets ~clean:1 ~degraded:4 ()) recovery_stream
   with
  | Fault.Verdict.Violated reason ->
    check_bool "reason names the recovery budget" true
      (String.length reason >= 15 && String.sub reason 0 15 = "recovery-budget")
  | v -> Alcotest.failf "expected violated, got %s" (Fault.Verdict.to_string v));
  (* corrected advice bits never downgrade a completed run *)
  let corrected_stream =
    { Event.seq = 0; round = 0; kind = Event.Recover (Event.Advice_corrected (1, 2)) }
    :: clean_stream
  in
  match
    Fault.Verdict.classify ~n:2 ~budgets:(budgets ~clean:1 ~degraded:4 ()) corrected_stream
  with
  | Fault.Verdict.Completed -> ()
  | v -> Alcotest.failf "corrections must stay completed, got %s" (Fault.Verdict.to_string v)

let test_loss_emits_typed_drops () =
  (* message loss is the plan's drop channel: every loss is a
     [Fault Msg_dropped] event in the stream *)
  let g = Gen.complete 12 in
  let collect, collected = Obs.Sink.collect () in
  let r =
    Sim.Runner.run ~sinks:[ collect ]
      ~faults:(Plan.of_string_exn "drop=0.3,seed=5")
      ~advice:no_advice g ~source:0 Sim.Scheme.flooding
  in
  let s = Obs.Counting.of_events (collected ()) in
  check_bool "losses recorded as typed drops" true (s.Obs.Counting.dropped > 0);
  check_bool "losses count as faults in the stats" true
    (r.Sim.Runner.stats.Obs.Counting.faults >= s.Obs.Counting.dropped);
  check_int "loss balance" (s.Obs.Counting.sent - s.Obs.Counting.dropped)
    s.Obs.Counting.delivered

let test_retry_reenqueues_lost_copies () =
  (* with retries armed, flooding on a path survives heavy loss *)
  let g = Gen.path 6 in
  let collect, collected = Obs.Sink.collect () in
  let r =
    Sim.Runner.run ~sinks:[ collect ]
      ~faults:(Plan.of_string_exn "drop=0.4,seed=9")
      ~retry:8 ~advice:no_advice g ~source:0 Sim.Scheme.flooding
  in
  let s = Obs.Counting.of_events (collected ()) in
  check_bool "retransmissions happened" true (s.Obs.Counting.retransmits > 0);
  check_bool "the path is fully informed despite 40% loss" true r.Sim.Runner.all_informed;
  check_int "recovery balance"
    (s.Obs.Counting.sent + s.Obs.Counting.duplicated + s.Obs.Counting.retransmits
    - s.Obs.Counting.dropped)
    s.Obs.Counting.delivered;
  (match Sim.Runner.run ~retry:(-1) ~advice:no_advice g ~source:0 Sim.Scheme.flooding with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative retry must be rejected")

let test_retry_heals_drop_and_crash_grid () =
  (* The acceptance property: with the retransmit channel armed, the
     builtin drop and crash plans no longer stall a single run across the
     full plan x scheduler x family grid, for both protocols. *)
  let graphs = [ ("tree", tree24 ()); ("sparse", sparse24 ()); ("G_{n,S}", hard12 ()) ] in
  let plans =
    List.filter
      (fun (name, _) ->
        String.starts_with ~prefix:"drop" name || String.starts_with ~prefix:"crash" name)
      Plan.builtins
  in
  check_int "three plans under test" 3 (List.length plans);
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (plan_name, plan) ->
      (* Plans that also tamper with advice need the ECC half of the
         recovery stack; retransmission alone cannot undo a flipped bit. *)
      let protect =
        if contains_sub plan_name "advice-flip" then Bitstring.Ecc.Hamming
        else Bitstring.Ecc.Raw
      in
      List.iter
        (fun scheduler ->
          List.iter
            (fun (gname, g) ->
              List.iter
                (fun protocol ->
                  let o =
                    Fault.Harness.run ~scheduler ~plan ~protect ~retry:3 protocol g ~source:0
                  in
                  let label =
                    Printf.sprintf "%s %s %s %s"
                      (Fault.Harness.protocol_name protocol)
                      gname
                      (Sim.Scheduler.name scheduler)
                      plan_name
                  in
                  match o.Fault.Harness.verdict with
                  | Fault.Verdict.Completed | Fault.Verdict.Degraded _ -> ()
                  | v -> Alcotest.failf "%s: %s" label (Fault.Verdict.to_string v))
                [ Fault.Harness.Wakeup; Fault.Harness.Broadcast ])
            graphs)
        Sim.Scheduler.default_suite)
    plans

let test_protection_absorbs_single_flips () =
  (* The other acceptance property: under a single-bit flip plan, Hamming
     protection classifies Completed — the ECC layer absorbs the attack
     without any flooding fallback — at no more than 3x the raw advice. *)
  let plan = Plan.of_string_exn "advice-flip=1,seed=5" in
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun protocol ->
          let o =
            Fault.Harness.run ~plan ~protect:Bitstring.Ecc.Hamming protocol g ~source:0
          in
          let label = Fault.Harness.protocol_name protocol ^ " on " ^ gname in
          (match o.Fault.Harness.verdict with
          | Fault.Verdict.Completed -> ()
          | v -> Alcotest.failf "%s: expected completed, got %s" label (Fault.Verdict.to_string v));
          check_bool (label ^ ": protected advice <= 3x raw") true
            (o.Fault.Harness.advice_bits <= 3 * o.Fault.Harness.raw_advice_bits);
          check_int (label ^ ": no fallbacks") 0 (List.length o.Fault.Harness.fallbacks);
          check_bool (label ^ ": the correction is recorded") true
            (List.length o.Fault.Harness.corrected = List.length o.Fault.Harness.tampered);
          check_bool (label ^ ": all informed") true
            o.Fault.Harness.result.Sim.Runner.all_informed)
        [ Fault.Harness.Wakeup; Fault.Harness.Broadcast ])
    [ ("tree", tree24 ()); ("sparse", sparse24 ()) ]

let test_unprotected_flip_falls_back () =
  (* the contrast: the same plan without protection must pay the fallback *)
  let plan = Plan.of_string_exn "advice-flip=1,seed=5" in
  let o = Fault.Harness.run ~plan Fault.Harness.Wakeup (tree24 ()) ~source:0 in
  check_bool "raw advice cannot absorb a flip silently" true
    (o.Fault.Harness.verdict <> Fault.Verdict.Completed
    || List.length o.Fault.Harness.fallbacks > 0
    || o.Fault.Harness.result.Sim.Runner.stats.Obs.Counting.sent > Graph.n (tree24 ()) - 1
    || not o.Fault.Harness.result.Sim.Runner.all_informed)

let test_recovery_determinism_and_replay () =
  (* identical plan + protection + retry + scheduler: bit-identical
     streams, and the replayer's balance holds with retransmissions *)
  let g = sparse24 () in
  let plan = Plan.of_string_exn "drop=0.1,crash=1@3,advice-flip=1,seed=7" in
  let run () =
    Fault.Harness.run ~scheduler:(Sim.Scheduler.Async_random 3) ~plan
      ~protect:Bitstring.Ecc.Hamming ~retry:3 Fault.Harness.Wakeup g ~source:0
  in
  let a = run () and b = run () in
  check_int "same stream length" (List.length a.Fault.Harness.events)
    (List.length b.Fault.Harness.events);
  List.iter2
    (fun x y -> check_bool "bit-identical recovery streams" true (Event.equal x y))
    a.Fault.Harness.events b.Fault.Harness.events;
  check_bool "verdicts agree" true (a.Fault.Harness.verdict = b.Fault.Harness.verdict);
  check_bool "the run recovered" true (Fault.Verdict.acceptable a.Fault.Harness.verdict);
  let replayed = Obs.Replay.replay ~n:(Graph.n g) a.Fault.Harness.events in
  check_int "replay agrees on sends" a.Fault.Harness.result.Sim.Runner.stats.Obs.Counting.sent
    replayed.Obs.Replay.summary.Obs.Counting.sent;
  check_int "replay balance closes with retransmissions" 0 replayed.Obs.Replay.in_flight

let test_recovery_budget_end_to_end () =
  (* the harness recovery budget scales with retry; retry=0 keeps the
     PR 2 classification bit for bit *)
  let g = Gen.path 4 in
  let b0 = Fault.Harness.budgets Fault.Harness.Wakeup g in
  check_int "no retry, no recovery budget" 0 b0.Fault.Verdict.recovery;
  let b3 = Fault.Harness.budgets ~retry:3 Fault.Harness.Wakeup g in
  check_int "recovery = retry x degraded" (3 * b3.Fault.Verdict.degraded)
    b3.Fault.Verdict.recovery;
  let plan = Plan.of_string_exn "drop=0.1,seed=7" in
  let o0 = Fault.Harness.run ~plan Fault.Harness.Wakeup (tree24 ()) ~source:0 in
  let o0' = Fault.Harness.run ~plan ~retry:0 Fault.Harness.Wakeup (tree24 ()) ~source:0 in
  check_int "retry=0 is the default stream" (List.length o0.Fault.Harness.events)
    (List.length o0'.Fault.Harness.events);
  List.iter2
    (fun x y -> check_bool "identical" true (Event.equal x y))
    o0.Fault.Harness.events o0'.Fault.Harness.events

(* retry x degraded saturates: the largest retry count is an unbounded
   recovery budget, never a negative one that violates clean runs. *)
let test_max_retry_budget_saturates () =
  let protocols = [ Fault.Harness.Wakeup; Fault.Harness.Broadcast ] in
  let plans = [ Plan.none; Plan.of_string_exn "drop=0.1,seed=7" ] in
  List.iter
    (fun family ->
      let g = Families.build family ~n:16 ~seed:7 in
      List.iter
        (fun protocol ->
          let label = Fault.Harness.protocol_name protocol ^ " on " ^ Families.name family in
          let b = Fault.Harness.budgets ~retry:max_int protocol g in
          check_bool (label ^ ": recovery budget >= 0") true (b.Fault.Verdict.recovery >= 0);
          List.iter
            (fun plan ->
              let o = Fault.Harness.run ~plan ~retry:max_int protocol g ~source:0 in
              let label = label ^ " under " ^ Plan.to_string plan in
              (match o.Fault.Harness.verdict with
              | Fault.Verdict.Violated r when String.starts_with ~prefix:"recovery-budget" r ->
                Alcotest.failf "%s: %s" label r
              | _ -> ());
              if Plan.is_none plan then
                check_string (label ^ ": completed") "completed"
                  (Fault.Verdict.to_string o.Fault.Harness.verdict))
            plans)
        protocols)
    Families.all

(* {1 The CLI's [--fault --suite]} *)

(* {1 The harness's recorder and verdict} *)

(* What [outcome.events] must equal: the list a plain cons-and-reverse
   sink builds from the same stream. *)
let plain_collector () =
  let acc = ref [] in
  (Obs.Sink.make (fun ev -> acc := ev :: !acc), fun () -> List.rev !acc)

(* The survivors no source path reaches once the nodes an event list
   names as crashed or dead are removed: the [?unreachable] argument
   the harness passes at [retry > 0], rebuilt from the list alone. *)
let list_unreachable g events =
  let n = Graph.n g in
  let failed = Array.make n false in
  List.iter
    (fun ev ->
      match ev.Event.kind with
      | Event.Fault (Event.Crashed v | Event.Dead v) -> failed.(v) <- true
      | _ -> ())
    events;
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
  Array.init n (fun v -> (not failed.(v)) && not seen.(v))

let test_recorder_matches_plain_collector () =
  (* Seeded runs over every family and scheduler, under drop, crash,
     dead and advice-tampering plans, at retry 0 and 2: the packed
     recorder, [Sink.collect] and a plain list agree event for event,
     and the harness's verdict and summary agree with the list folds
     (at retry 2 with the stranded survivors recomputed from the list).
     Each draw runs once more with no caller sink, so the runner packs
     its records straight from their fields: that run must give the
     same events, verdict and journal entry. *)
  let rng = Random.State.make [| 24 |] in
  let kinds = Hashtbl.create 8 in
  let runs = ref 0 in
  List.iter
    (fun family ->
      let g = Families.build family ~n:(12 + Random.State.int rng 17) ~seed:(Random.State.bits rng) in
      let n = Graph.n g in
      let node () = 1 + Random.State.int rng (n - 1) in
      let seed = Random.State.int rng 1000 in
      let plans =
        List.map Plan.of_string_exn
          [
            Printf.sprintf "drop=0.1,seed=%d" seed;
            Printf.sprintf "crash=%d@%d,seed=%d" (node ()) (Random.State.int rng 20) seed;
            Printf.sprintf "dead=%d,drop=0.05,seed=%d" (node ()) seed;
            Printf.sprintf "advice-garbage=4,seed=%d" seed;
            Printf.sprintf "advice-trunc=2,advice-flip=1,dup=0.1,seed=%d" seed;
          ]
      in
      List.iter
        (fun scheduler ->
          List.iteri
            (fun i plan ->
              List.iter
                (fun protocol ->
                  incr runs;
                  let retry = if (!runs + i) mod 2 = 0 then 0 else 2 in
                  let plain, plain_list = plain_collector () in
                  let collect, collected = Obs.Sink.collect () in
                  let o =
                    Fault.Harness.run ~scheduler ~plan ~retry ~sinks:[ plain; collect ] protocol g
                      ~source:0
                  in
                  let label =
                    Printf.sprintf "%s %s %s %s retry=%d"
                      (Fault.Harness.protocol_name protocol)
                      (Families.name family) (Sim.Scheduler.name scheduler) (Plan.to_string plan)
                      retry
                  in
                  let events = plain_list () in
                  List.iter (fun ev -> Hashtbl.replace kinds (Event.kind_name ev.Event.kind) ()) events;
                  if o.Fault.Harness.events <> events then Alcotest.failf "%s: recorder differs" label;
                  if collected () <> events then Alcotest.failf "%s: Sink.collect differs" label;
                  let bare = Fault.Harness.run ~scheduler ~plan ~retry protocol g ~source:0 in
                  if bare.Fault.Harness.events <> events then
                    Alcotest.failf "%s: sink-less run's events differ" label;
                  if bare.Fault.Harness.verdict <> o.Fault.Harness.verdict then
                    Alcotest.failf "%s: sink-less verdict %s, with sinks %s" label
                      (Fault.Verdict.to_string bare.Fault.Harness.verdict)
                      (Fault.Verdict.to_string o.Fault.Harness.verdict);
                  if Fault.Harness.journal_entry g bare <> Fault.Harness.journal_entry g o then
                    Alcotest.failf "%s: sink-less journal entry differs" label;
                  let folded = Obs.Counting.of_events events in
                  let stats = o.Fault.Harness.result.Sim.Runner.stats in
                  if
                    folded.Obs.Counting.retransmits <> stats.Obs.Counting.retransmits
                    || folded.Obs.Counting.corrected_bits
                       <> List.fold_left (fun acc (_, bits) -> acc + bits) 0 o.Fault.Harness.corrected
                  then Alcotest.failf "%s: recovery counts differ from the list fold" label;
                  let unreachable =
                    if retry = 0 then None else Some (list_unreachable g events)
                  in
                  let listed =
                    Fault.Verdict.classify ~check_silence:(protocol = Fault.Harness.Wakeup)
                      ~quiescent:o.Fault.Harness.result.Sim.Runner.quiescent ?unreachable ~n
                      ~budgets:(Fault.Harness.budgets ~retry protocol g)
                      events
                  in
                  if listed <> o.Fault.Harness.verdict then
                    Alcotest.failf "%s: harness verdict %s, list verdict %s" label
                      (Fault.Verdict.to_string o.Fault.Harness.verdict)
                      (Fault.Verdict.to_string listed))
                [ Fault.Harness.Wakeup; Fault.Harness.Broadcast ])
            plans)
        Sim.Scheduler.default_suite)
    Families.all;
  check_int "every draw ran" (List.length Families.all * 5 * 5 * 2) !runs;
  List.iter
    (fun k -> check_bool (k ^ " events occurred") true (Hashtbl.mem kinds k))
    [ "send"; "deliver"; "wake"; "advice"; "decide"; "fault"; "recover" ]

(* A faulty synchronous broadcast on 1024 nodes: some round delivers
   more than 256 messages, so the runner's ring grows past its
   initial 256 slots. *)
let warm_plan = Plan.of_string_exn "drop=0.05,crash=3@5,seed=7"

let big_graph () = Families.build Families.Sparse_random ~n:1024 ~seed:1

let largest_round (o : Fault.Harness.outcome) =
  let per_round = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      match ev.Event.kind with
      | Event.Deliver _ ->
        let r = ev.Event.round in
        Hashtbl.replace per_round r (1 + Option.value ~default:0 (Hashtbl.find_opt per_round r))
      | _ -> ())
    o.Fault.Harness.events;
  Hashtbl.fold (fun _ c acc -> max c acc) per_round 0

let test_recorder_survives_nesting_and_raises () =
  let plan = Plan.of_string_exn "drop=0.1,advice-trunc=1,seed=7" in
  let run ?sinks g = Fault.Harness.run ?sinks ~plan ~retry:2 Fault.Harness.Broadcast g ~source:0 in
  let reference g =
    let sink, got = plain_collector () in
    ignore (run ~sinks:[ sink ] g);
    got ()
  in
  let g = tree24 () and h = sparse24 () in
  let g_events = reference g and h_events = reference h in
  (* A user sink that runs a whole harness run on the same domain, from
     inside the outer run. *)
  let inner = ref None in
  let nesting =
    Obs.Sink.make (fun ev ->
        match ev.Event.kind with
        | Event.Send _ when !inner = None -> inner := Some (run h)
        | _ -> ())
  in
  let outer = run ~sinks:[ nesting ] g in
  check_bool "outer run's events intact" true (outer.Fault.Harness.events = g_events);
  (match !inner with
  | Some o -> check_bool "nested run's events intact" true (o.Fault.Harness.events = h_events)
  | None -> Alcotest.fail "the nested run never ran");
  let raising =
    let k = ref 0 in
    Obs.Sink.make (fun _ ->
        incr k;
        if !k = 50 then failwith "sink gave up")
  in
  (match run ~sinks:[ raising ] g with
  | _ -> Alcotest.fail "a run whose sink raised returned"
  | exception Failure _ -> ());
  check_bool "the run after a raise is intact" true ((run h).Fault.Harness.events = h_events);
  check_bool "and the one after that" true ((run g).Fault.Harness.events = g_events);
  (* The same on a graph whose runs outgrow the 256-slot ring, under
     the synchronous scheduler, so the warm buffers a nested or raising
     run leaves behind are grown ones, abandoned mid-round. *)
  let big = big_graph () in
  let run_big ?sinks () =
    Fault.Harness.run ?sinks ~scheduler:Sim.Scheduler.Synchronous ~plan:warm_plan ~retry:2
      Fault.Harness.Broadcast big ~source:0
  in
  let big_ref = run_big () in
  check_bool "a round outgrows the 256-slot ring" true (largest_round big_ref > 256);
  let half = List.length big_ref.Fault.Harness.events / 2 in
  let inner = ref None in
  let k = ref 0 in
  let nesting =
    Obs.Sink.make (fun _ ->
        incr k;
        if !k = half then inner := Some (run_big ()))
  in
  let outer = run_big ~sinks:[ nesting ] () in
  check_bool "outer grown run intact" true (outer = big_ref);
  check_bool "run nested at mid-stream intact" true (!inner = Some big_ref);
  let raising =
    let k = ref 0 in
    Obs.Sink.make (fun _ ->
        incr k;
        if !k = half then failwith "sink gave up")
  in
  (match run_big ~sinks:[ raising ] () with
  | _ -> Alcotest.fail "a grown run whose sink raised returned"
  | exception Failure _ -> ());
  check_bool "a small run after the grown raise is intact" true
    ((run h).Fault.Harness.events = h_events);
  check_bool "a grown run after it is intact" true (run_big () = big_ref)

(* {1 Warm buffers and raw advice} *)

let test_warm_buffers_match_fresh_domain () =
  let run g =
    Fault.Harness.run ~scheduler:Sim.Scheduler.Synchronous ~plan:warm_plan ~retry:2
      Fault.Harness.Broadcast g ~source:0
  in
  (* A spawned domain starts with an empty slot: its run grows its
     buffers from scratch. *)
  let fresh g = Domain.join (Domain.spawn (fun () -> run g)) in
  let same label g (o : Fault.Harness.outcome) =
    let f = fresh g in
    check_string (label ^ ": verdict")
      (Fault.Verdict.to_string f.Fault.Harness.verdict)
      (Fault.Verdict.to_string o.Fault.Harness.verdict);
    check_bool (label ^ ": outcome, events included") true (o = f)
  in
  let large = big_graph () and small = tree24 () in
  let first = run large in
  check_bool "a round outgrows the 256-slot ring" true (largest_round first > 256);
  same "large" large first;
  same "small after large" small (run small);
  same "large again" large (run large)

let test_raw_run_leaves_cached_advice () =
  let g = sparse24 () in
  List.iter
    (fun protocol ->
      let raw_advice = Fault.Harness.advise protocol g ~source:0 in
      let saved = Array.init (Advice.n raw_advice) (fun v -> Bitbuf.copy (Advice.get raw_advice v)) in
      List.iter
        (fun spec ->
          let plan = Plan.of_string_exn spec in
          ignore (Fault.Harness.run ~plan ~retry:2 ~raw_advice protocol g ~source:0);
          Array.iteri
            (fun v b ->
              if not (Bitbuf.equal b (Advice.get raw_advice v)) then
                Alcotest.failf "%s under %s: node %d's cached advice changed"
                  (Fault.Harness.protocol_name protocol) spec v)
            saved)
        [ "none"; "drop=0.1,seed=7"; "advice-flip=3,advice-trunc=2,seed=5"; "advice-garbage=4,seed=9" ])
    [ Fault.Harness.Wakeup; Fault.Harness.Broadcast ]

(* {1 The verdict's two feeders at their boundaries} *)

(* The harness's feeder over a recording of [events]: the counters and
   informed set it takes from the run are folded from the list here;
   the failed set and the silence flag come from the recording. *)
let judge_recording ?check_silence ~n ~budgets events =
  let r = Obs.Recorder.create () in
  List.iter (Obs.Recorder.push r) events;
  let informed = Array.make n false in
  let fallbacks = ref 0 in
  List.iter
    (fun ev ->
      match ev.Event.kind with
      | Event.Wake v -> informed.(v) <- true
      | Event.Decide (_, tag) when tag = Fault.Verdict.fallback_tag -> incr fallbacks
      | _ -> ())
    events;
  Fault.Verdict.judge ?check_silence ~budgets
    (Fault.Verdict.recorded ?check_silence ~stats:(Obs.Counting.of_events events) ~informed
       ~fallbacks:!fallbacks r)

(* Both feeders give [expected] on [events]. *)
let both_feeders label ?check_silence ~n ~budgets events expected =
  let via_list = Fault.Verdict.classify ?check_silence ~n ~budgets events in
  let via_recording = judge_recording ?check_silence ~n ~budgets events in
  check_string (label ^ ": list") expected (Fault.Verdict.to_string via_list);
  check_string (label ^ ": recording") expected (Fault.Verdict.to_string via_recording)

let test_boxed_send_breaks_silence () =
  (* [bits] one past its 21-bit packed width: the recorder keeps this
     send boxed, so only the boxed half of the scan can see it *)
  let wide = { (send_link ~src:1 ~dst:0 ~informed:false) with Event.bits = 1 lsl 21 } in
  let events =
    [
      { Event.seq = 0; round = 0; kind = Event.Wake 0 };
      { Event.seq = 1; round = 0; kind = Event.Send wide };
      { Event.seq = 1; round = 1; kind = Event.Deliver wide };
      { Event.seq = 2; round = 1; kind = Event.Wake 1 };
    ]
  in
  let r = Obs.Recorder.create () in
  List.iter (Obs.Recorder.push r) events;
  let boxed = ref 0 in
  Obs.Recorder.iter_boxed r (fun _ -> incr boxed);
  check_int "send and deliver are boxed" 2 !boxed;
  check_bool "the scan finds the boxed send" true (Obs.Recorder.uninformed_send r);
  (* packed sends of every class: the scan reads the informed bit alone *)
  List.iter
    (fun cls ->
      List.iter
        (fun informed ->
          let p = Obs.Recorder.create () in
          Obs.Recorder.push p
            {
              Event.seq = 1;
              round = 0;
              kind = Event.Send { (send_link ~src:1 ~dst:0 ~informed) with Event.cls };
            };
          check_bool "packed send" (not informed) (Obs.Recorder.uninformed_send p))
        [ true; false ])
    [ Event.Source; Event.Hello; Event.Control ];
  let budgets = budgets ~clean:5 ~degraded:9 () in
  both_feeders "silence checked" ~check_silence:true ~n:2 ~budgets events
    "violated: wakeup-silence: a non-woken node transmitted";
  both_feeders "silence unchecked" ~n:2 ~budgets events "completed";
  (* an informed send past the packed width breaks nothing *)
  let informed_wide = { wide with Event.informed = true } in
  both_feeders "informed wide send" ~check_silence:true ~n:2 ~budgets
    (List.map
       (fun ev ->
         match ev.Event.kind with
         | Event.Send _ -> { ev with Event.kind = Event.Send informed_wide }
         | _ -> ev)
       events)
    "completed"

let test_crashed_and_dead_count_once () =
  let events =
    { Event.seq = 0; round = 0; kind = Event.Fault (Event.Crashed 2) }
    :: { Event.seq = 0; round = 0; kind = Event.Fault (Event.Dead 2) }
    :: clean_stream
  in
  both_feeders "crashed and dead" ~n:3 ~budgets:(budgets ~clean:5 ~degraded:9 ()) events
    "degraded: node-failures(1)"

let test_empty_recording_judges_like_empty_list () =
  List.iter
    (fun (n, expected) ->
      both_feeders (Printf.sprintf "empty, n=%d" n) ~check_silence:true ~n
        ~budgets:(budgets ~clean:0 ~degraded:0 ())
        [] expected)
    [
      (0, "completed");
      (1, "stalled: 0/1 survivors informed (n=1)");
      (3, "stalled: 0/3 survivors informed (n=3)");
    ]

(* Relative to the test cwd (_build/default/test). *)
let exe = "../bin/oraclesize.exe"

(* Exit code and stdout of one CLI run. *)
let cli args =
  let out = Filename.temp_file "oracle-fault-suite" ".out" in
  let code =
    match Unix.system (Printf.sprintf "%s %s >%s 2>/dev/null" exe args (Filename.quote out)) with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

(* The one token that may differ between job counts. *)
let mask_jobs text =
  String.split_on_char ' ' text
  |> List.map (fun w -> if String.starts_with ~prefix:"jobs=" w then "jobs=_" else w)
  |> String.concat " "

(* The rows after the table header, one per scheduler. *)
let suite_rows text =
  let lines = String.split_on_char '\n' text in
  let rec after = function
    | [] -> []
    | l :: rest -> if String.starts_with ~prefix:"scheduler " l then rest else after rest
  in
  List.filter (fun l -> l <> "") (after lines)

let test_cli_suite () =
  let args retry jobs =
    Printf.sprintf "broadcast -n 24 --fault drop=0.1,seed=7 --retry %d --suite -j %d" retry jobs
  in
  let c1, out1 = cli (args 2 1) in
  let c2, out2 = cli (args 2 2) in
  check_int "-j 1 exits 0" 0 c1;
  check_int "-j 2 exits 0" 0 c2;
  check_string "stdout equal once jobs= is masked" (mask_jobs out1) (mask_jobs out2);
  let rows = suite_rows out1 in
  Alcotest.(check (list string))
    "one row per scheduler, in default_suite order"
    (List.map Sim.Scheduler.name Sim.Scheduler.default_suite)
    (List.map (fun l -> List.hd (String.split_on_char ' ' l)) rows);
  let c0, out0 = cli (args 0 1) in
  check_int "--retry 0 exits 1" 1 c0;
  check_bool "--retry 0 rows stall" true
    (List.exists (fun l -> List.mem "stalled:" (String.split_on_char ' ' l)) (suite_rows out0))

let suite =
  [
    Alcotest.test_case "plan: none" `Quick test_plan_none;
    Alcotest.test_case "plan: builtins roundtrip" `Quick test_plan_builtins_roundtrip;
    Alcotest.test_case "plan: spec fields" `Quick test_plan_parse_fields;
    Alcotest.test_case "plan: rejects malformed" `Quick test_plan_rejects_malformed;
    Alcotest.test_case "plan: advice-only vs network" `Quick test_plan_advice_only_is_not_network;
    Alcotest.test_case "corrupt: empty plan is identity" `Quick test_corrupt_empty_plan_is_identity;
    Alcotest.test_case "corrupt: pure and deterministic" `Quick test_corrupt_pure_and_deterministic;
    Alcotest.test_case "corrupt: flip" `Quick test_corrupt_flip;
    Alcotest.test_case "corrupt: truncate" `Quick test_corrupt_truncate;
    Alcotest.test_case "corrupt: swap" `Quick test_corrupt_swap;
    Alcotest.test_case "corrupt: garbage" `Quick test_corrupt_garbage;
    Alcotest.test_case "corrupt: tamper log as telemetry" `Quick test_corrupt_events;
    Alcotest.test_case "runner: empty plan leaves the stream alone" `Quick
      test_runner_empty_plan_identical_stream;
    Alcotest.test_case "runner: drop/dup accounting balances" `Quick test_runner_accounting_balance;
    Alcotest.test_case "runner: dead node" `Quick test_runner_dead_node;
    Alcotest.test_case "runner: crash-stop" `Quick test_runner_crash_stop;
    Alcotest.test_case "runner: reorder and delay complete" `Quick
      test_runner_reorder_and_delay_complete;
    Alcotest.test_case "runner: injection is deterministic" `Quick test_runner_fault_determinism;
    Alcotest.test_case "harness: budgets" `Quick test_harness_budgets;
    Alcotest.test_case "hardened wakeup = plain on clean advice" `Quick
      test_hardened_wakeup_clean_advice;
    Alcotest.test_case "hardened broadcast on clean advice" `Quick
      test_hardened_broadcast_clean_advice;
    Alcotest.test_case "truncated advice degrades to flooding" `Quick
      test_truncated_advice_degrades_to_flooding;
    Alcotest.test_case "garbage advice stays graceful" `Quick test_garbage_advice_still_acceptable;
    Alcotest.test_case "hardened wakeup keeps silence" `Quick test_hardened_wakeup_keeps_silence;
    Alcotest.test_case "hardened broadcast = set-based reference" `Quick
      test_hardened_broadcast_matches_reference;
    Alcotest.test_case "acceptance grid never raises" `Quick test_acceptance_grid_never_raises;
    Alcotest.test_case "verdict: completed and degraded" `Quick test_verdict_completed_and_degraded;
    Alcotest.test_case "verdict: stalled and exclusion" `Quick test_verdict_stalled_and_exclusion;
    Alcotest.test_case "verdict: violations" `Quick test_verdict_violations;
    Alcotest.test_case "verdict: strings and acceptability" `Quick
      test_verdict_strings_and_acceptability;
    Alcotest.test_case "verdict: cutoff violates" `Quick test_verdict_cutoff_violates;
    Alcotest.test_case "verdict: recovery budget" `Quick test_verdict_recovery_budget;
    Alcotest.test_case "harness: max retry saturates the recovery budget" `Quick
      test_max_retry_budget_saturates;
    Alcotest.test_case "runner: loss emits typed drops" `Quick test_loss_emits_typed_drops;
    Alcotest.test_case "runner: retry re-enqueues lost copies" `Quick
      test_retry_reenqueues_lost_copies;
    Alcotest.test_case "recovery: retry heals drop and crash grid" `Quick
      test_retry_heals_drop_and_crash_grid;
    Alcotest.test_case "recovery: hamming absorbs single flips" `Quick
      test_protection_absorbs_single_flips;
    Alcotest.test_case "recovery: unprotected flip falls back" `Quick
      test_unprotected_flip_falls_back;
    Alcotest.test_case "recovery: deterministic and replayable" `Quick
      test_recovery_determinism_and_replay;
    Alcotest.test_case "recovery: budgets end to end" `Quick test_recovery_budget_end_to_end;
    Alcotest.test_case "cli: --suite rows at -j 1 and -j 2" `Quick test_cli_suite;
    Alcotest.test_case "recorder = plain collector on seeded runs" `Quick
      test_recorder_matches_plain_collector;
    Alcotest.test_case "recorder survives nested and raising runs" `Quick
      test_recorder_survives_nesting_and_raises;
    Alcotest.test_case "warm buffers: large, small, large = fresh domain" `Quick
      test_warm_buffers_match_fresh_domain;
    Alcotest.test_case "raw run leaves cached advice unchanged" `Quick
      test_raw_run_leaves_cached_advice;
    Alcotest.test_case "verdict: a boxed send breaks wakeup silence" `Quick
      test_boxed_send_breaks_silence;
    Alcotest.test_case "verdict: crashed and dead count once" `Quick
      test_crashed_and_dead_count_once;
    Alcotest.test_case "verdict: empty recording = empty list" `Quick
      test_empty_recording_judges_like_empty_list;
  ]
