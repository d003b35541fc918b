module Graph = Netgraph.Graph
module Gen = Netgraph.Gen
module Transform = Netgraph.Transform

let wakeup_hard_graph ~n ~seed =
  if n < 3 then invalid_arg "Lower_bound.wakeup_hard_graph: n < 3";
  let st = Random.State.make [| seed; n; 0x5eed |] in
  let host = Gen.complete n in
  let chosen = Transform.choose_edges host ~count:n st in
  (Transform.subdivide host ~chosen, chosen)

type wakeup_point = {
  wp_n : int;
  informed_messages : int;
  informed_bits : int;
  oblivious_messages : int;
  counting_bound : float;
  capped_bits : int;
  threshold_bits : int;
  threshold_ratio : float;
}

let min_advice_for_linear_wakeup ~n ~budget_factor =
  let target = budget_factor *. float_of_int (2 * n) in
  let vacuous bits = Bounds.wakeup_message_lower_bound ~n ~advice_bits:bits <= target in
  (* The bound is monotone decreasing in the advice budget; bisect. *)
  let hi =
    let rec grow hi = if vacuous hi then hi else grow (2 * hi) in
    grow 16
  in
  let rec bisect lo hi =
    (* Invariant: not (vacuous lo) && vacuous hi. *)
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if vacuous mid then bisect lo mid else bisect mid hi
  in
  if vacuous 0 then 0 else bisect 0 hi

let wakeup_experiment ~n ~seed =
  let g, _ = wakeup_hard_graph ~n ~seed in
  let source = 0 in
  let informed = Wakeup.run g ~source in
  if not informed.Wakeup.result.Sim.Runner.all_informed then
    failwith "Lower_bound.wakeup_experiment: informed wakeup failed";
  let advice_free v =
    ignore v;
    Bitstring.Bitbuf.create ()
  in
  let flood = Sim.Runner.run ~advice:advice_free g ~source Sim.Scheme.flooding in
  if not flood.Sim.Runner.all_informed then
    failwith "Lower_bound.wakeup_experiment: flooding failed";
  let two_n = 2 * n in
  let capped_bits =
    int_of_float (float_of_int two_n *. Float.log2 (float_of_int two_n) /. 3.0)
  in
  let threshold_bits = min_advice_for_linear_wakeup ~n ~budget_factor:3.0 in
  let threshold_ratio =
    float_of_int threshold_bits
    /. (float_of_int two_n *. Float.log2 (float_of_int two_n))
  in
  {
    wp_n = n;
    informed_messages = informed.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent;
    informed_bits = informed.Wakeup.advice_bits;
    oblivious_messages = flood.Sim.Runner.stats.Obs.Counting.sent;
    counting_bound = Bounds.wakeup_message_lower_bound ~n ~advice_bits:capped_bits;
    capped_bits;
    threshold_bits;
    threshold_ratio;
  }

let wakeup_hard_graph_c ~n ~c ~seed =
  if n < 3 then invalid_arg "Lower_bound.wakeup_hard_graph_c: n < 3";
  let st = Random.State.make [| seed; n; c; 0x5eed |] in
  let host = Gen.complete n in
  let chosen = Transform.choose_edges host ~count:(c * n) st in
  (Transform.subdivide host ~chosen, chosen)

let min_advice_for_linear_wakeup_c ~n ~c ~budget_factor =
  let nodes = (1 + c) * n in
  let target = budget_factor *. float_of_int nodes in
  let vacuous bits = Bounds.wakeup_message_lower_bound_c ~n ~c ~advice_bits:bits <= target in
  let hi =
    let rec grow hi = if vacuous hi then hi else grow (2 * hi) in
    grow 16
  in
  let rec bisect lo hi =
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if vacuous mid then bisect lo mid else bisect mid hi
  in
  if vacuous 0 then 0 else bisect 0 hi

let broadcast_hard_graph ~n ~k ~seed =
  if k < 3 then invalid_arg "Lower_bound.broadcast_hard_graph: k < 3";
  if n mod k <> 0 then invalid_arg "Lower_bound.broadcast_hard_graph: k must divide n";
  let st = Random.State.make [| seed; n; k; 0xc11c |] in
  let host = Gen.complete n in
  let count = n / k in
  let chosen = Transform.choose_edges host ~count st in
  let missing = Transform.clique_pairs ~k ~count st in
  (Transform.substitute_cliques host ~k ~chosen ~missing, chosen, missing)

type broadcast_point = {
  bp_n : int;
  bp_k : int;
  advised_messages : int;
  advised_bits : int;
  starved_messages : int;
  clique_bound : float;
  starved_completes : bool;
}

let broadcast_experiment ~n ~k ~seed =
  let g, _, _ = broadcast_hard_graph ~n ~k ~seed in
  let source = 0 in
  let advised = Broadcast.run g ~source in
  if not advised.Broadcast.result.Sim.Runner.all_informed then
    failwith "Lower_bound.broadcast_experiment: advised broadcast failed";
  let advice_free v =
    ignore v;
    Bitstring.Bitbuf.create ()
  in
  let flood = Sim.Runner.run ~advice:advice_free g ~source Sim.Scheme.flooding in
  {
    bp_n = n;
    bp_k = k;
    advised_messages = advised.Broadcast.result.Sim.Runner.stats.Obs.Counting.sent;
    advised_bits = advised.Broadcast.advice_bits;
    starved_messages = flood.Sim.Runner.stats.Obs.Counting.sent;
    clique_bound = Bounds.broadcast_message_lower_bound ~n ~k;
    starved_completes = flood.Sim.Runner.all_informed;
  }

type starvation_point = {
  sv_budget : int;
  sv_messages : int;
  sv_informed : int;
  sv_completed : bool;
}

let starvation_sweep g ~source ~budgets =
  let oracle = Broadcast.oracle () in
  List.map
    (fun budget ->
      let truncated = Oracles.Oracle.truncate oracle ~budget in
      let advice = truncated.Oracles.Oracle.advise g ~source in
      (* A truncated string may no longer parse; a node that cannot parse
         its advice behaves as if it had none. *)
      let safe_advice v =
        let buf = Oracles.Advice.get advice v in
        match Broadcast.decode_known_ports Broadcast.Marked buf with
        | ports ->
          let degree = Graph.degree g v in
          if List.for_all (fun p -> p >= 0 && p < degree) ports then buf
          else Bitstring.Bitbuf.create ()
        | exception _ -> Bitstring.Bitbuf.create ()
      in
      let result = Sim.Runner.run ~advice:safe_advice g ~source (Broadcast.scheme ()) in
      let informed_count =
        Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 result.Sim.Runner.informed
      in
      {
        sv_budget = budget;
        sv_messages = result.Sim.Runner.stats.Obs.Counting.sent;
        sv_informed = informed_count;
        sv_completed = result.Sim.Runner.all_informed;
      })
    budgets
