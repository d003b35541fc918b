type measurement = {
  family : string;
  n : int;
  m : int;
  wakeup_bits : int;
  broadcast_bits : int;
  bits_ratio : float;
  wakeup_messages : int;
  broadcast_messages : int;
  wakeup_ok : bool;
  broadcast_ok : bool;
}

let measure fam ~n ~seed =
  let g = Netgraph.Families.build fam ~n ~seed in
  let source = 0 in
  let w = Wakeup.run g ~source in
  let b = Broadcast.run g ~source in
  let actual_n = Netgraph.Graph.n g in
  {
    family = Netgraph.Families.name fam;
    n = actual_n;
    m = Netgraph.Graph.m g;
    wakeup_bits = w.Wakeup.advice_bits;
    broadcast_bits = b.Broadcast.advice_bits;
    bits_ratio = float_of_int w.Wakeup.advice_bits /. float_of_int (max 1 b.Broadcast.advice_bits);
    wakeup_messages = w.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent;
    broadcast_messages = b.Broadcast.result.Sim.Runner.stats.Obs.Counting.sent;
    wakeup_ok =
      w.Wakeup.result.Sim.Runner.all_informed
      && w.Wakeup.result.Sim.Runner.stats.Obs.Counting.sent = actual_n - 1;
    broadcast_ok =
      b.Broadcast.result.Sim.Runner.all_informed
      && b.Broadcast.result.Sim.Runner.stats.Obs.Counting.sent < 3 * actual_n;
  }

let sweep fam ~ns ~seed = List.map (fun n -> measure fam ~n ~seed) ns

let ratio_growth measurements =
  let xs = List.map (fun m -> float_of_int m.n) measurements in
  let ys = List.map (fun m -> m.bits_ratio) measurements in
  Sim.Metrics.loglog_slope ~xs ~ys
