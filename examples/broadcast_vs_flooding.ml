(* How much knowledge buys how many messages: broadcast across network
   densities.

   Flooding needs no oracle but pays Θ(m) messages — ruinous on dense
   networks.  Scheme B (Theorem 3.1) needs only ~2 bits per node and stays
   under 3n messages whatever the density.

       dune exec examples/broadcast_vs_flooding.exe *)

let () =
  let n = 300 in
  Printf.printf "%5s %8s %14s %14s %10s %14s\n" "p" "edges" "flooding msgs" "scheme B msgs"
    "flood/B" "B advice bits";
  List.iter
    (fun p ->
      let st = Random.State.make [| int_of_float (1000.0 *. p) |] in
      let g = Netgraph.Gen.random_connected ~n ~p st in
      let advice_free _ = Bitstring.Bitbuf.create () in
      let flood = Sim.Runner.run ~advice:advice_free g ~source:0 Sim.Scheme.flooding in
      let b = Oracle_core.Broadcast.run g ~source:0 in
      assert (flood.Sim.Runner.all_informed);
      assert (b.Oracle_core.Broadcast.result.Sim.Runner.all_informed);
      let fm = flood.Sim.Runner.stats.Obs.Counting.sent in
      let bm = b.Oracle_core.Broadcast.result.Sim.Runner.stats.Obs.Counting.sent in
      Printf.printf "%5.2f %8d %14d %14d %10.1f %14d\n" p (Netgraph.Graph.m g) fm bm
        (float_of_int fm /. float_of_int bm)
        b.Oracle_core.Broadcast.advice_bits)
    [ 0.01; 0.03; 0.1; 0.3; 0.6; 1.0 ];
  print_endline "\nScheme B's bill is flat: the oracle pays once, every broadcast stays linear."
