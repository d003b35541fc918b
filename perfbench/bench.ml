(* bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload and prints, as the last line of standard output,
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}: the
   end-to-end metrics untraced, the per-layer metrics traced.  The
   line before it is the host diagnostic: a fixed ALU loop's time, the
   reference kernel's median wall and CPU times (0 in a traced run) and
   the hypervisor steal ticks.
   [bench.exe --reference] is the reference kernel's child process
   (see [Host.serve_reference]).  Run from the checkout
   root, as run.sh does: the worker executable and the work directory
   are found relative to it. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: bench.exe --workload grid|fleet|scale|resume --seed N --seconds S --trace 0|1";
  exit 2

let () =
  if Array.to_list Sys.argv = [ Sys.argv.(0); "--reference" ] then begin
    Host.serve_reference ();
    exit 0
  end;
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | flag :: v :: rest ->
      (match flag with
      | "--workload" -> workload := v
      | "--seed" -> seed := int_of_string_opt v
      | "--seconds" -> seconds := float_of_string_opt v
      | "--trace" -> trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None)
      | _ -> usage ());
      parse rest
    | [ _ ] -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0. -> (s, t, tr)
    | _ -> usage ()
  in
  let work_dir = ".perfbench" in
  (try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let cfg =
    {
      Workloads.seed;
      seconds;
      trace;
      worker_exe = "_build/default/bin/oraclesize.exe";
      bench_exe = Sys.executable_name;
      work_dir;
    }
  in
  let steal0 = Host.steal_ticks () in
  let report =
    match !workload with
    | "grid" -> Workloads.run cfg (Workloads.grid cfg)
    | "fleet" -> Workloads.run cfg (Workloads.fleet cfg)
    | "scale" -> Workloads.run cfg (Workloads.scale cfg)
    | "resume" -> Workloads.run cfg (Workloads.resume cfg)
    | _ -> usage ()
  in
  if trace then
    Spans.write_jsonl
      (Filename.concat work_dir (Printf.sprintf "spans-%s-seed%d.jsonl" !workload seed));
  Printf.printf "host: alu_s=%.6f reference_s=%.6f reference_cpu_s=%.6f steal_ticks=%d\n"
    (Host.alu_seconds ()) report.reference_s report.reference_cpu_s
    (Host.steal_ticks () - steal0);
  let units = if trace then Layers.per_layer else Layers.end_to_end in
  let metrics =
    List.map
      (fun (name, v) ->
        let v = if Float.is_finite v then v else 0. in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v (List.assoc name units))
      report.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    report.correct report.ops report.failed_ops (String.concat ", " metrics)
