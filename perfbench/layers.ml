(* The metric catalogue: every name the benchmark prints, with its
   unit.  BENCHMARK.json lists the same names; a run prints all of the
   end-to-end ones untraced and all of the per-layer ones traced, with
   0 for a layer the workload does not call. *)

let end_to_end =
  [
    ("wall_s", "s");
    ("points_per_s", "1/s");
    ("msgs_per_s", "1/s");
    ("cpu_s", "s");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("gen.s", "s");
    ("gen.edges_per_s", "1/s");
    ("advise.s", "s");
    ("advise.bits", "count");
    ("decode.s", "s");
    ("engine.s", "s");
    ("engine.msgs", "count");
    ("engine.minor_words_per_msg", "words/msg");
    ("engine.major_words_per_msg", "words/msg");
    ("harness.s", "s");
    ("harness.events", "count");
    ("harness.minor_words_per_point", "words/point");
    ("verdict.s", "s");
    ("sweep.self_s", "s");
    ("sweep.graph_hit_ratio", "ratio");
    ("sweep.advice_hit_ratio", "ratio");
    ("journal.append_s", "s");
    ("journal.bytes_per_point", "bytes/point");
    ("journal.replay_s", "s");
    ("journal.replay_records_per_s", "1/s");
    ("emit.s", "s");
    ("dispatch.spawn_s", "s");
    ("dispatch.run_s", "s");
    ("dispatch.supervisor_cpu_us_per_point", "us/point");
    ("dispatch.batches", "count");
    ("dispatch.reassigned", "count");
    ("dispatch.speculative", "count");
    ("dispatch.win_ratio", "ratio");
    ("frame.encode_ns", "ns");
    ("frame.decode_ns", "ns");
    ("wire.bytes_per_point", "bytes/point");
    ("trace.explained_share", "ratio");
    ("trace.overhead_s", "s");
  ]

(* Metrics that are exact counts of deterministic work: two traced runs
   with the same seed must print identical values. *)
let counts =
  [
    "advise.bits";
    "engine.msgs";
    "harness.events";
    "sweep.graph_hit_ratio";
    "sweep.advice_hit_ratio";
    "journal.bytes_per_point";
    "dispatch.batches";
    "dispatch.reassigned";
    "dispatch.speculative";
    "wire.bytes_per_point";
  ]
