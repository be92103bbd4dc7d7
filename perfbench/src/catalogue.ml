(* Every metric the benchmark reports, in BENCHMARK.json order.  A run
   prints all of them: a layer a workload bypasses reads 0. *)

let workloads = [ "milp-ladder"; "service-sdr"; "online-churn" ]

let end_to_end =
  [
    ("setup_s", "s");
    ("pass_s", "s");
    ("op_tail_s", "s");
    ("ok_ratio", "ratio");
    ("top_heap_mb", "MB");
  ]

let per_layer =
  [
    ("core.build_s", "s");
    ("milp.presolve_s", "s");
    ("milp.lp_s", "s");
    ("milp.nodes", "count");
    ("milp.pivots", "count");
    ("milp.pivots_per_s", "1/s");
    ("milp.nodes_per_s", "1/s");
    ("milp.factorizations", "count");
    ("milp.warm_start_ratio", "ratio");
    ("milp.minor_words_per_pivot", "words");
    ("service.canonical_s", "s");
    ("service.cache_hit_ratio", "ratio");
    ("service.queue_wait_s", "s");
    ("search.solve_s", "s");
    ("search.nodes_per_s", "1/s");
    ("search.deadline_overrun_p50_s", "s");
    ("search.deadline_overrun_max_s", "s");
    ("online.admit_s", "s");
    ("online.remove_s", "s");
    ("online.free_rects_mean", "count");
    ("online.plan_s", "s");
    ("online.plan_useful_ratio", "ratio");
    ("online.execute_s_per_move", "s");
    ("online.frames_moved", "count");
    ("analysis.lint_s", "s");
    ("gc.minor_words", "words");
    ("gc.major_collections", "count");
    ("trace_overhead_ratio", "ratio");
  ]
  @ List.map (fun l -> (l ^ ".self_s", "s")) Run.layers
