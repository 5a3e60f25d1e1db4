(* The metric names and units the benchmark reports (the same lists as
   BENCHMARK.json; run.py checks the two agree on every run), and the
   one-line JSON result. *)

let end_to_end =
  [ ("setup_s", "s");
    ("ops_per_s", "ops/s");
    ("max_qps", "q/s");
    ("query_alloc_words", "words/query");
    ("index_bytes_per_posting", "B");
    ("peak_heap_mb", "MiB");
    ("ok_frac", "ratio") ]

let per_layer =
  [ (* end-to-end figures without a bound: query latency varies more from
       run to run on a shared host than any bound allows, and the rest are
       zero where a workload has no such operation *)
    ("query_p50_ms", "ms");
    ("query_p99_ms", "ms");
    ("query_sim_ms", "sim_ms/query");
    ("update_p50_us", "us");
    ("update_p99_us", "us");
    ("update_sim_ms", "sim_ms/update");
    ("fail_frac", "ratio");
    ("partial_frac", "ratio");
    (* storage.pager *)
    ("pager.reads_per_query", "pages/query");
    ("pager.hit_rate", "ratio");
    ("pager.copy_bytes_per_query", "B/query");
    (* storage.disk *)
    ("disk.rand_reads_per_query", "pages/query");
    ("disk.seq_reads_per_query", "pages/query");
    ("disk.writes_per_update", "pages/update");
    ("disk.seq_writes_per_update", "pages/update");
    (* storage.wal *)
    ("wal.appends_per_update", "records/update");
    ("wal.bytes_per_update", "B/update");
    ("env.checkpoint_ms", "ms");
    (* core.codec *)
    ("codec.blocks_decoded_per_query", "blocks/query");
    ("codec.blocks_skipped_per_query", "blocks/query");
    ("codec.upper_seeks_per_query", "seeks/query");
    (* core.merge *)
    ("merge.scan_depth", "groups/query");
    (* core.planner *)
    ("planner.plans.scan", "count");
    ("planner.plans.gallop", "count");
    ("planner.plans.table-scan", "count");
    ("planner.replans", "count");
    ("planner.estimate_us", "us");
    (* core.index *)
    ("index.query_self_p50_ms", "ms");
    ("index.query_self_p99_ms", "ms");
    (* core.update *)
    ("update.self_p50_us", "us");
    ("update.self_p99_us", "us");
    ("short_list.postings_peak", "count");
    (* core.maintain *)
    ("maintain.steps", "count");
    ("maintain.postings_drained", "count");
    ("maintain.swap_wait_ms", "ms");
    ("maintain.step_ms", "ms");
    (* serve *)
    ("serve.queue_wait_p50_ms", "ms");
    ("serve.queue_wait_p99_ms", "ms");
    ("serve.exec_p50_ms", "ms");
    ("serve.exec_p99_ms", "ms");
    ("serve.admitted", "count");
    ("serve.shed", "count");
    ("serve.depth_max", "count");
    (* net *)
    ("net.overhead_p50_ms", "ms");
    ("net.reconnects", "count");
    ("net.conn_errors", "count");
    (* obs *)
    ("obs.tick_p99_us", "us");
    ("obs.scrape_ms", "ms");
    (* gc *)
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.major_words_per_query", "words/query");
    (* bench *)
    ("bench.gen_lag_p99_ms", "ms");
    ("bench.sent", "count");
    ("bench.answered", "count");
    ("bench.trace_overhead_frac", "ratio") ]

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* [values] names each measured metric; every declared name is printed, a
   metric the workload does not exercise as 0. *)
let result_line ~correct ~attempted ~failed ~trace values =
  let names = if trace then per_layer else end_to_end in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n names) then
        invalid_arg ("Out.result_line: undeclared metric " ^ n))
    values;
  let metrics =
    List.map
      (fun (n, u) ->
        let v = Option.value ~default:0.0 (List.assoc_opt n values) in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (number v) u)
      names
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " metrics)
