(* Tests for the observability layer: metrics registry semantics, trace
   span mechanics, the per-method stop-condition narratives, the slow log,
   and the two regression guarantees the subsystem makes to the rest of the
   codebase — tracing never changes what the engine reads, and a serial run
   and a multi-domain run aggregate to identical metric snapshots. *)

module Core = Svr_core
module St = Svr_storage
module Obs = Svr_obs
module Tr = Svr_obs.Trace
module M = Svr_obs.Metrics

let check = Alcotest.check

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains what ~needle hay =
  if not (contains ~needle hay) then
    Alcotest.failf "%s: expected %S somewhere in:\n%s" what needle hay

(* ------------------------------------------------------------------ *)
(* Stats.pp prints every counter field *)

let test_stats_pp_all_fields () =
  let c = St.Stats.zero () in
  let r = Obj.repr c in
  let n = Obj.size r in
  (* give each field a distinct recognizable value; the record is all
     mutable ints, so Obj lets the test enumerate fields it cannot name —
     adding a counter without extending [pp] fails here *)
  for i = 0 to n - 1 do
    assert (Obj.is_int (Obj.field r i));
    Obj.set_field r i (Obj.repr (70003 + (7 * i)))
  done;
  let s = Format.asprintf "%a" St.Stats.pp c in
  for i = 0 to n - 1 do
    check_contains
      (Printf.sprintf "pp omits counter field %d of %d" i n)
      ~needle:(string_of_int (70003 + (7 * i)))
      s
  done;
  (* the field table covers the whole record, and the environment exports
     every field as a [svr_io_<field>] series equal to [Stats.snapshot] *)
  check Alcotest.int "field table covers the record" n
    (List.length St.Stats.fields);
  let env = St.Env.create ~page_size:256 ~durable:true () in
  let tree = St.Env.btree env ~name:"pp-io" in
  for k = 0 to 199 do
    St.Btree.insert tree (Printf.sprintf "k%04d" k) (String.make 40 'v')
  done;
  St.Env.checkpoint env;
  St.Env.drop_all_caches env;
  ignore (St.Btree.find tree "k0123");
  let snap = St.Stats.snapshot (St.Env.stats env) in
  check Alcotest.bool "the I/O was counted" true
    (snap.St.Stats.logical_reads > 0 && snap.St.Stats.page_writes > 0);
  let exported = M.snapshot () in
  List.iter
    (fun (field, get) ->
      match List.assoc_opt ("svr_io_" ^ field, []) exported with
      | Some (M.Gauge v) ->
          check (Alcotest.float 0.) ("svr_io_" ^ field)
            (float_of_int (get snap)) v
      | _ -> Alcotest.failf "svr_io_%s not exported as a gauge" field)
    St.Stats.fields

(* ------------------------------------------------------------------ *)
(* Metrics: counters, histogram bucketing, exposition formats *)

let test_counter () =
  M.reset ();
  let c = M.counter "test_obs_counter" in
  M.inc c;
  M.add c 4;
  check Alcotest.int "counter sums" 5 (M.counter_value c);
  (* registration is idempotent: same (name, labels) -> same series *)
  M.inc (M.counter "test_obs_counter");
  check Alcotest.int "shared series" 6 (M.counter_value c)

let test_histogram_buckets () =
  M.reset ();
  let h = M.histogram ~base:1.0 "test_obs_hist" in
  M.observe h 0.5;
  (* at or below base lands in the first bucket *)
  M.observe h 1.0;
  M.observe h 1.5;
  (* an exact power-of-two boundary belongs to its own bucket, not the next *)
  M.observe h 4.0;
  M.observe h 1e18;
  (* beyond the 40 doublings: overflow bucket *)
  check Alcotest.int "count" 5 (M.hist_count h);
  check (Alcotest.float 1e3) "sum" (0.5 +. 1.0 +. 1.5 +. 4.0 +. 1e18)
    (M.hist_sum h);
  match List.assoc_opt ("test_obs_hist", []) (M.snapshot ()) with
  | Some (M.Histogram { buckets; count; _ }) ->
      check Alcotest.int "snapshot count" 5 count;
      check
        Alcotest.(list (pair (float 0.0) int))
        "bucket boundaries"
        [ (1.0, 2); (2.0, 1); (4.0, 1); (infinity, 1) ]
        buckets
  | _ -> Alcotest.fail "histogram missing from snapshot"

let test_prometheus_exposition () =
  M.reset ();
  let h = M.histogram ~base:1.0 ~help:"a test histogram" "test_obs_expo" in
  M.observe h 0.5;
  M.observe h 1.0;
  M.observe h 1.5;
  M.observe h 4.0;
  M.observe h 1e18;
  let c = M.counter ~labels:[ ("shard", "0") ] "test_obs_counter" in
  M.add c 3;
  let s = M.to_prometheus () in
  check_contains "HELP line" ~needle:"# HELP test_obs_expo a test histogram" s;
  check_contains "TYPE line" ~needle:"# TYPE test_obs_expo histogram" s;
  check_contains "first bucket" ~needle:"test_obs_expo_bucket{le=\"1\"} 2" s;
  (* cumulative: buckets le=1 (2) + le=2 (1) + le=4 (1) *)
  check_contains "cumulative bucket" ~needle:"test_obs_expo_bucket{le=\"4\"} 4"
    s;
  check_contains "inf bucket" ~needle:"test_obs_expo_bucket{le=\"+Inf\"} 5" s;
  check_contains "count series" ~needle:"test_obs_expo_count 5" s;
  check_contains "labeled counter" ~needle:"test_obs_counter{shard=\"0\"} 3" s;
  let j = M.to_json () in
  check_contains "json histogram" ~needle:"\"type\":\"histogram\"" j;
  check_contains "json inf bound" ~needle:"[\"inf\",1]" j

(* ------------------------------------------------------------------ *)
(* Trace span mechanics *)

let test_trace_disabled_path () =
  Tr.set_sampling 0;
  Tr.clear ();
  let sp = Tr.root "q" in
  check Alcotest.bool "root off" false (Tr.is_on sp);
  check Alcotest.bool "hot off" false (Tr.hot ());
  Tr.annotate sp "k" "v";
  Tr.event "e";
  Tr.pop sp;
  check Alcotest.int "ring untouched" 0 (List.length (Tr.recent_events ()))

let test_trace_nesting () =
  Tr.set_sampling 1;
  Tr.clear ();
  let a = Tr.root "outer" in
  check Alcotest.bool "outer on" true (Tr.is_on a);
  Tr.annotate a "who" "outer";
  (* a root inside an active trace must nest, not start a second trace *)
  let b = Tr.root "inner" in
  check Alcotest.bool "hot inside" true (Tr.hot ());
  Tr.event "tick";
  Tr.pop b;
  Tr.pop a;
  Tr.set_sampling 0;
  let evs = Tr.trace_events (Tr.last_trace_id ()) in
  check Alcotest.int "three events" 3 (List.length evs);
  let outer = List.find (fun e -> e.Tr.e_name = "outer") evs in
  let inner = List.find (fun e -> e.Tr.e_name = "inner") evs in
  let tick = List.find (fun e -> e.Tr.e_name = "tick") evs in
  check Alcotest.int "outer is root" 0 outer.Tr.e_parent;
  check Alcotest.int "inner under outer" outer.Tr.e_span inner.Tr.e_parent;
  check Alcotest.int "tick under inner" inner.Tr.e_span tick.Tr.e_parent;
  check Alcotest.bool "same trace" true
    (outer.Tr.e_trace = inner.Tr.e_trace && inner.Tr.e_trace = tick.Tr.e_trace);
  check
    Alcotest.(list (pair string string))
    "attrs retained"
    [ ("who", "outer") ]
    outer.Tr.e_attrs

let test_force_next () =
  Tr.set_sampling 0;
  Tr.clear ();
  Tr.force_next ();
  let a = Tr.root "forced" in
  check Alcotest.bool "forced root on" true (Tr.is_on a);
  (* the force flag is consumed, but children of the live trace still record *)
  let b = Tr.push "child" in
  check Alcotest.bool "child on" true (Tr.is_on b);
  Tr.pop b;
  Tr.pop a;
  let c = Tr.root "after" in
  check Alcotest.bool "force consumed" false (Tr.is_on c);
  check Alcotest.int "forced trace complete" 2
    (List.length (Tr.trace_events (Tr.last_trace_id ())))

(* ------------------------------------------------------------------ *)
(* Index fixture shared by the end-to-end observability tests *)

let test_cfg =
  { Core.Config.default with
    Core.Config.analyzer = Svr_text.Analyzer.raw;
    threshold_ratio = 2.0;
    chunk_ratio = 2.0;
    min_chunk_docs = 2;
    fancy_size = 3;
    ts_weight = 50.0 }

let small_env () = St.Env.create ~table_pool_pages:256 ~blob_pool_pages:64 ()

(* every doc matches [alpha beta]; scores spread so chunk/threshold methods
   have real stop bounds to reason about *)
let fixture_corpus =
  List.init 24 (fun i ->
      (i, Printf.sprintf "alpha beta filler%d alpha pad%d" i (i mod 5)))

let fixture_scores d = 1000.0 -. (37.0 *. float_of_int d)

let build kind =
  Core.Index.build ~env:(small_env ()) kind test_cfg
    ~corpus:(List.to_seq fixture_corpus)
    ~scores:fixture_scores

(* ------------------------------------------------------------------ *)
(* Stop-condition narratives: each method's merge span must explain its
   method-specific stop rule *)

let narrative_needle = function
  | Core.Index.Id | Core.Index.Id_termscore -> "doc-id ordered"
  | Core.Index.Score -> "score-ordered list"
  | Core.Index.Score_threshold -> "thresholdValueOf"
  | Core.Index.Chunk -> "stop bound"
  | Core.Index.Chunk_termscore -> "remainList"

let test_stop_narratives () =
  Tr.set_sampling 0;
  List.iter
    (fun kind ->
      let idx = build kind in
      Tr.clear ();
      Tr.force_next ();
      let out = Core.Index.query_terms idx [ "alpha"; "beta" ] ~k:3 in
      check Alcotest.int
        (Core.Index.kind_name kind ^ " returns k")
        3 (List.length out);
      let evs = Tr.trace_events (Tr.last_trace_id ()) in
      let stops =
        List.filter_map
          (fun e ->
            if e.Tr.e_name = "merge" then List.assoc_opt "stop" e.Tr.e_attrs
            else None)
          evs
      in
      match stops with
      | [ why ] ->
          check_contains
            (Core.Index.kind_name kind ^ " narrative")
            ~needle:(narrative_needle kind) why
      | [] -> Alcotest.failf "%s: no merge stop attr" (Core.Index.kind_name kind)
      | _ -> Alcotest.failf "%s: several merge spans" (Core.Index.kind_name kind))
    Core.Index.all_kinds

(* ------------------------------------------------------------------ *)
(* Tracing must not change what the engine reads *)

let run_set idx queries ~k =
  let env = Core.Index.env idx in
  let before =
    (St.Stats.diff ~after:(St.Stats.cell (St.Env.stats env))
       ~before:(St.Stats.zero ()))
      .St.Stats.logical_reads
  in
  Array.iter
    (fun q ->
      St.Env.drop_blob_caches env;
      ignore (Core.Index.query_terms idx q ~k))
    queries;
  (St.Stats.diff ~after:(St.Stats.cell (St.Env.stats env))
     ~before:(St.Stats.zero ()))
    .St.Stats.logical_reads
  - before

let test_tracing_changes_no_io () =
  let idx = build Core.Index.Chunk in
  let queries =
    [| [ "alpha" ]; [ "beta" ]; [ "alpha"; "beta" ]; [ "alpha"; "filler3" ] |]
  in
  Tr.set_sampling 0;
  Tr.clear ();
  let reads_off = run_set idx queries ~k:5 in
  check Alcotest.int "disabled run leaves rings empty" 0
    (List.length (Tr.recent_events ()));
  Tr.set_sampling 1;
  let reads_on = run_set idx queries ~k:5 in
  Tr.set_sampling 0;
  check Alcotest.int "identical logical reads traced vs not" reads_off reads_on;
  check Alcotest.bool "traced run recorded spans" true
    (Tr.recent_events () <> [])

(* ------------------------------------------------------------------ *)
(* Serial and 4-domain runs aggregate to identical metric snapshots *)

(* wall/sim latency and gauges legitimately differ run to run; the work
   metrics (merge depth, blocks decoded/skipped) are per-query deterministic
   and their per-domain cells must sum to the same totals however the batch
   was distributed *)
let deterministic_metrics =
  [ "svr_query_scan_depth"; "svr_query_blocks_decoded";
    "svr_query_blocks_skipped"; "svr_io_blocks_decoded";
    "svr_io_blocks_skipped" ]

let filtered_snapshot () =
  List.filter
    (fun ((name, _), _) -> List.mem name deterministic_metrics)
    (M.snapshot ())

let snap_testable =
  let pp ppf snap =
    List.iter
      (fun ((name, labels), v) ->
        Format.fprintf ppf "%s{%s}: " name
          (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels));
        match v with
        | M.Counter n -> Format.fprintf ppf "counter %d@." n
        | M.Gauge g -> Format.fprintf ppf "gauge %g@." g
        | M.Histogram { buckets; sum; count; _ } ->
            Format.fprintf ppf "hist count=%d sum=%g %s@." count sum
              (String.concat " "
                 (List.map
                    (fun (le, n) -> Printf.sprintf "%g:%d" le n)
                    buckets)))
      snap
  in
  Alcotest.testable pp ( = )

let test_serial_vs_parallel_metrics () =
  Tr.set_sampling 0;
  let idx = build Core.Index.Chunk_termscore in
  let batch =
    Array.init 32 (fun i ->
        match i mod 4 with
        | 0 -> [ "alpha" ]
        | 1 -> [ "beta" ]
        | 2 -> [ "alpha"; "beta" ]
        | _ -> [ "alpha"; Printf.sprintf "filler%d" (i mod 5) ])
  in
  let run pool =
    M.reset ();
    (* the svr_io_* gauges read the environment's cumulative counters *)
    St.Env.reset_stats (Core.Index.env idx);
    ignore (Core.Index.query_terms_batch idx ?pool batch ~k:4);
    filtered_snapshot ()
  in
  let serial = run None in
  check Alcotest.bool "fixture produced metrics" true (serial <> []);
  let parallel =
    Core.Query_pool.with_pool ~domains:4 (fun p -> run (Some p))
  in
  check snap_testable "serial = 4-domain snapshot" serial parallel

(* ------------------------------------------------------------------ *)
(* Slow log: retention and the rendered explanation *)

let test_slow_log () =
  Obs.Slow_log.install ();
  Obs.Slow_log.set_threshold_ms 0.0;
  Obs.Slow_log.clear ();
  Tr.set_sampling 0;
  let idx = build Core.Index.Chunk in
  Tr.clear ();
  Tr.force_next ();
  ignore (Core.Index.query_terms idx [ "alpha"; "beta" ] ~k:3);
  (match Obs.Slow_log.entries () with
  | { Obs.Slow_log.sl_root; sl_events; _ } :: _ ->
      check Alcotest.string "root is the query span" "query"
        sl_root.Tr.e_name;
      check Alcotest.bool "tree retained" true (List.length sl_events > 1)
  | [] -> Alcotest.fail "threshold 0 retained nothing");
  let rendered = Obs.Slow_log.render_trace (Tr.last_trace_id ()) in
  check_contains "tree has the query root" ~needle:"query" rendered;
  check_contains "tree has the merge span" ~needle:"merge" rendered;
  (* the stop attribute becomes the narrative line *)
  check_contains "narrative line" ~needle:"~ " rendered;
  check_contains "names the chunk stop rule" ~needle:"stop bound" rendered;
  Obs.Slow_log.set_threshold_ms 100.0;
  Obs.Slow_log.clear ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ("stats", [ Alcotest.test_case "pp prints every field" `Quick
                    test_stats_pp_all_fields ]);
      ( "metrics",
        [ Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "exposition" `Quick test_prometheus_exposition ] );
      ( "trace",
        [ Alcotest.test_case "disabled path" `Quick test_trace_disabled_path;
          Alcotest.test_case "nesting" `Quick test_trace_nesting;
          Alcotest.test_case "force_next" `Quick test_force_next ] );
      ( "end-to-end",
        [ Alcotest.test_case "stop narratives" `Quick test_stop_narratives;
          Alcotest.test_case "tracing changes no I/O" `Quick
            test_tracing_changes_no_io;
          Alcotest.test_case "serial = parallel metrics" `Quick
            test_serial_vs_parallel_metrics;
          Alcotest.test_case "slow log" `Quick test_slow_log ] );
    ]
