(* Shared observability hooks for the query methods and the dispatch layer.
   Every metric handle is made once, when its owner is created — a method's
   scan-depth histogram at the method's build, the rest in {!t} at
   [Index.build] — so a query records into resolved handles and never
   takes the registry mutex, not even on the I/O-free warm read path.
   Spans cost nothing when tracing is off. *)

module Tr = Svr_obs.Trace
module M = Svr_obs.Metrics

(* one method's query, plan, budget and maintenance series *)
type t = {
  meth : string;
  wall : M.histogram;
  sim : M.histogram;
  decoded : M.histogram;
  skipped : M.histogram;
  plans : (string * M.counter) list; (* by strategy, table-scan included *)
  replans : M.counter;
  table_scans : M.counter;
  degraded : (Budget.reason * (M.counter * M.counter)) list;
      (* by reason: (tripped, timed out) *)
  maint_steps : M.counter;
  maint_drained : M.counter;
  maint_wait : M.histogram;
}

let create meth =
  let labels = [ ("method", meth) ] in
  let with_label k v = [ ("method", meth); (k, v) ] in
  { meth;
    wall =
      M.histogram ~base:0.001 ~labels ~help:"query wall latency (ms)"
        "svr_query_wall_ms";
    sim =
      M.histogram ~base:0.001 ~labels
        ~help:"query latency under the simulated I/O cost model (ms)"
        "svr_query_sim_ms";
    decoded =
      M.histogram ~base:1.0 ~labels ~help:"posting blocks decoded per query"
        "svr_query_blocks_decoded";
    skipped =
      M.histogram ~base:1.0 ~labels
        ~help:"posting blocks skipped via headers per query"
        "svr_query_blocks_skipped";
    plans =
      List.map
        (fun s ->
          ( s,
            M.counter ~labels:(with_label "strategy" s)
              ~help:"queries planned from the per-term statistics catalog"
              "svr_plans_total" ))
        (List.map Planner.strategy_name Planner.[ Scan; Gallop ]
        @ [ "table-scan" ]);
    replans =
      M.counter ~labels ~help:"mid-query re-plans by the adaptive executor"
        "svr_replans_total";
    table_scans =
      M.counter ~labels
        ~help:"planned queries answered by a forward-index table scan"
        "svr_table_scans_total";
    degraded =
      List.map
        (fun r ->
          let labels = with_label "reason" (Budget.reason_name r) in
          ( r,
            ( M.counter ~labels
                ~help:"queries whose execution budget tripped mid-scan"
                "svr_degraded_total",
              M.counter ~labels
                ~help:"budget-tripped queries with no degraded bound (timed out)"
                "svr_timed_out_total" ) ))
        Budget.[ Deadline; Sim_deadline; Pages; Blocks; Cancelled ];
    maint_steps =
      M.counter ~labels ~help:"online-compaction maintenance steps run"
        "svr_maint_steps_total";
    maint_drained =
      M.counter ~labels
        ~help:"short-list postings drained into long lists by maintenance"
        "svr_maint_postings_drained_total";
    maint_wait =
      M.histogram ~base:0.001 ~labels
        ~help:"wait to acquire the index write lock for a maintenance step (ms)"
        "svr_maint_swap_wait_ms" }

(* A method's scan-depth histogram, made at the method's build. *)
let scan_depth meth =
  M.histogram ~base:1.0 ~labels:[ ("method", meth) ]
    ~help:"merge groups examined per query" "svr_query_scan_depth"

let query_metrics q ~wall_ms ~sim_ms ~blocks_decoded ~blocks_skipped =
  M.observe q.wall wall_ms;
  M.observe q.sim sim_ms;
  M.observe q.decoded (float_of_int blocks_decoded);
  M.observe q.skipped (float_of_int blocks_skipped)

(* The executing domain's most recent plan strategy: the serving layer
   reads it right after a query returns (same domain, synchronous call) to
   stamp the lifecycle record without threading the plan through every
   signature. Cleared by the caller before the query runs. *)
let strategy_key = Domain.DLS.new_key (fun () -> ref "")
let note_strategy s = Domain.DLS.get strategy_key := s
let last_strategy () = !(Domain.DLS.get strategy_key)

(* One planned query: which strategy the cost estimator chose, how many
   times the adaptive executor overrode it mid-query, and whether the lists
   were bypassed for a forward-index table scan. Recorded at the Index
   dispatch layer — the planner itself stays metrics-free so it can sit
   below the merge without a dependency cycle. *)
let plan_metrics q (p : Planner.plan) ~replans =
  let strategy =
    if p.Planner.p_table_scan then "table-scan"
    else Planner.strategy_name p.Planner.p_strategy
  in
  note_strategy strategy;
  M.inc (List.assoc strategy q.plans);
  if replans > 0 then M.add q.replans replans;
  if p.Planner.p_table_scan then M.inc q.table_scans

(* One budget-tripped query: which method and which dimension gave out, and
   whether the answer still carried a degraded bound (partial) or had to be
   surfaced as a timeout. An overload run reads these to see what actually
   broke first — wall deadline, page budget, or a caller's cancellation. *)
let degraded q reason ~partial =
  let tripped, timed_out = List.assoc reason q.degraded in
  M.inc tripped;
  if not partial then begin
    M.inc timed_out;
    (* a timeout usually falls under the slow threshold precisely because
       the budget cut it short — record why it never finished *)
    Svr_obs.Slow_log.note
      ~attrs:[ ("method", q.meth) ]
      ~kind:"timed_out"
      ~reason:("budget tripped: " ^ Budget.reason_name reason)
      ()
  end

(* One online-compaction step: how much it drained and how long it waited
   for the index write lock (the only stop-the-world component — the drain
   itself runs with queries merely queued, not cancelled). *)
let maint_step q ~postings ~swap_wait_ms =
  M.inc q.maint_steps;
  M.add q.maint_drained postings;
  M.observe q.maint_wait swap_wait_ms

(* Finish a method's merge span: record the scan depth on the span and in
   the metrics, and surface the method-specific stop narrative (lazily —
   the thunk runs only for traced queries). *)
let finish_merge ~depth ~merger ~span ~stop =
  let groups = Merge.groups_emitted merger in
  if Tr.is_on span then begin
    Tr.annotate span "groups" (string_of_int groups);
    (* a stop-rule narrative attached at the stop point wins; [stop] is the
       fallback for scans that ran the lists dry *)
    if not (Tr.has_attr span "stop") then Tr.annotate span "stop" (stop ())
  end;
  Tr.pop span;
  M.observe depth (float_of_int groups)
