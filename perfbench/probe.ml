(* Reading the library's layers from outside: the storage I/O counters
   (Stats), the metrics registry (counters and log-bucketed histograms),
   and the runtime's allocation counters. Nothing here reaches inside a
   module; every figure is a delta between two public snapshots. *)

module St = Svr_storage
module M = Svr_obs.Metrics

let now () = Unix.gettimeofday ()

(* -- storage I/O ------------------------------------------------------- *)

let io env = St.Stats.snapshot (St.Env.stats env)
let io_diff ~after ~before = St.Stats.diff ~after ~before

(* [acc += d], field-wise over the counters the benchmark reads *)
let io_add (acc : St.Stats.counters) (d : St.Stats.counters) =
  let open St.Stats in
  acc.logical_reads <- acc.logical_reads + d.logical_reads;
  acc.cache_hits <- acc.cache_hits + d.cache_hits;
  acc.seq_reads <- acc.seq_reads + d.seq_reads;
  acc.rand_reads <- acc.rand_reads + d.rand_reads;
  acc.page_writes <- acc.page_writes + d.page_writes;
  acc.seq_writes <- acc.seq_writes + d.seq_writes;
  acc.blocks_decoded <- acc.blocks_decoded + d.blocks_decoded;
  acc.blocks_skipped <- acc.blocks_skipped + d.blocks_skipped;
  acc.upper_seeks <- acc.upper_seeks + d.upper_seeks;
  acc.wal_appends <- acc.wal_appends + d.wal_appends;
  acc.wal_bytes <- acc.wal_bytes + d.wal_bytes;
  acc.stall_ms <- acc.stall_ms + d.stall_ms

let per n x = if n = 0 then 0.0 else float_of_int x /. float_of_int n
let perf n x = if n = 0 then 0.0 else x /. float_of_int n

(* The pager, disk and codec figures of a set of [n] queries whose I/O
   summed to [q]. Copy bytes are computed, not measured: every pool hit
   copies one page. *)
let query_io ~page_size ~n (q : St.Stats.counters) =
  let open St.Stats in
  [ ("pager.reads_per_query", per n q.logical_reads);
    ("pager.hit_rate",
      if q.logical_reads = 0 then 0.0
      else float_of_int q.cache_hits /. float_of_int q.logical_reads);
    ("pager.copy_bytes_per_query", per n (q.cache_hits * page_size));
    ("disk.rand_reads_per_query", per n q.rand_reads);
    ("disk.seq_reads_per_query", per n q.seq_reads);
    ("codec.blocks_decoded_per_query", per n q.blocks_decoded);
    ("codec.blocks_skipped_per_query", per n q.blocks_skipped);
    ("codec.upper_seeks_per_query", per n q.upper_seeks) ]

(* The disk and WAL figures of [n] updates, billed with all I/O outside
   the query calls [u]: the updates themselves, maintenance, checkpoints
   and the write-back the cache drops force. *)
let update_io ~cost ~n (u : St.Stats.counters) =
  let open St.Stats in
  [ ("disk.writes_per_update", per n u.page_writes);
    ("disk.seq_writes_per_update", per n u.seq_writes);
    ("wal.appends_per_update", per n u.wal_appends);
    ("wal.bytes_per_update", per n u.wal_bytes);
    ("update_sim_ms", perf n (simulated_ms ~cost u)) ]

(* -- runtime allocation ------------------------------------------------ *)

(* Words allocated between two [Gc.quick_stat]s: minor plus major minus
   promoted (promoted words are counted in both). A 4 KiB page copy is
   larger than the minor heap's object limit and goes straight to the
   major heap, so [minor_words] alone would miss it. *)
let alloc_words (a : Gc.stat) (b : Gc.stat) =
  b.Gc.minor_words -. a.Gc.minor_words
  +. (b.Gc.major_words -. a.Gc.major_words)
  -. (b.Gc.promoted_words -. a.Gc.promoted_words)

let gc_layer ~queries (a : Gc.stat) (b : Gc.stat) =
  [ ("gc.minor_collections", float_of_int (b.Gc.minor_collections - a.Gc.minor_collections));
    ("gc.major_collections", float_of_int (b.Gc.major_collections - a.Gc.major_collections));
    ("gc.major_words_per_query",
      perf queries (b.Gc.major_words -. a.Gc.major_words)) ]

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* -- host speed ---------------------------------------------------------- *)

(* The benchmark shares a host whose speed for memory-heavy code drifts by
   a third and more over tens of seconds, while a tight arithmetic loop
   barely moves. [host_ref] times a fixed piece of work of the read path's
   kind, all of it in this file and none of it in the library: copy a
   random 4 KiB page out of a 16 MiB set, branch over its words, update a
   hash table. Its pages live outside the OCaml heap and it allocates
   nothing, so it neither changes the library's heap nor depends on it.
   Timed next to the library's calls, it says how fast the host ran them;
   a workload divides its timings by it and scales by [ref_nominal_s] to
   report rates at a steady host speed. *)
let ref_nominal_s = 0.0014 (* about its median on a 2-vCPU Xeon (Sapphire Rapids) VM *)

module A = Bigarray.Array1

let ref_words = 512 (* one 4 KiB page *)
let ref_pages_n = 4096

let ref_pages =
  lazy
    (let r = ref 0x2545F491 in
     let a = A.create Bigarray.int64 Bigarray.c_layout (ref_pages_n * ref_words) in
     for i = 0 to A.dim a - 1 do
       r := (!r * 1103515245 + 12345) land 0x3FFFFFFF;
       A.unsafe_set a i (Int64.of_int ((!r lsl 34) lxor (!r lsl 4) lxor !r))
     done;
     a)

let ref_page = A.create Bigarray.int64 Bigarray.c_layout ref_words
let ref_table = Hashtbl.create 8192
let ref_rng = ref 12345

let host_ref () =
  let pages = Lazy.force ref_pages in
  let t0 = now () in
  let acc = ref 0 in
  for _ = 1 to 300 do
    ref_rng := (!ref_rng * 1103515245 + 12345) land 0x3FFFFFFF;
    let base = !ref_rng mod ref_pages_n * ref_words in
    for i = 0 to ref_words - 1 do
      A.unsafe_set ref_page i (A.unsafe_get pages (base + i))
    done;
    for i = 0 to ref_words - 1 do
      let w = Int64.to_int (A.unsafe_get ref_page i) in
      if w land 1 = 0 then acc := !acc + w else acc := !acc lxor w
    done;
    for i = 0 to 15 do
      Hashtbl.replace ref_table ((!ref_rng + (i * 7919)) land 8191) !acc
    done
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* -- metrics registry -------------------------------------------------- *)

type registry = ((string * (string * string) list) * M.value) list

let registry () : registry = M.snapshot ()

let matches name labels (n, ls) =
  n = name && List.for_all (fun l -> List.mem l ls) labels

let counter snap ?(labels = []) name =
  List.fold_left
    (fun acc (key, v) ->
      match v with
      | M.Counter c when matches name labels key -> acc + c
      | _ -> acc)
    0 snap

let counter_delta ~before ~after ?labels name =
  counter after ?labels name - counter before ?labels name

type hist = { base : float; buckets : (float * int) list; sum : float; count : int }

let hist snap ?(labels = []) name =
  List.fold_left
    (fun acc (key, v) ->
      match v with
      | M.Histogram h when matches name labels key ->
          let buckets =
            List.fold_left
              (fun bs (ub, c) ->
                let prev = Option.value ~default:0 (List.assoc_opt ub bs) in
                (ub, prev + c) :: List.remove_assoc ub bs)
              acc.buckets h.buckets
          in
          { base = h.base; buckets; sum = acc.sum +. h.sum; count = acc.count + h.count }
      | _ -> acc)
    { base = 0.001; buckets = []; sum = 0.0; count = 0 }
    snap

let hist_delta ~before ~after ?labels name =
  let a = hist before ?labels name and b = hist after ?labels name in
  let buckets =
    List.filter_map
      (fun (ub, c) ->
        let c = c - Option.value ~default:0 (List.assoc_opt ub a.buckets) in
        if c > 0 then Some (ub, c) else None)
      b.buckets
    |> List.sort compare
  in
  { base = b.base; buckets; sum = b.sum -. a.sum; count = b.count - a.count }

let hist_mean h = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count

(* A log2-bucket estimate, good to the bucket width (a factor of 2) *)
let hist_quantile h q =
  if h.count = 0 then 0.0 else M.quantile_of ~base:h.base h.buckets h.count q

(* The planner's per-strategy plan counts and re-plans over a phase. *)
let planner_layer ~before ~after =
  let plans s = float_of_int (counter_delta ~before ~after ~labels:[ ("strategy", s) ] "svr_plans_total") in
  [ ("planner.plans.scan", plans "scan");
    ("planner.plans.gallop", plans "gallop");
    ("planner.plans.table-scan", plans "table-scan");
    ("planner.replans", float_of_int (counter_delta ~before ~after "svr_replans_total")) ]

let scan_depth ~before ~after =
  ("merge.scan_depth", hist_mean (hist_delta ~before ~after "svr_query_scan_depth"))
