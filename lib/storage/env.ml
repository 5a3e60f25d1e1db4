type t = {
  page_size : int;
  table_pool_pages : int;
  blob_pool_pages : int;
  pager_shards : int;
  cost : Stats.cost_model;
  stats : Stats.t;
  fault : Fault.t option;
  breaker_threshold : int option; (* Some n = per-device circuit breakers *)
  mutable breakers : (string * Retry.breaker) list;
  wal : Wal.t option; (* Some iff the environment is durable *)
  mutable table_pagers : (string * Pager.t) list;
  mutable blob_pagers : (string * Pager.t) list;
  (* component registry: the in-memory state (tree roots, blob directories)
     that checkpoint snapshots and recovery restores alongside the
     device-level journal *)
  mutable trees : Btree.t list;
  mutable blob_stores : Blob_store.t list;
}

let create ?(page_size = 4096) ?(table_pool_pages = 8192)
    ?(blob_pool_pages = 25600) ?(pager_shards = Pager.default_shards)
    ?(cost = Stats.default_cost) ?fault ?breaker_threshold ?(durable = false)
    ?(wal_group = 32) () =
  (match breaker_threshold with
  | Some n when n < 1 ->
      invalid_arg "Env.create: breaker_threshold must be >= 1"
  | _ -> ());
  let stats = Stats.create () in
  (* span sim-durations come straight from the calling domain's counter
     cell, so a span's sim-ms is exactly the I/O cost model applied to the
     I/O that domain performed inside it. Last environment created wins —
     the tracer is process-global, environments in practice are not. *)
  Svr_obs.Trace.set_sim_clock (fun () ->
      Stats.simulated_ms ~cost (Stats.cell stats));
  (* the global sim clock (time-series tick stamps, SLO windows) must be
     readable from any domain, so it sums every domain's cell — monotonic
     process-wide, unlike the per-domain span clock above *)
  Svr_obs.Clock.set_sim_source (fun () ->
      Stats.simulated_ms ~cost (Stats.snapshot stats));
  (* every storage counter on /metrics, read at scrape time; like
     [svr_pager_hit_rate], the last environment created wins *)
  List.iter
    (fun (name, get) ->
      Svr_obs.Metrics.gauge
        ~help:("storage counter " ^ name ^ " of the latest environment")
        ("svr_io_" ^ name)
        (fun () -> float_of_int (get (Stats.snapshot stats))))
    Stats.fields;
  let breakers = ref [] in
  let mk_breaker name =
    match breaker_threshold with
    | None -> None
    | Some threshold ->
        let b = Retry.breaker ~threshold name in
        breakers := (name, b) :: !breakers;
        Some b
  in
  let wal =
    if durable then
      (* the log device is unjournaled on purpose: it must survive the
         revert that rolls every data device back to its checkpoint *)
      Some
        (Wal.create ~group:wal_group
           (Disk.create ~page_size ?fault ?breaker:(mk_breaker "wal")
              ~name:"wal" stats))
    else None
  in
  { page_size; table_pool_pages; blob_pool_pages; pager_shards; cost; stats;
    fault; breaker_threshold; breakers = !breakers; wal; table_pagers = [];
    blob_pagers = []; trees = []; blob_stores = [] }

let durable t = Option.is_some t.wal
let wal t = t.wal
let fault t = t.fault

let breakers t = List.rev t.breakers

let breaker t ~name = List.assoc_opt name t.breakers

let all_pagers t = List.rev_append t.table_pagers t.blob_pagers

(* A component created after the last checkpoint would be rolled back to a
   zeroed, unreadable root if recovery reverted its device wholesale — so a
   fresh device is immediately flushed and marked stable, making "empty"
   the component's own recovery point. Creation between checkpoints is thus
   safe; filling the component (build/rebuild) must still end with
   [checkpoint], because bulk loads bypass the WAL. *)
let component_stable pager =
  Pager.flush pager;
  Disk.mark_stable (Pager.disk pager)

let new_disk t ~name =
  let breaker =
    match t.breaker_threshold with
    | None -> None
    | Some threshold ->
        let b = Retry.breaker ~threshold name in
        t.breakers <- (name, b) :: t.breakers;
        Some b
  in
  Disk.create ~page_size:t.page_size ?fault:t.fault ?breaker
    ~journal:(durable t) ~name t.stats

let btree t ~name =
  let disk = new_disk t ~name in
  let pager =
    Pager.create ~pool_pages:t.table_pool_pages ~shards:t.pager_shards
      ~stats:t.stats disk
  in
  t.table_pagers <- (name, pager) :: t.table_pagers;
  let tree = Btree.create pager in
  t.trees <- tree :: t.trees;
  if durable t then component_stable pager;
  tree

let blob_store t ~name =
  let disk = new_disk t ~name in
  let pager =
    Pager.create ~pool_pages:t.blob_pool_pages ~shards:t.pager_shards
      ~stats:t.stats disk
  in
  t.blob_pagers <- (name, pager) :: t.blob_pagers;
  let store = Blob_store.create pager in
  t.blob_stores <- store :: t.blob_stores;
  if durable t then component_stable pager;
  store

let cold_btree t ~name =
  let disk = new_disk t ~name in
  let pager =
    Pager.create ~pool_pages:t.blob_pool_pages ~shards:t.pager_shards
      ~stats:t.stats disk
  in
  t.blob_pagers <- (name, pager) :: t.blob_pagers;
  let tree = Btree.create pager in
  t.trees <- tree :: t.trees;
  if durable t then component_stable pager;
  tree

let stats t = t.stats
let cost t = t.cost
let reset_stats t = Stats.reset t.stats

let drop_blob_caches t =
  List.iter (fun (_, pager) -> Pager.drop_cache pager) t.blob_pagers

let drop_all_caches t =
  drop_blob_caches t;
  List.iter (fun (_, pager) -> Pager.drop_cache pager) t.table_pagers

let flush_all t = List.iter (fun (_, pager) -> Pager.flush pager) (all_pagers t)

let device_sizes t =
  let size (name, pager) = (name, Disk.size_bytes (Pager.disk pager)) in
  let wal_size =
    match t.wal with
    | Some w -> [ ("wal", Disk.size_bytes (Wal.device w)) ]
    | None -> []
  in
  List.rev_map size t.table_pagers @ List.rev_map size t.blob_pagers @ wal_size

let device_size t ~name =
  match List.assoc_opt name (device_sizes t) with
  | Some size -> size
  | None ->
      Storage_error.error Missing "Env.device_size: unknown device %S (have %s)"
        name
        (String.concat ", "
           (List.map (fun (n, _) -> Printf.sprintf "%S" n) (device_sizes t)))

(* -- durability ----------------------------------------------------------- *)

let log t record =
  match t.wal with None -> () | Some wal -> Wal.append wal record

let log_flush t =
  match t.wal with None -> () | Some wal -> Wal.flush wal

let checkpoint t =
  match t.wal with
  | None -> ()
  | Some wal ->
      (* order matters: (1) force the log, so a crash during (2) finds every
         applied update in it; (2) force the data pages; (3) truncate — one
         atomic header write, the commit point; (4) snapshot, which touches
         no device, so no crash can split (3) from (4) *)
      let sp = Svr_obs.Trace.root "checkpoint" in
      let phase name f =
        let p = Svr_obs.Trace.push name in
        Fun.protect ~finally:(fun () -> Svr_obs.Trace.pop p) f
      in
      Fun.protect
        ~finally:(fun () -> Svr_obs.Trace.pop sp)
        (fun () ->
          phase "wal-force" (fun () -> Wal.flush wal);
          phase "pool-flush" (fun () -> flush_all t);
          phase "log-truncate" (fun () -> Wal.truncate wal);
          List.iter
            (fun (_, p) -> Disk.mark_stable (Pager.disk p))
            (all_pagers t);
          List.iter Btree.mark_stable t.trees;
          List.iter Blob_store.mark_stable t.blob_stores)

let crash t =
  if not (durable t) then
    invalid_arg "Env.crash: environment was created without ~durable:true";
  (* everything volatile dies: pool pages (dirty ones unwritten) and the
     unforced WAL tail. The devices keep whatever had been written. *)
  List.iter (fun (_, p) -> Pager.discard p) (all_pagers t);
  (match t.wal with Some wal -> Wal.lose_pending wal | None -> ())

let recover t =
  match t.wal with
  | None -> []
  | Some wal ->
      let sp = Svr_obs.Trace.root "recover" in
      let t0 = Svr_obs.Clock.now_ms () in
      let revert = Svr_obs.Trace.push "device-revert" in
      List.iter (fun (_, p) -> Pager.discard p) (all_pagers t);
      List.iter (fun (_, p) -> Disk.revert_to_stable (Pager.disk p)) (all_pagers t);
      List.iter Btree.revert_to_stable t.trees;
      List.iter Blob_store.revert_to_stable t.blob_stores;
      Svr_obs.Trace.pop revert;
      let scan = Svr_obs.Trace.push "log-scan" in
      let records = Wal.recover_scan wal in
      Svr_obs.Trace.pop scan;
      let c = Stats.cell t.stats in
      c.Stats.recovery_replays <- c.Stats.recovery_replays + List.length records;
      Svr_obs.Metrics.observe
        (Svr_obs.Metrics.histogram ~base:0.001
           ~help:"wall ms spent reverting devices and scanning the log"
           "svr_recovery_replay_ms")
        (Svr_obs.Clock.now_ms () -. t0);
      Svr_obs.Trace.annotate_f sp "records" (fun () ->
          string_of_int (List.length records));
      Svr_obs.Trace.pop sp;
      records
