(* Per-domain counter cells over {!Svr_obs.Cell}: each domain that touches
   a [t] gets its own record, so hot-path increments are plain mutable
   writes to memory no other domain touches. Every aggregate (reset,
   snapshot, per_domain, diff, pp) is a fold over the cells and the one
   field table below, so a new counter is one record field plus one table
   row. *)

type counters = {
  mutable logical_reads : int;
  mutable cache_hits : int;
  mutable seq_reads : int;
  mutable rand_reads : int;
  mutable page_writes : int;
  mutable seq_writes : int;
  mutable blocks_decoded : int;
  mutable blocks_skipped : int;
  mutable upper_seeks : int;
  mutable codec_bytes_written : int;
  mutable wal_appends : int;
  mutable wal_bytes : int;
  mutable checksum_failures : int;
  mutable read_retries : int;
  mutable recovery_replays : int;
  mutable stall_ms : int;
}

type t = counters Svr_obs.Cell.t

type cost_model = {
  seq_read_ms : float;
  rand_read_ms : float;
  write_ms : float;
  seq_write_ms : float;
}

let default_cost =
  { seq_read_ms = 0.05; rand_read_ms = 8.0; write_ms = 8.0;
    seq_write_ms = 0.05 }

let zero () =
  { logical_reads = 0; cache_hits = 0; seq_reads = 0; rand_reads = 0;
    page_writes = 0; seq_writes = 0; blocks_decoded = 0; blocks_skipped = 0;
    upper_seeks = 0; codec_bytes_written = 0;
    wal_appends = 0; wal_bytes = 0; checksum_failures = 0; read_retries = 0;
    recovery_replays = 0; stall_ms = 0 }

(* (name, get, set), in declaration order *)
let table =
  [ ("logical_reads", (fun c -> c.logical_reads),
     fun c v -> c.logical_reads <- v);
    ("cache_hits", (fun c -> c.cache_hits), fun c v -> c.cache_hits <- v);
    ("seq_reads", (fun c -> c.seq_reads), fun c v -> c.seq_reads <- v);
    ("rand_reads", (fun c -> c.rand_reads), fun c v -> c.rand_reads <- v);
    ("page_writes", (fun c -> c.page_writes), fun c v -> c.page_writes <- v);
    ("seq_writes", (fun c -> c.seq_writes), fun c v -> c.seq_writes <- v);
    ("blocks_decoded", (fun c -> c.blocks_decoded),
     fun c v -> c.blocks_decoded <- v);
    ("blocks_skipped", (fun c -> c.blocks_skipped),
     fun c v -> c.blocks_skipped <- v);
    ("upper_seeks", (fun c -> c.upper_seeks), fun c v -> c.upper_seeks <- v);
    ("codec_bytes_written", (fun c -> c.codec_bytes_written),
     fun c v -> c.codec_bytes_written <- v);
    ("wal_appends", (fun c -> c.wal_appends), fun c v -> c.wal_appends <- v);
    ("wal_bytes", (fun c -> c.wal_bytes), fun c v -> c.wal_bytes <- v);
    ("checksum_failures", (fun c -> c.checksum_failures),
     fun c v -> c.checksum_failures <- v);
    ("read_retries", (fun c -> c.read_retries),
     fun c v -> c.read_retries <- v);
    ("recovery_replays", (fun c -> c.recovery_replays),
     fun c v -> c.recovery_replays <- v);
    ("stall_ms", (fun c -> c.stall_ms), fun c v -> c.stall_ms <- v) ]

let fields = List.map (fun (name, get, _) -> (name, get)) table

let create () = Svr_obs.Cell.create zero
let cell = Svr_obs.Cell.get

(* dst <- f dst src, field by field *)
let combine f dst src =
  List.iter (fun (_, get, set) -> set dst (f (get dst) (get src))) table;
  dst

let reset t =
  Svr_obs.Cell.fold
    (fun () _ c -> List.iter (fun (_, _, set) -> set c 0) table)
    () t

let snapshot t =
  Svr_obs.Cell.fold (fun acc _ c -> combine ( + ) acc c) (zero ()) t

let per_domain t =
  List.rev
    (Svr_obs.Cell.fold
       (fun acc id c -> (id, combine ( + ) (zero ()) c) :: acc)
       [] t)

let diff ~after ~before = combine ( - ) (combine ( + ) (zero ()) after) before

let simulated_ms ?(cost = default_cost) c =
  (float_of_int c.seq_reads *. cost.seq_read_ms)
  +. (float_of_int c.rand_reads *. cost.rand_read_ms)
  +. (float_of_int (c.page_writes - c.seq_writes) *. cost.write_ms)
  +. (float_of_int c.seq_writes *. cost.seq_write_ms)
  +. float_of_int c.stall_ms

(* every field prints, every time: partial output hid the WAL counters
   whenever a run happened not to touch the WAL, which made "is durability
   even on?" unanswerable from a stats line *)
let pp ppf c =
  List.iter (fun (name, get) -> Format.fprintf ppf "%s=%d " name (get c))
    fields;
  Format.fprintf ppf "(sim %.2f ms)" (simulated_ms c)
