(** I/O accounting for the simulated storage layer, safe under domains.

    The paper's measurements are disk-dominated (cold-cache queries against
    long inverted lists far larger than the 100 MB BerkeleyDB cache). We count
    every physical page access, classified as sequential or random, and derive
    a simulated elapsed time from a configurable cost model. Benchmarks report
    both wall time and this simulated time; the latter is what reproduces the
    paper's shapes on arbitrary hardware.

    Counters live in {e per-domain cells}: {!cell} hands the calling domain
    its own mutable record, so the hot path increments plain fields that no
    other domain touches — zero contention, no atomics. {!snapshot} sums the
    cells; {!per_domain} exposes them individually (the parallel-query bench
    derives per-domain cache-hit rates and a modeled parallel elapsed time
    from them). Aggregation is exact at quiescent points; while other domains
    are actively counting it may observe in-flight values. The cells are a
    {!Svr_obs.Cell} set, the substrate [Metrics] and [Trace] use too. *)

type counters = {
  mutable logical_reads : int;  (** page reads requested (incl. cache hits) *)
  mutable cache_hits : int;  (** reads served from a buffer pool *)
  mutable seq_reads : int;  (** physical reads contiguous with the previous *)
  mutable rand_reads : int;  (** physical reads requiring a seek *)
  mutable page_writes : int;  (** physical page writes (pool write-back) *)
  mutable seq_writes : int;
      (** the subset of [page_writes] contiguous with the device's previous
          write — WAL appends, bulk-load runs *)
  mutable blocks_decoded : int;
      (** posting blocks fully decoded by a long-list cursor *)
  mutable blocks_skipped : int;
      (** posting blocks (or whole chunk groups) skipped via their headers
          without decoding — the payoff of the skip data *)
  mutable upper_seeks : int;
      (** in-block seeks answered by searching an Elias-Fano upper-bits
          structure (the [pef] codec's native [seek_geq]) *)
  mutable codec_bytes_written : int;
      (** exact encoded posting-list bytes handed to {!Blob_store.put} —
          headers and bodies alike, no estimates — so the cost model bills
          what the codec actually produced *)
  mutable wal_appends : int;  (** logical records appended to the WAL *)
  mutable wal_bytes : int;  (** framed bytes those records occupied *)
  mutable checksum_failures : int;
      (** verified reads whose page failed its sidecar CRC32 *)
  mutable read_retries : int;
      (** transient read faults absorbed by retry-with-backoff *)
  mutable recovery_replays : int;
      (** WAL records replayed by {!Env.recover} *)
  mutable stall_ms : int;
      (** injected device-stall milliseconds ({!Fault} latency faults) —
          billed straight into {!simulated_ms}, so simulated deadlines
          observe slow devices deterministically *)
}

type t
(** A set of per-domain counter cells sharing one registry. *)

val fields : (string * (counters -> int)) list
(** Every counter field's name and reader, in declaration order — the one
    list [reset], [snapshot], [diff] and [pp] fold over, and the source of
    the [svr_io_<field>] series {!Env.create} exports. *)

type cost_model = {
  seq_read_ms : float;  (** cost of a sequential 4 KiB page read *)
  rand_read_ms : float;  (** cost of a random page read (seek + transfer) *)
  write_ms : float;  (** cost of a random physical page write *)
  seq_write_ms : float;  (** cost of a write contiguous with the previous *)
}

val default_cost : cost_model
(** Commodity-disk model matching the paper's 2004-era hardware:
    8 ms random read/write, 0.05 ms sequential read/write (appends ride
    the same head position — the economics the WAL exists to exploit). *)

val create : unit -> t

val cell : t -> counters
(** The calling domain's private cell — created and registered on first use.
    Increment its fields directly; never share the record across domains. *)

val zero : unit -> counters
(** A fresh all-zero record, for accumulators. *)

val reset : t -> unit
(** Zero every registered cell. Call only at quiescent points. *)

val snapshot : t -> counters
(** Field-wise sum of every domain's cell, as an independent record. *)

val per_domain : t -> (int * counters) list
(** Copies of each registered cell with its domain id, in registration
    order. Cells of terminated domains persist (their counts still matter). *)

val diff : after:counters -> before:counters -> counters
(** Field-wise [after - before]. *)

val simulated_ms : ?cost:cost_model -> counters -> float
(** Simulated elapsed time implied by the physical I/O counts. *)

val pp : Format.formatter -> counters -> unit
