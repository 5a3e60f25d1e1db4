(** Counters, gauges and log-bucketed histograms with per-domain cells.

    Collectors live in a process-global registry keyed by (name, labels).
    Counters and histograms store their values in {e per-domain cells}
    ({!Cell}, the substrate [Stats] counts on too): the hot path increments
    plain fields no other domain touches, and {!snapshot} sums the cells — a commutative
    reduction, so a serial run and a 4-domain run of the same work produce
    identical snapshots at quiescence. Gauges are read-time callbacks
    (e.g. a pager shard's hit rate computed from its counters at scrape).

    Registration is idempotent for counters and histograms (the existing
    collector is returned, so components re-created across environments
    share one series) and last-wins for gauges (a fresh component's
    callback replaces its predecessor's). Registration takes the registry
    mutex: make handles when their owner is created, never per operation. *)

type counter
type histogram

val counter : ?help:string -> ?labels:(string * string) list -> string -> counter
(** Get or create the counter named [name] with [labels]. *)

val inc : counter -> unit
val add : counter -> int -> unit

val counter_value : counter -> int
(** Sum over all domains' cells. *)

val gauge :
  ?help:string -> ?labels:(string * string) list -> string ->
  (unit -> float) -> unit
(** Register a callback gauge, replacing any previous one of the same
    (name, labels). The callback runs at scrape/snapshot time. *)

val histogram :
  ?help:string -> ?labels:(string * string) list -> ?base:float ->
  string -> histogram
(** Get or create a log-bucketed histogram: bucket upper bounds are
    [base * 2^i] (default [base] 0.001, 40 doublings, then +inf). *)

val observe : histogram -> float -> unit

val hist_count : histogram -> int
val hist_sum : histogram -> float

val hist_quantile : histogram -> float -> float
(** [hist_quantile h q] estimates the [q]-quantile (q in [0,1]) from the
    aggregated log2 buckets, linearly interpolated inside the containing
    bucket; [nan] when empty. The relative error is bounded by the bucket
    width (a factor of 2), so p50/p90/p99 read as order-of-magnitude-exact
    tail estimates, not sample statistics. *)

val quantile_of : base:float -> (float * int) list -> int -> float -> float
(** The same estimator over exported data: non-cumulative (upper-bound,
    count) pairs in ascending order (as in {!value}'s [Histogram]), total
    count, and the histogram's bucket [base] (needed to place the first
    bucket's lower bound at 0). Used by the time-series layer to compute
    windowed quantiles from delta-encoded buckets. *)

val export_quantiles : float list
(** The quantiles every histogram exports ([0.5; 0.9; 0.99]). *)

(** {2 Export} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of
      { base : float; buckets : (float * int) list; sum : float; count : int }
      (** [buckets] are (upper-bound, count) pairs, non-cumulative,
          zero-count buckets omitted; the +inf bound prints as [inf];
          [base] is the log2 bucket base for quantile reconstruction. *)

val snapshot : unit -> ((string * (string * string) list) * value) list
(** Every collector's aggregated value, sorted by (name, labels) — the
    structure the serial-vs-parallel equality test compares. *)

val to_json : unit -> string
(** The snapshot as a JSON array of collector objects. Histograms carry a
    ["quantiles"] object with the {!export_quantiles} estimates. *)

val to_prometheus : unit -> string
(** Prometheus text exposition (version 0.0.4): HELP/TYPE comments,
    cumulative [_bucket{le=...}] series plus [_sum]/[_count], and
    [<name>_quantile{q="..."}] gauges for {!export_quantiles}. *)

val reset : unit -> unit
(** Zero every counter and histogram cell (gauges are stateless). Call at
    quiescent points only. *)
