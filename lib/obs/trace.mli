(** Query-lifecycle span tracing, safe under domains and cheap when off.

    A {e trace} is the tree of spans produced by one sampled operation — a
    top-k query, an update, a checkpoint or a recovery. Spans carry two
    clocks: wall time ({!Unix.gettimeofday}) and the simulated-ms clock the
    storage layer derives from its I/O cost model (injected with
    {!set_sim_clock}, so this module depends on nothing above it).

    The disabled path is the design constraint. Every entry point first
    checks a single atomic; an unsampled operation receives the {!none}
    sentinel span, and every operation on {!none} is a no-op that allocates
    nothing. Hot-loop hooks (per-block decode events) must guard with
    {!hot} before building attribute lists, so a query path with tracing
    off performs one atomic load per hook site and nothing else.

    Completed spans land in {e per-domain ring buffers} (one {!Cell} per
    domain, like [Stats] counters), so recording never takes a lock; {!trace_events} and
    {!recent_events} walk the registry at quiescent points. *)

type span
(** An open span. Physically compare against {!none} via {!is_on}. *)

val none : span
(** The sentinel returned when tracing is off or the operation unsampled. *)

type event = {
  e_trace : int;  (** trace id, unique per sampled root operation *)
  e_span : int;  (** span id, globally increasing in creation order *)
  e_parent : int;  (** parent span id, [0] for a trace root *)
  e_name : string;
  e_domain : int;  (** domain the span ran on *)
  e_start_wall : float;  (** [Unix.gettimeofday] at span start *)
  e_wall_ms : float;  (** wall-clock duration *)
  e_sim_ms : float;  (** simulated-ms duration from the injected clock *)
  e_attrs : (string * string) list;  (** key/value annotations *)
}
(** A completed span, as stored in the ring buffers. *)

(** {2 Sampling} *)

val set_sampling : int -> unit
(** [0] disables tracing entirely (the default); [1] traces every root
    operation; [n] traces every [n]-th. The [SVR_TRACE_SAMPLE] environment
    variable, when a positive integer, sets the initial rate — CI runs the
    whole test suite under [SVR_TRACE_SAMPLE=1]. *)

val sampling : unit -> int

val force_next : unit -> unit
(** Trace the next root operation regardless of the sampling rate — the
    [.explain] hook. Consumed by the first {!root} call on any domain. *)

val set_sim_clock : (unit -> float) -> unit
(** Install the simulated-ms clock. The storage environment wires this to
    [Stats.simulated_ms] over the calling domain's counter cell, so span
    sim durations are exact per-domain I/O costs. Default: constant 0. *)

(** {2 Spans} *)

val root : string -> span
(** Start a root-eligible span. If a trace is already active on this domain
    the span joins it as a child (an [Engine] statement wrapping an [Index]
    query yields one trace); otherwise a new trace starts iff sampling or
    {!force_next} selects it. Returns {!none} when not selected. *)

val push : string -> span
(** Start a child of the domain's current span; {!none} when no trace is
    active. Never starts a trace. *)

val pop : span -> unit
(** Finish a span: record its event in the domain's ring and restore its
    parent as current. No-op on {!none}. Pop in LIFO order. *)

val is_on : span -> bool
(** [span != none] — guard for any work done only to annotate. *)

val hot : unit -> bool
(** One atomic load, then: is a trace active on this domain right now?
    The guard for hot-loop hooks, false on the fast path when disabled. *)

val event : ?attrs:(string * string) list -> string -> unit
(** Record an instantaneous (zero-duration) child of the current span.
    No-op when no trace is active — but callers in hot loops should guard
    with {!hot} before constructing [attrs]. *)

val annotate : span -> string -> string -> unit
(** Attach [key = value] to an open span. No-op on {!none}. *)

val annotate_f : span -> string -> (unit -> string) -> unit
(** Lazy {!annotate}: the value thunk runs only if the span is live. *)

val has_attr : span -> string -> bool
(** Was [key] already attached to this open span? [false] on {!none}. *)

(** {2 Inspection} *)

val current : unit -> span
(** The calling domain's innermost open span ({!none} if untraced). *)

val trace_id : span -> int
(** The span's trace id, [0] on {!none} — the correlation key the event
    log stores so [.events] rows link to [.explain] trees. *)

val last_trace_id : unit -> int
(** Id of the most recently started trace, [0] if none ever started. *)

val trace_events : int -> event list
(** All retained events of one trace, across every domain's ring, sorted
    by span id (creation order). Call at quiescent points. *)

val recent_events : ?n:int -> unit -> event list
(** The most recent [n] (default 64) completed spans across all rings. *)

val on_root_finish : (event -> unit) -> unit
(** Install a hook called with the root event each time a trace completes
    (the slow-log retention point). One hook; later calls replace it. *)

val ring_capacity : int
(** Completed spans retained per domain. Oldest overwritten first; each
    overwrite of a still-retained event increments the
    [svr_trace_dropped_spans_total] counter, so truncated [.explain]
    trees are detectable from [.metrics]. *)

val clear : unit -> unit
(** Empty every ring buffer. Call only at quiescent points. *)
