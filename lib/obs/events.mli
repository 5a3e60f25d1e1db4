(** Bounded structured audit log of request lifecycles.

    Every request emits exactly one record at its terminal transition —
    [Submitted → Admitted/Shed → Dequeued → Complete/Partial/Timed_out] —
    carrying what the lifecycle accumulated: queue wait, service time,
    the admission or budget verdict, the plan strategy, and the trace id
    correlating the row with its [.explain] tree. Records live in a
    {!capacity}-slot ring (oldest overwritten); terminal counts are also
    exported as [svr_events_total{terminal}]. *)

type terminal = Shed | Complete | Partial | Timed_out | Failed

val terminal_name : terminal -> string

type record = {
  ev_seq : int;  (** emission order, process-global *)
  ev_wall_s : float;  (** wall seconds at the terminal transition *)
  ev_cls : string;  (** admission class (query/update/maintenance), or [-] *)
  ev_terminal : terminal;
  ev_reason : string;  (** shed verdict or budget-trip reason; [""] *)
  ev_strategy : string;  (** plan strategy; [""] when unplanned *)
  ev_queue_wait_ms : float;  (** submit → dequeue; 0 when never queued *)
  ev_service_ms : float;
      (** submit → terminal, queue wait included; execution alone is
          [ev_service_ms - ev_queue_wait_ms] *)
  ev_trace : int;  (** trace id for [.explain] correlation; 0 unsampled *)
}

val emit :
  ?reason:string -> ?strategy:string -> ?queue_wait_ms:float ->
  ?service_ms:float -> ?trace:int -> cls:string -> terminal -> unit
(** Record a terminal transition: one ring store plus one counter bump. *)

val recent : ?n:int -> unit -> record list
(** The most recent [n] records (default: all retained), newest first. *)

val counts : unit -> (terminal * int) list
(** Per-terminal totals since process start (counter-backed, unbounded —
    they survive ring wrap). *)

val render : ?n:int -> unit -> string
(** The [.events] table: the last [n] (default 16) records plus totals. *)

val capacity : int

val clear : unit -> unit
(** Empty the ring (the counters are left to {!Metrics.reset}). *)
