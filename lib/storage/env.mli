(** A storage environment: shared I/O statistics plus factories for the two
    device classes the paper distinguishes.

    "Hot" devices (B+-trees for the Score table, short lists, ListScore /
    ListChunk) get pools large enough to stay memory-resident — the paper
    observes they are "easily maintained in the database cache". "Cold"
    devices (blob stores for long inverted lists) get a bounded pool that the
    benchmark harness empties before each timed query to simulate a data set
    that does not fit in memory.

    Created with [~durable:true], the environment also owns a {!Wal} on its
    own device and gives every data device a before-image journal, making
    the crash/checkpoint/recover cycle available:

    - update layers call {!log} before applying each logical update;
    - {!checkpoint} forces log and pools, truncates the log atomically, and
      snapshots all in-memory component state (tree roots, blob dirs);
    - {!crash} models process death: pools and the unforced WAL tail are
      lost, devices keep what was physically written;
    - {!recover} reverts every data device (and component) to the last
      checkpoint and returns the surviving logged records, which the owner
      of the environment (Index / Engine) replays through its normal update
      code — then checkpoints.

    An optional {!Fault.t} is threaded into every device so crashes,
    transient read errors and bit flips arrive deterministically. *)

type t

val create :
  ?page_size:int ->
  ?table_pool_pages:int ->
  ?blob_pool_pages:int ->
  ?pager_shards:int ->
  ?cost:Stats.cost_model ->
  ?fault:Fault.t ->
  ?breaker_threshold:int ->
  ?durable:bool ->
  ?wal_group:int ->
  unit ->
  t
(** Defaults: 4 KiB pages; 8192-page (32 MiB) pools per table; a 25600-page
    (100 MiB) pool per blob store, matching the paper's BerkeleyDB cache.
    [pager_shards] (default {!Pager.default_shards}) is the lock-sharding
    factor of every buffer pool created by this environment. [durable]
    (default false) turns on the WAL + journaling machinery; [wal_group]
    (default 32) is the group-commit batch. [breaker_threshold] (default
    none) attaches a {!Retry} circuit breaker to every device created by
    this environment, opening after that many consecutive transient/torn
    read faults. Every {!Stats.fields} counter of the new environment is
    exported as the gauge [svr_io_<field>] (the latest environment wins).
    @raise Invalid_argument if [breaker_threshold < 1]. *)

val btree : t -> name:string -> Btree.t
(** A fresh B+-tree on its own hot device. *)

val blob_store : t -> name:string -> Blob_store.t
(** A fresh blob store on its own cold device. *)

val cold_btree : t -> name:string -> Btree.t
(** A B+-tree on a cold device: its pool is the bounded blob-class pool and
    {!drop_blob_caches} empties it. The Score method's updatable long list —
    too big to stay cached — is the one user. *)

val stats : t -> Stats.t

val cost : t -> Stats.cost_model

val reset_stats : t -> unit

val drop_blob_caches : t -> unit
(** Cold-cache the long lists: flush and empty every blob-store pool. *)

val drop_all_caches : t -> unit

val flush_all : t -> unit
(** Write back every dirty page of every pool (pages stay cached). *)

val device_sizes : t -> (string * int) list
(** [(name, bytes)] footprint of every device created so far (including
    ["wal"] when durable). *)

val device_size : t -> name:string -> int
(** Footprint of one named device.
    @raise Storage_error.Error [(Missing, _)] naming the unknown device and
    the devices that do exist. *)

(** {2 Durability} *)

val durable : t -> bool

val fault : t -> Fault.t option

val breakers : t -> (string * Retry.breaker) list
(** Per-device circuit breakers, in device-creation order (empty unless
    [breaker_threshold] was given). *)

val breaker : t -> name:string -> Retry.breaker option

val wal : t -> Wal.t option

val log : t -> Wal.record -> unit
(** Append a logical update record (no-op when not durable). Call {e
    before} applying the update, write-ahead style. *)

val log_flush : t -> unit
(** Force pending records to the log device (group commit happens
    automatically every [wal_group] records; this is the explicit commit). *)

val checkpoint : t -> unit
(** Make everything applied so far crash-proof: force log and pools,
    truncate the log (the atomic commit point), snapshot component state
    and mark every device stable. No-op when not durable.
    @raise Fault.Crash if the fault clock trips mid-checkpoint — recovery
    then falls back to the {e previous} checkpoint plus the full log. *)

val crash : t -> unit
(** Simulate process death at this instant: buffer pools and the unforced
    WAL tail vanish; devices keep exactly what was physically written.
    Follow with {!recover}. @raise Invalid_argument when not durable. *)

val recover : t -> Wal.record list
(** Crash recovery, storage half: drop all pool pages (no write-back),
    revert every data device and component to the last checkpoint, scan the
    log. Returns the surviving records in append order (counted in
    [recovery_replays]); the caller replays them through the normal update
    path and then calls {!checkpoint}. Returns [[]] when not durable. *)
