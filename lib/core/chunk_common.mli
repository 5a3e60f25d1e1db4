(** State and update machinery shared by the Chunk and Chunk-TermScore
    methods (Sections 4.3.2 and 4.3.3).

    Long lists are chunk-grouped immutable blobs (no scores inside); the
    ListChunk table tracks each updated document's list chunk; postings move
    to the short list only when a score climbs more than one chunk
    ([thresholdValueOf c = c + 1], avoiding the boundary corner case the
    paper describes). *)

type t = {
  cfg : Config.t;
  with_ts : bool;
  env : Svr_storage.Env.t;
  scores : Score_table.t;
  docs : Doc_store.t;
  dir : Term_dir.t;
  blobs : Svr_storage.Blob_store.t;
  short : Short_list.t;
  cstate : List_state.Chunk_state.t;
  mutable policy : Chunk_policy.t;
  catalog : Planner.Catalog.t option;
  depth : Svr_obs.Metrics.histogram;  (** merge groups per query *)
}

val build :
  ?env:Svr_storage.Env.t ->
  ?catalog:Planner.Catalog.t ->
  ?policy_of_scores:(float array -> Chunk_policy.t) ->
  with_ts:bool ->
  Config.t ->
  corpus:(int * string) Seq.t ->
  scores:(int -> float) ->
  t
(** [policy_of_scores] overrides the default ratio-based chunking (used by the
    ablation bench to compare equal-width / equal-population policies).
    [catalog] is kept current at every long-list rewrite. *)

val score_update : t -> doc:int -> float -> unit
(** Algorithm 1, chunk flavour. *)

val insert : t -> doc:int -> string -> score:float -> unit

val delete : t -> doc:int -> unit

val update_content : t -> doc:int -> string -> unit

val term_cursors : t -> string list -> Posting_cursor.t list
(** short ∪ long cursors for the query terms, in (chunk desc, doc asc)
    order. *)

val process_candidate :
  t -> Types.mode -> n_terms:int -> Merge.group -> Result_heap.t -> unit
(** Shared candidate logic: membership test, deleted filter, short/long
    deduplication via ListChunk, Score-table probe, combined scoring. *)

val long_list_bytes : t -> int

val short_list_postings : t -> int

val compact_terms :
  ?on_drained:(term:string -> max_add_ts:int -> unit) -> t -> string list -> int
(** One online-compaction drain: merge each term's short postings into its
    long blob (Adds re-enter at the doc's current list chunk, replacing its
    older-chunk postings; Rems remove the doc), swap the blob, and delete
    the short postings. Returns short postings drained. [on_drained] reports
    each drained term's largest Add term score — what Chunk-TermScore's
    stopping bound must keep remembering once the postings leave the short
    list. Queries remain exact throughout because [process_candidate] admits
    a long-only group exactly when its chunk equals the doc's list chunk. *)

val rebuild : t -> (string, (int * int) list ref) Hashtbl.t
(** Offline merge: drop deleted docs, re-chunk from current scores, rebuild
    long lists, clear short lists and ListChunk. Returns the fresh per-term
    postings so Chunk-TermScore can rebuild its fancy lists from the same
    pass. *)
