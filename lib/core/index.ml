type kind =
  | Id
  | Score
  | Score_threshold
  | Chunk
  | Id_termscore
  | Chunk_termscore

let all_kinds = [ Id; Score; Score_threshold; Chunk; Id_termscore; Chunk_termscore ]

let kind_name = function
  | Id -> "ID"
  | Score -> "Score"
  | Score_threshold -> "Score-Threshold"
  | Chunk -> "Chunk"
  | Id_termscore -> "ID-TermScore"
  | Chunk_termscore -> "Chunk-TermScore"

let kind_of_name name =
  (* underscores are accepted for hyphens so the names survive SQL lexing *)
  let canon s =
    String.lowercase_ascii (String.map (fun c -> if c = '_' then '-' else c) s)
  in
  List.find_opt (fun k -> canon (kind_name k) = canon name) all_kinds

let ranks_with_term_scores = function
  | Id_termscore | Chunk_termscore -> true
  | Id | Score | Score_threshold | Chunk -> false

type impl =
  | I_id of Method_id.t
  | I_score of Method_score.t
  | I_st of Method_score_threshold.t
  | I_chunk of Method_chunk.t
  | I_cts of Method_chunk_termscore.t

type t = {
  kind : kind;
  cfg : Config.t;
  impl : impl;
  tag : string;
  lock : Rw_lock.t;
      (* queries shared; updates and maintenance steps exclusive. Never held
         by [apply_op]/[recover]: replay is single-threaded and the lock is
         not reentrant. *)
  maint : Maintenance.t;
  hdr : Svr_storage.Btree.t;
      (* durable index header: the facts a reader must know before it can
         decode a single blob — the posting codec, and the statistics
         generation the planner catalog must match *)
  catalog : Planner.Catalog.t;
      (* per-term statistics, persisted next to the header; the methods keep
         it current at every long-list rewrite *)
  obs : Qobs.t; (* this method's metric handles *)
}

let kind t = t.kind
let tag t = t.tag
let codec t = t.cfg.Config.codec
let catalog t = t.catalog

module St = Svr_storage

let hdr_codec_key = "codec"
let hdr_stats_gen_key = "stats_gen"
let stats_gen_current = "1"

let persisted_codec t =
  match St.Btree.find t.hdr hdr_codec_key with
  | None -> None
  | Some name -> Types.codec_of_name name

let stamp_codec t name = St.Btree.insert t.hdr hdr_codec_key name
let stamp_stats_gen t g = St.Btree.insert t.hdr hdr_stats_gen_key g

let persisted_stats_gen t = St.Btree.find t.hdr hdr_stats_gen_key

(* The codec is not recorded inside each blob (blocks stay dense), so a
   reader configured with the wrong codec would misparse every body.
   Recovery therefore refuses to proceed when the persisted header and the
   supplied configuration disagree. *)
let verify_header t =
  (match St.Btree.find t.hdr hdr_codec_key with
  | None ->
      St.Storage_error.error St.Storage_error.Corrupt
        "Index(%s): no codec in the index header" t.tag
  | Some name -> (
      match Types.codec_of_name name with
      | Some c when c = t.cfg.Config.codec -> ()
      | Some c ->
          St.Storage_error.error St.Storage_error.Corrupt
            "Index(%s): built with codec %s but recovered with %s" t.tag
            (Types.codec_name c)
            (Types.codec_name t.cfg.Config.codec)
      | None ->
          St.Storage_error.error St.Storage_error.Corrupt
            "Index(%s): unknown codec %S in the index header" t.tag name));
  (* a statistics catalog out of step with its index would silently
     mis-plan every Auto query: refuse it like a codec mismatch *)
  match (St.Btree.find t.hdr hdr_stats_gen_key, Planner.Catalog.gen t.catalog) with
  | Some h, Some c when String.equal h c -> ()
  | Some h, Some c ->
      St.Storage_error.error St.Storage_error.Corrupt
        "Index(%s): header statistics generation %S does not match the \
         catalog's %S — the stats catalog is stale"
        t.tag h c
  | None, _ ->
      St.Storage_error.error St.Storage_error.Corrupt
        "Index(%s): no statistics generation in the index header" t.tag
  | _, None ->
      St.Storage_error.error St.Storage_error.Corrupt
        "Index(%s): statistics catalog carries no generation stamp" t.tag

exception Invalid_score of string

(* Update-path validation (the long-standing hole: a NaN silently poisons
   every rank-ordered structure downstream, because [f64_desc] orders NaN
   bits like any other payload and every comparison against NaN is false).
   Checked before logging so a rejected update leaves neither WAL record nor
   state change. *)
let check_score score =
  if not (Float.is_finite score) || score < 0.0 then
    raise
      (Invalid_score
         (Printf.sprintf "SVR score must be finite and >= 0, got %g" score))

let impl_env = function
  | I_id i -> Method_id.env i
  | I_score i -> Method_score.env i
  | I_st i -> Method_score_threshold.env i
  | I_chunk i -> Method_chunk.env i
  | I_cts i -> Method_chunk_termscore.env i

let env t = impl_env t.impl
let env_of = env

let maint_target impl =
  match impl with
  | I_id i ->
      { Maintenance.short_postings = (fun () -> Method_id.short_list_postings i);
        long_bytes = (fun () -> Method_id.long_list_bytes i);
        next_term = (fun after -> Method_id.short_next_term i ~after);
        term_count = (fun term -> Method_id.short_term_count i ~term);
        compact = (fun terms -> Method_id.compact_terms i terms) }
  | I_score _ ->
      (* the Score method's B+-tree is updated in place: no short lists *)
      Maintenance.null_target
  | I_st i ->
      { Maintenance.short_postings =
          (fun () -> Method_score_threshold.short_list_postings i);
        long_bytes = (fun () -> Method_score_threshold.long_list_bytes i);
        next_term = (fun after -> Method_score_threshold.short_next_term i ~after);
        term_count = (fun term -> Method_score_threshold.short_term_count i ~term);
        compact = (fun terms -> Method_score_threshold.compact_terms i terms) }
  | I_chunk i ->
      { Maintenance.short_postings = (fun () -> Method_chunk.short_list_postings i);
        long_bytes = (fun () -> Method_chunk.long_list_bytes i);
        next_term = (fun after -> Method_chunk.short_next_term i ~after);
        term_count = (fun term -> Method_chunk.short_term_count i ~term);
        compact = (fun terms -> Method_chunk.compact_terms i terms) }
  | I_cts i ->
      { Maintenance.short_postings =
          (fun () -> Method_chunk_termscore.short_list_postings i);
        long_bytes = (fun () -> Method_chunk_termscore.long_list_bytes i);
        next_term = (fun after -> Method_chunk_termscore.short_next_term i ~after);
        term_count = (fun term -> Method_chunk_termscore.short_term_count i ~term);
        compact = (fun terms -> Method_chunk_termscore.compact_terms i terms) }

let build ?env ?(tag = "index") kind cfg ~corpus ~scores =
  (* the environment is resolved here (not in the method) so the statistics
     catalog exists before the bulk load starts writing long lists *)
  let env = match env with Some e -> e | None -> St.Env.create () in
  let catalog = Planner.Catalog.create (St.Env.btree env ~name:(tag ^ ":stats")) in
  let impl =
    match kind with
    | Id -> I_id (Method_id.build ~env ~catalog ~with_ts:false cfg ~corpus ~scores)
    | Id_termscore ->
        I_id (Method_id.build ~env ~catalog ~with_ts:true cfg ~corpus ~scores)
    | Score -> I_score (Method_score.build ~env ~catalog cfg ~corpus ~scores)
    | Score_threshold ->
        I_st (Method_score_threshold.build ~env ~catalog cfg ~corpus ~scores)
    | Chunk -> I_chunk (Method_chunk.build ~env ~catalog cfg ~corpus ~scores)
    | Chunk_termscore ->
        I_cts (Method_chunk_termscore.build ~env ~catalog cfg ~corpus ~scores)
  in
  let t =
    { kind; cfg; impl; tag; lock = Rw_lock.create ();
      maint = Maintenance.create cfg (maint_target impl);
      hdr = St.Env.btree env ~name:(tag ^ ":hdr");
      catalog; obs = Qobs.create (kind_name kind) }
  in
  (* overdue compaction means queries are paying the short-list penalty:
     report it as maintenance debt so health (and through it, admission)
     sees the index falling behind its update stream *)
  Svr_obs.Health.register_source ("maintenance:" ^ tag) (fun () ->
      if Maintenance.should_run t.maint then
        Svr_obs.Health.Warn (tag ^ ": compaction overdue")
      else Svr_obs.Health.Ok);
  St.Btree.insert t.hdr hdr_codec_key (Types.codec_name cfg.Config.codec);
  St.Btree.insert t.hdr hdr_stats_gen_key stats_gen_current;
  Planner.Catalog.set_gen catalog stats_gen_current;
  (* bulk loads bypass the WAL, so the freshly built state must become the
     recovery baseline before any logged update arrives — the header and the
     statistics catalog ride the same checkpoint *)
  St.Env.checkpoint (env_of t);
  t

(* Write-ahead logging happens here, at the method-dispatch boundary: one
   logical record per update, before any B+-tree or short-list mutation the
   method performs. The [apply_*] family below is the same dispatch without
   the logging — what recovery replays records through. *)

let log t op = St.Env.log (env t) { St.Wal.tag = t.tag; op }

(* One trace root per logical update. Replay during recovery goes through
   [apply_op] directly and is covered by the "recover" span instead. *)
let update_span t name =
  let sp = Qobs.Tr.root "update" in
  if Qobs.Tr.is_on sp then begin
    Qobs.Tr.annotate sp "op" name;
    Qobs.Tr.annotate sp "method" (kind_name t.kind)
  end;
  sp

let apply_score_update t ~doc score =
  match t.impl with
  | I_id i -> Method_id.score_update i ~doc score
  | I_score i -> Method_score.score_update i ~doc score
  | I_st i -> Method_score_threshold.score_update i ~doc score
  | I_chunk i -> Method_chunk.score_update i ~doc score
  | I_cts i -> Method_chunk_termscore.score_update i ~doc score

let apply_insert t ~doc text ~score =
  match t.impl with
  | I_id i -> Method_id.insert i ~doc text ~score
  | I_score i -> Method_score.insert i ~doc text ~score
  | I_st i -> Method_score_threshold.insert i ~doc text ~score
  | I_chunk i -> Method_chunk.insert i ~doc text ~score
  | I_cts i -> Method_chunk_termscore.insert i ~doc text ~score

let apply_delete t ~doc =
  match t.impl with
  | I_id i -> Method_id.delete i ~doc
  | I_score i -> Method_score.delete i ~doc
  | I_st i -> Method_score_threshold.delete i ~doc
  | I_chunk i -> Method_chunk.delete i ~doc
  | I_cts i -> Method_chunk_termscore.delete i ~doc

let apply_update_content t ~doc text =
  match t.impl with
  | I_id i -> Method_id.update_content i ~doc text
  | I_score i -> Method_score.update_content i ~doc text
  | I_st i -> Method_score_threshold.update_content i ~doc text
  | I_chunk i -> Method_chunk.update_content i ~doc text
  | I_cts i -> Method_chunk_termscore.update_content i ~doc text

(* One maintenance step, write lock already held: plan, WAL-log the chosen
   terms, drain them. Replay applies the logged terms through the same
   [Maintenance.compact], so a crash between the log flush and the next
   checkpoint re-runs the identical drain — the step is a deterministic
   function of the state left by the records before it. *)
let step_locked t =
  let terms =
    Maintenance.plan t.maint ~max_terms:t.cfg.Config.maint_step_terms
      ~max_postings:t.cfg.Config.maint_step_postings
  in
  match terms with
  | [] -> None
  | terms ->
      let sp = Qobs.Tr.root "maintain-step" in
      if Qobs.Tr.is_on sp then begin
        Qobs.Tr.annotate sp "method" (kind_name t.kind);
        Qobs.Tr.annotate sp "terms" (string_of_int (List.length terms))
      end;
      Fun.protect
        ~finally:(fun () -> Qobs.Tr.pop sp)
        (fun () ->
          log t (St.Wal.Maintain_step { terms });
          let drained = Maintenance.compact t.maint terms in
          if Qobs.Tr.is_on sp then
            Qobs.Tr.annotate sp "postings" (string_of_int drained);
          Some (List.length terms, drained))

(* Piggyback one step on the update path when the trigger fires. The write
   lock is already held, so the swap wait is zero by construction. *)
let auto_maintain_locked t =
  if t.cfg.Config.maint_auto && Maintenance.should_run t.maint then
    match step_locked t with
    | None -> ()
    | Some (_, drained) ->
        Qobs.maint_step t.obs ~postings:drained ~swap_wait_ms:0.0

let score_update t ~doc score =
  check_score score;
  let sp = update_span t "score-update" in
  Fun.protect
    ~finally:(fun () -> Qobs.Tr.pop sp)
    (fun () ->
      Rw_lock.with_write t.lock (fun () ->
          log t (St.Wal.Score_update { doc; score });
          apply_score_update t ~doc score;
          auto_maintain_locked t))

let insert t ~doc text ~score =
  check_score score;
  let sp = update_span t "insert" in
  Fun.protect
    ~finally:(fun () -> Qobs.Tr.pop sp)
    (fun () ->
      Rw_lock.with_write t.lock (fun () ->
          log t (St.Wal.Doc_insert { doc; text; score });
          apply_insert t ~doc text ~score;
          auto_maintain_locked t))

let delete t ~doc =
  let sp = update_span t "delete" in
  Fun.protect
    ~finally:(fun () -> Qobs.Tr.pop sp)
    (fun () ->
      Rw_lock.with_write t.lock (fun () ->
          log t (St.Wal.Doc_delete { doc });
          apply_delete t ~doc;
          auto_maintain_locked t))

let update_content t ~doc text =
  let sp = update_span t "update-content" in
  Fun.protect
    ~finally:(fun () -> Qobs.Tr.pop sp)
    (fun () ->
      Rw_lock.with_write t.lock (fun () ->
          log t (St.Wal.Doc_update { doc; text });
          apply_update_content t ~doc text;
          auto_maintain_locked t))

let apply_op t (op : St.Wal.op) =
  match op with
  | St.Wal.Score_update { doc; score } -> apply_score_update t ~doc score
  | St.Wal.Doc_insert { doc; text; score } -> apply_insert t ~doc text ~score
  | St.Wal.Doc_delete { doc } -> apply_delete t ~doc
  | St.Wal.Doc_update { doc; text } -> apply_update_content t ~doc text
  | St.Wal.Maintain_step { terms } ->
      (* no planning, no logging: drain exactly the terms the live step
         logged (deterministic given the state the preceding records left) *)
      ignore (Maintenance.compact t.maint terms)
  | St.Wal.Row_put _ | St.Wal.Row_delete _ ->
      invalid_arg "Index.apply_op: relational record routed to a text index"

let recover t =
  let records = St.Env.recover (env t) in
  verify_header t;
  List.iter
    (fun { St.Wal.tag; op } -> if String.equal tag t.tag then apply_op t op)
    records;
  (* the round-robin cursor is volatile state; restart it rather than point
     it at terms that may no longer have short postings *)
  Maintenance.reset t.maint;
  (* the replayed state is fully applied but not yet stable: make it the new
     baseline so a second crash does not replay a truncated log *)
  St.Env.checkpoint (env t);
  records

let short_count_of impl =
  match impl with
  | I_id i -> fun term -> Method_id.short_term_count i ~term
  | I_score _ -> fun _ -> 0 (* in-place long list: no short lists *)
  | I_st i -> fun term -> Method_score_threshold.short_term_count i ~term
  | I_chunk i -> fun term -> Method_chunk.short_term_count i ~term
  | I_cts i -> fun term -> Method_chunk_termscore.short_term_count i ~term

(* methods whose merge stops on a score bound never benefit from a table
   scan: they read a prefix of the lists, not the whole corpus *)
let early_terminating = function
  | Score | Score_threshold | Chunk | Chunk_termscore -> true
  | Id | Id_termscore -> false

let doc_store_of = function
  | I_id i -> Method_id.doc_store i
  | I_score i -> Method_score.doc_store i
  | I_st i -> Method_score_threshold.doc_store i
  | I_chunk i -> Method_chunk.doc_store i
  | I_cts i -> Method_chunk_termscore.doc_store i

let score_table_of = function
  | I_id i -> Method_id.score_table i
  | I_score i -> Method_score.score_table i
  | I_st i -> Method_score_threshold.score_table i
  | I_chunk i -> Method_chunk.score_table i
  | I_cts i -> Method_chunk_termscore.score_table i

(* The planner's fallback for non-selective predicates: walk the forward
   index once instead of merging lists that cover most of the corpus. The
   per-document work mirrors the merge exactly — presence and term-score sum
   are taken over the query terms in their original order, so the float
   summation order (and thus the score, to the last ulp) matches the
   list-based execution. *)
let table_scan_locked t ?budget ~mode terms ~k =
  let docs = doc_store_of t.impl and scores = score_table_of t.impl in
  let with_ts = ranks_with_term_scores t.kind in
  let n_terms = List.length terms in
  let sp = Qobs.Tr.push "table-scan" in
  let heap = Result_heap.create ~k in
  let scanned = ref 0 in
  let exception Budget_stop in
  (try
     Doc_store.iter_docs docs (fun ~doc tfs ->
         incr scanned;
         (* docs arrive in id order, so a truncated scan has no score bound:
            a budget trip here always surfaces as a timeout, never a
            bounded-error partial answer *)
         (match budget with
         | Some b when !scanned land 255 = 0 && Budget.poll b <> None ->
             raise Budget_stop
         | _ -> ());
         if not (Score_table.is_deleted scores ~doc) then begin
           let qts = Build_util.quantized_ts tfs in
           let n_present = ref 0 and ts_sum = ref 0.0 in
           List.iter
             (fun term ->
               match List.assoc_opt term qts with
               | Some ts ->
                   incr n_present;
                   ts_sum := !ts_sum +. Svr_text.Term_score.dequantize ts
               | None -> ())
             terms;
           if Types.matches mode ~n_present:!n_present ~n_terms then begin
             let svr = Score_table.get_exn scores ~doc in
             let score =
               if with_ts then svr +. (t.cfg.Config.ts_weight *. !ts_sum)
               else svr
             in
             Result_heap.offer heap ~doc ~score
           end
         end)
   with Budget_stop -> ());
  if Qobs.Tr.is_on sp then
    Qobs.Tr.annotate sp "docs" (string_of_int !scanned);
  Qobs.Tr.pop sp;
  Result_heap.to_list heap

(* [gallop] distinguishes three cases: [Some g] pins the merge strategy (the
   historical manual knob); [None] defers to the configuration — [Manual]
   keeps the historical default (gallop where sound), [Auto] plans the query
   from the statistics catalog. *)
let query_terms t ?(mode = Types.Conjunctive) ?gallop ?budget terms ~k =
  (* (plan, executor) of the planned dispatch, for metrics and the trace *)
  let planned = ref None in
  let dispatch () =
    (* shared for the whole merge: a query must never observe a term
       mid-swap, and the writer-preferring lock keeps a stream of queries
       from starving updates and maintenance steps *)
    Rw_lock.with_read t.lock (fun () ->
        let manual g =
          match t.impl with
          | I_id i -> Method_id.query i ~mode ~gallop:g ?budget terms ~k
          | I_score i -> Method_score.query i ~mode ~gallop:g ?budget terms ~k
          | I_st i ->
              Method_score_threshold.query i ~mode ~gallop:g ?budget terms ~k
          | I_chunk i -> Method_chunk.query i ~mode ~gallop:g ?budget terms ~k
          | I_cts i ->
              Method_chunk_termscore.query i ~mode ~gallop:g ?budget terms ~k
        in
        match (gallop, t.cfg.Config.planner) with
        | Some g, _ -> manual g
        | None, Config.Manual -> manual true
        | None, Config.Auto ->
            let stats =
              List.map
                (Planner.Catalog.stats_for t.catalog
                   ~short_count:(short_count_of t.impl))
                terms
            in
            let p =
              Planner.plan ~cfg:t.cfg ~cost:(St.Env.cost (env t)) ~mode
                ~early_term:(early_terminating t.kind)
                ~total_postings:(Planner.Catalog.total_postings t.catalog)
                stats
            in
            if p.Planner.p_table_scan then begin
              planned := Some (p, None);
              table_scan_locked t ?budget ~mode terms ~k
            end
            else begin
              let exec =
                Planner.Exec.create t.cfg p ~n_terms:(List.length terms)
              in
              planned := Some (p, Some exec);
              (* the caller-level gate stays permissive; the executor (and
                 each method's own soundness rules) decide per merge step *)
              match t.impl with
              | I_id i ->
                  Method_id.query i ~mode ~gallop:true ~exec ?budget terms ~k
              | I_score i ->
                  Method_score.query i ~mode ~gallop:true ~exec ?budget terms
                    ~k
              | I_st i ->
                  Method_score_threshold.query i ~mode ~gallop:true ~exec
                    ?budget terms ~k
              | I_chunk i ->
                  Method_chunk.query i ~mode ~gallop:true ~exec ?budget terms
                    ~k
              | I_cts i ->
                  Method_chunk_termscore.query i ~mode ~gallop:true ~exec
                    ?budget terms ~k
            end)
  in
  (* the calling domain's private counter cell: the delta across the dispatch
     is exactly this query's I/O, even with other domains querying *)
  let cell = St.Stats.cell (St.Env.stats (env t)) in
  let before = St.Stats.diff ~after:cell ~before:(St.Stats.zero ()) in
  let t0 = Svr_obs.Clock.now_ms () in
  let sp = Qobs.Tr.root "query" in
  if Qobs.Tr.is_on sp then begin
    Qobs.Tr.annotate sp "method" (kind_name t.kind);
    Qobs.Tr.annotate sp "terms" (String.concat "," terms);
    Qobs.Tr.annotate sp "k" (string_of_int k)
  end;
  Fun.protect
    ~finally:(fun () -> Qobs.Tr.pop sp)
    (fun () ->
      let out =
        match budget with
        | None -> dispatch ()
        | Some b ->
            (* arm here, on the executing domain: the baselines must come
               from the same private stats cell the merge will bill, and the
               domain-local slot is what the block-refill polls read *)
            Budget.arm b ~cell ~cost:(St.Env.cost (env t));
            Budget.with_current (Some b) dispatch
      in
      let d = St.Stats.diff ~after:cell ~before in
      if Qobs.Tr.is_on sp then begin
        Qobs.Tr.annotate sp "blocks" (string_of_int d.St.Stats.blocks_decoded);
        Qobs.Tr.annotate sp "skips" (string_of_int d.St.Stats.blocks_skipped);
        Qobs.Tr.annotate sp "codec" (Types.codec_name t.cfg.Config.codec);
        if d.St.Stats.upper_seeks > 0 then
          Qobs.Tr.annotate sp "ef-seeks"
            (string_of_int d.St.Stats.upper_seeks)
      end;
      (match !planned with
      | None -> ()
      | Some (p, exec_opt) ->
          let replans =
            match exec_opt with
            | Some e -> Planner.Exec.replans e
            | None -> 0
          in
          Qobs.plan_metrics t.obs p ~replans;
          if Qobs.Tr.is_on sp then begin
            Qobs.Tr.annotate sp "plan" (Planner.describe p);
            if replans > 0 then begin
              Qobs.Tr.annotate sp "replans" (string_of_int replans);
              match exec_opt with
              | Some e ->
                  List.iteri
                    (fun i msg ->
                      Qobs.Tr.annotate sp
                        (Printf.sprintf "replan-%d" (i + 1))
                        msg)
                    (Planner.Exec.narrative e)
              | None -> ()
            end
          end);
      (match budget with
      | Some b -> (
          match Budget.tripped b with
          | None -> ()
          | Some reason ->
              Qobs.degraded t.obs reason ~partial:(Budget.bound b <> None);
              if Qobs.Tr.is_on sp then begin
                Qobs.Tr.annotate sp "degraded" (Budget.reason_name reason);
                match Budget.bound b with
                | Some bound ->
                    Qobs.Tr.annotate sp "bound"
                      (Printf.sprintf "%.4f" bound)
                | None -> ()
              end)
      | None -> ());
      Qobs.query_metrics t.obs
        ~wall_ms:(Svr_obs.Clock.now_ms () -. t0)
        ~sim_ms:(St.Stats.simulated_ms ~cost:(St.Env.cost (env t)) d)
        ~blocks_decoded:d.St.Stats.blocks_decoded
        ~blocks_skipped:d.St.Stats.blocks_skipped;
      out)

let analyze t keywords =
  List.concat_map
    (fun kw -> Svr_text.Analyzer.analyze ~config:t.cfg.Config.analyzer kw)
    keywords
  |> List.sort_uniq String.compare

let query t ?(mode = Types.Conjunctive) ?gallop ?budget keywords ~k =
  query_terms t ~mode ?gallop ?budget (analyze t keywords) ~k

(* -- degraded-answer outcomes --------------------------------------------- *)

type outcome =
  | Complete of (int * float) list
  | Partial of {
      results : (int * float) list;
      bound : float;
      reason : Budget.reason;
    }
  | Timed_out of Budget.reason

let outcome_of budget results =
  match budget with
  | None -> Complete results
  | Some b -> (
      match Budget.tripped b with
      | None -> Complete results
      | Some reason -> (
          match Budget.bound b with
          | Some bound -> Partial { results; bound; reason }
          | None -> Timed_out reason))

let query_terms_outcome t ?mode ?gallop ?budget terms ~k =
  outcome_of budget (query_terms t ?mode ?gallop ?budget terms ~k)

let query_outcome t ?mode ?gallop ?budget keywords ~k =
  query_terms_outcome t ?mode ?gallop ?budget (analyze t keywords) ~k

(* Admission control's cost probe: estimate the simulated cost of answering
   [terms] from the statistics catalog without executing anything, using the
   same estimator the Auto planner runs. The cheaper merge strategy is the
   estimate — admission sheds on what the query would cost if executed
   well. *)
let estimate_cost_ms t terms =
  if terms = [] then 0.0
  else
    Rw_lock.with_read t.lock (fun () ->
        let stats =
          List.map
            (Planner.Catalog.stats_for t.catalog
               ~short_count:(short_count_of t.impl))
            terms
        in
        let p =
          Planner.plan ~cfg:t.cfg ~cost:(St.Env.cost (env t))
            ~mode:Types.Conjunctive ~early_term:(early_terminating t.kind)
            ~total_postings:(Planner.Catalog.total_postings t.catalog) stats
        in
        Float.min p.Planner.p_est_scan_ms p.Planner.p_est_gallop_ms)

let query_terms_batch t ?pool ?(mode = Types.Conjunctive) ?gallop batch ~k =
  let out = Array.make (Array.length batch) [] in
  let run i = out.(i) <- query_terms t ~mode ?gallop batch.(i) ~k in
  (match pool with
  | None -> Array.iteri (fun i _ -> run i) batch
  | Some pool -> Query_pool.map pool ~f:run (Array.length batch));
  out

let query_batch t ?pool ?(mode = Types.Conjunctive) ?gallop batch ~k =
  (* analyze serially (cheap, and the analyzer contract is per-domain);
     only the merge/scan work fans out *)
  query_terms_batch t ?pool ~mode ?gallop (Array.map (analyze t) batch) ~k

let long_list_bytes t =
  match t.impl with
  | I_id i -> Method_id.long_list_bytes i
  | I_score i -> Method_score.long_list_bytes i
  | I_st i -> Method_score_threshold.long_list_bytes i
  | I_chunk i -> Method_chunk.long_list_bytes i
  | I_cts i -> Method_chunk_termscore.long_list_bytes i

let short_list_postings t = Maintenance.short_postings t.maint

let should_maintain t = Maintenance.should_run t.maint

type maint_stats = {
  steps : int;
  terms_drained : int;
  postings_drained : int;
  swap_wait_ms : float;
}

let maintain ?steps t =
  let n_steps = ref 0 and terms = ref 0 and postings = ref 0 in
  let wait = ref 0.0 in
  let step () =
    let t0 = Svr_obs.Clock.now_ms () in
    Rw_lock.with_write t.lock (fun () ->
        let w = Svr_obs.Clock.now_ms () -. t0 in
        match step_locked t with
        | None -> false
        | Some (nt, np) ->
            incr n_steps;
            terms := !terms + nt;
            postings := !postings + np;
            wait := !wait +. w;
            Qobs.maint_step t.obs ~postings:np ~swap_wait_ms:w;
            true)
  in
  (match steps with
  | Some n ->
      let continue = ref true in
      for _ = 1 to n do
        if !continue then continue := step ()
      done
  | None -> while step () do () done);
  { steps = !n_steps; terms_drained = !terms; postings_drained = !postings;
    swap_wait_ms = !wait }

type rebuild_status = Rebuilt | Purged of int | Nothing_to_rebuild

let rebuild t =
  Rw_lock.with_write t.lock (fun () ->
      let status =
        match t.impl with
        | I_id i ->
            Method_id.rebuild i;
            Rebuilt
        | I_score i -> (
            (* the Score long list is maintained in place; only deleted
               documents' postings are left to purge. Surfacing the count
               replaces the old silent no-op that still checkpointed and
               reported success. *)
            match Method_score.rebuild i with
            | 0 -> Nothing_to_rebuild
            | n -> Purged n)
        | I_st i ->
            Method_score_threshold.rebuild i;
            Rebuilt
        | I_chunk i ->
            Method_chunk.rebuild i;
            Rebuilt
        | I_cts i ->
            Method_chunk_termscore.rebuild i;
            Rebuilt
      in
      (* the rebuilt short lists are empty: restart the round-robin *)
      Maintenance.reset t.maint;
      (* like build, a rebuild is unlogged bulk work: checkpoint so the
         compacted state is the new recovery baseline *)
      St.Env.checkpoint (env t);
      status)
