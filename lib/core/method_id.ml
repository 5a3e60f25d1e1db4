module St = Svr_storage

type t = {
  cfg : Config.t;
  with_ts : bool;
  env : St.Env.t;
  scores : Score_table.t;
  docs : Doc_store.t;
  dir : Term_dir.t;
  blobs : St.Blob_store.t;
  short : Short_list.t;
  catalog : Planner.Catalog.t option;
  depth : Svr_obs.Metrics.histogram; (* merge groups per query *)
}

let env t = t.env
let doc_store t = t.docs
let score_table t = t.scores

(* statistics-catalog hook: every site that rewrites a term's long list
   records its new shape (the WAL replays those sites, so the catalog is
   reproduced deterministically at recovery) *)
let record_long t term (arr : (int * int) array) =
  match t.catalog with
  | None -> ()
  | Some cat ->
      let postings = Array.length arr in
      let blocks, max_ts, mean_ts =
        Planner.long_stats_of_ts ~postings
          (Array.to_list (Array.map snd arr))
      in
      Planner.Catalog.set_long cat ~term ~postings ~blocks ~max_ts ~mean_ts

let encode_term t by_term term postings =
  let arr = Build_util.sort_by_doc postings in
  let blob =
    St.Blob_store.put t.blobs
      (Posting_codec.Id_codec.encode ~codec:t.cfg.Config.codec
         ~with_ts:t.with_ts arr)
  in
  Term_dir.set t.dir ~term { Term_dir.blob; meta = 0 };
  record_long t term arr;
  ignore by_term

let build ?env:env_opt ?catalog ~with_ts cfg ~corpus ~scores =
  Config.validate cfg;
  let env = match env_opt with Some e -> e | None -> St.Env.create () in
  let t =
    { cfg; with_ts; env;
      scores = Score_table.create env ~name:"score";
      docs = Doc_store.create env ~name:"content";
      dir = Term_dir.create env ~name:"dir";
      blobs = St.Env.blob_store env ~name:"long";
      short = Short_list.create env ~name:"short" Short_list.Id_rank;
      catalog;
      depth = Qobs.scan_depth (if with_ts then "ID-TermScore" else "ID") }
  in
  let by_term = Build_util.collect cfg t.docs t.scores ~corpus ~scores in
  Hashtbl.iter (fun term cell -> encode_term t by_term term !cell) by_term;
  t

(* A score update is a single Score-table write: the whole point of the ID
   method (and its weakness is paid at query time). *)
let score_update t ~doc score = Score_table.set t.scores ~doc ~score

let insert t ~doc text ~score =
  let tfs = Svr_text.Analyzer.term_frequencies ~config:t.cfg.Config.analyzer text in
  Doc_store.set t.docs ~doc tfs;
  Score_table.set t.scores ~doc ~score;
  List.iter
    (fun (term, ts) ->
      Short_list.put t.short ~term ~rank:0.0 ~doc ~op:Short_list.Add ~ts)
    (Build_util.quantized_ts tfs)

let delete t ~doc = Score_table.mark_deleted t.scores ~doc

let update_content t ~doc text =
  let old_terms = List.map fst (Doc_store.terms t.docs ~doc) in
  let tfs = Svr_text.Analyzer.term_frequencies ~config:t.cfg.Config.analyzer text in
  Doc_store.set t.docs ~doc tfs;
  let new_terms = List.map fst tfs in
  (* upsert semantics: an Add overwrites a stale REM marker and a REM
     overwrites a stale Add. Adds go in for every current term, not just new
     ones: in the doc-id merge a short posting shares its group with the long
     posting and its (fresh) term score wins, keeping ID-TermScore ranking
     exact when in-document frequencies change. *)
  List.iter
    (fun (term, ts) ->
      Short_list.put t.short ~term ~rank:0.0 ~doc ~op:Short_list.Add ~ts)
    (Build_util.quantized_ts tfs);
  List.iter
    (fun term ->
      if not (List.mem term new_terms) then
        Short_list.put t.short ~term ~rank:0.0 ~doc ~op:Short_list.Rem ~ts:0)
    old_terms

let term_cursors t terms =
  List.concat
    (List.mapi
       (fun term_idx term ->
         let short = Short_list.cursor t.short ~term ~term_idx in
         match Term_dir.find t.dir ~term with
         | None -> [ short ]
         | Some { Term_dir.blob; _ } ->
             let reader = St.Blob_store.reader t.blobs blob in
             [ Posting_codec.Id_codec.cursor ~codec:t.cfg.Config.codec
                 ~with_ts:t.with_ts ~term_idx reader;
               short ])
       terms)

let meth_name t = if t.with_ts then "ID-TermScore" else "ID"

(* [budget] makes the scan cancellable but never sets a degraded bound:
   doc-id order carries no score information, so a truncated ID scan can
   say nothing about the documents it skipped — the caller must surface a
   timeout, not a partial answer *)
let query t ?(mode = Types.Conjunctive) ?(gallop = true) ?exec ?budget terms
    ~k =
  let n_terms = List.length terms in
  if n_terms = 0 then []
  else begin
    let gallop = gallop && mode = Types.Conjunctive in
    let csp = Qobs.Tr.push "cursor-open" in
    let merger = Merge.create ~n_terms ?exec ?budget (term_cursors t terms) in
    Qobs.Tr.pop csp;
    let msp = Qobs.Tr.push "merge" in
    let heap = Result_heap.create ~k in
    let rec scan () =
      match Merge.next ~gallop merger with
      | None -> ()
      | Some g ->
          if
            Types.matches mode ~n_present:g.Merge.n_present ~n_terms
            && not (Score_table.is_deleted t.scores ~doc:g.Merge.g_doc)
          then begin
            let svr = Score_table.get_exn t.scores ~doc:g.Merge.g_doc in
            let score =
              if t.with_ts then svr +. (t.cfg.Config.ts_weight *. g.Merge.ts_sum)
              else svr
            in
            Result_heap.offer heap ~doc:g.Merge.g_doc ~score
          end;
          scan ()
    in
    scan ();
    Qobs.finish_merge ~depth:t.depth ~merger ~span:msp ~stop:(fun () ->
        Printf.sprintf
          "no early termination: %s lists are doc-id ordered, so every \
           candidate's exact score must be probed — scanned all %d groups"
          (meth_name t) (Merge.groups_emitted merger));
    Merge.recycle merger;
    Result_heap.to_list heap
  end

let long_list_bytes t = St.Blob_store.live_bytes t.blobs
let short_list_postings t = Short_list.count t.short
let short_next_term t ~after = Short_list.next_term t.short ~after
let short_term_count t ~term = Short_list.term_count t.short ~term

(* Online compaction: fold one term's short postings into its doc-id-ordered
   long blob. An Add inserts the doc or refreshes its term score; a Rem
   removes it. No list-state bookkeeping exists for the ID methods, so the
   swap is query-invisible by construction. *)
let compact_term t term =
  let shorts = Short_list.term_postings t.short ~term in
  if shorts = [] then 0
  else begin
    let adds : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let rems : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (p : Short_list.posting) ->
        match p.Short_list.op with
        | Short_list.Add -> Hashtbl.replace adds p.Short_list.doc p.Short_list.ts
        | Short_list.Rem -> Hashtbl.replace rems p.Short_list.doc ())
      shorts;
    let old_entry = Term_dir.find t.dir ~term in
    let keep = ref [] in
    (match old_entry with
    | None -> ()
    | Some { Term_dir.blob; _ } ->
        let c =
          Posting_codec.Id_codec.cursor ~codec:t.cfg.Config.codec
            ~with_ts:t.with_ts ~term_idx:0
            (St.Blob_store.reader t.blobs blob)
        in
        while not (Posting_cursor.eof c) do
          let doc = Posting_cursor.doc c in
          if not (Hashtbl.mem adds doc || Hashtbl.mem rems doc) then
            keep := (doc, Posting_cursor.ts c) :: !keep;
          Posting_cursor.advance c
        done);
    Hashtbl.iter (fun doc ts -> keep := (doc, ts) :: !keep) adds;
    let arr = Array.of_list !keep in
    Array.sort (fun (d1, _) (d2, _) -> compare d1 d2) arr;
    (* the re-encode replaces the old blob in place when it fits its page
       run, so steady-state compaction stops leaking pages *)
    let replacing =
      match old_entry with Some { Term_dir.blob; _ } -> Some blob | None -> None
    in
    (if Array.length arr = 0 then begin
       Term_dir.remove t.dir ~term;
       match replacing with
       | Some blob -> St.Blob_store.free t.blobs blob
       | None -> ()
     end
     else
       let blob =
         St.Blob_store.put ?replacing t.blobs
           (Posting_codec.Id_codec.encode ~codec:t.cfg.Config.codec
              ~with_ts:t.with_ts arr)
       in
       Term_dir.set t.dir ~term { Term_dir.blob; meta = 0 });
    record_long t term arr;
    Short_list.drop_term t.short ~term
  end

let compact_terms t terms =
  List.fold_left (fun n term -> n + compact_term t term) 0 terms

let rebuild t =
  (* drop deleted docs for real, then re-encode every term from the forward
     index; old blobs are freed (their pages are reclaimed only by copying
     into a fresh store, which the simulation does not need) *)
  let deleted = ref [] in
  Score_table.iter t.scores (fun ~doc ~score:_ ~deleted:d ->
      if d then deleted := doc :: !deleted);
  List.iter
    (fun doc ->
      Doc_store.remove t.docs ~doc;
      Score_table.remove t.scores ~doc)
    !deleted;
  let by_term = Hashtbl.create 4096 in
  Doc_store.iter_docs t.docs (fun ~doc tfs ->
      List.iter
        (fun (term, ts) ->
          let cell =
            match Hashtbl.find_opt by_term term with
            | Some c -> c
            | None ->
                let c = ref [] in
                Hashtbl.add by_term term c;
                c
          in
          cell := (doc, ts) :: !cell)
        (Build_util.quantized_ts tfs));
  let old = ref [] in
  Term_dir.iter t.dir (fun ~term entry -> old := (term, entry) :: !old);
  List.iter
    (fun (term, { Term_dir.blob; _ }) ->
      St.Blob_store.free t.blobs blob;
      Term_dir.remove t.dir ~term)
    !old;
  (* terms that vanish with their deleted docs must leave the catalog too *)
  (match t.catalog with Some cat -> Planner.Catalog.clear cat | None -> ());
  Hashtbl.iter (fun term cell -> encode_term t by_term term !cell) by_term;
  Short_list.clear t.short
