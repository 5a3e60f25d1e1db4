module St = Svr_storage
module Cs = List_state.Chunk_state

type t = {
  cfg : Config.t;
  with_ts : bool;
  env : St.Env.t;
  scores : Score_table.t;
  docs : Doc_store.t;
  dir : Term_dir.t;
  blobs : St.Blob_store.t;
  short : Short_list.t;
  cstate : Cs.t;
  mutable policy : Chunk_policy.t;
  catalog : Planner.Catalog.t option;
  depth : Svr_obs.Metrics.histogram; (* merge groups per query *)
}

let record_long t term postings =
  match t.catalog with
  | None -> ()
  | Some cat ->
      let n = List.length postings in
      let blocks, max_ts, mean_ts =
        Planner.long_stats_of_ts ~postings:n (List.map snd postings)
      in
      Planner.Catalog.set_long cat ~term ~postings:n ~blocks ~max_ts ~mean_ts

let encode_term t term postings current_score =
  (* group by chunk id, descending; ascending doc ids inside a chunk *)
  let with_cid =
    List.map
      (fun (doc, ts) -> (Chunk_policy.chunk_of t.policy (current_score doc), doc, ts))
      postings
  in
  let sorted =
    List.sort
      (fun (c1, d1, _) (c2, d2, _) ->
        match compare c2 c1 with 0 -> compare d1 d2 | c -> c)
      with_cid
  in
  let groups = ref [] and cur_cid = ref (-1) and cur = ref [] in
  let flush () =
    if !cur <> [] then groups := (!cur_cid, Array.of_list (List.rev !cur)) :: !groups;
    cur := []
  in
  List.iter
    (fun (cid, doc, ts) ->
      if cid <> !cur_cid then begin
        flush ();
        cur_cid := cid
      end;
      cur := (doc, ts) :: !cur)
    sorted;
  flush ();
  let payload =
    Posting_codec.Chunk_codec.encode ~codec:t.cfg.Config.codec
      ~with_ts:t.with_ts
      (Array.of_list (List.rev !groups))
  in
  Term_dir.set t.dir ~term { Term_dir.blob = St.Blob_store.put t.blobs payload; meta = 0 };
  record_long t term postings

let build ?env:env_opt ?catalog ?policy_of_scores ~with_ts cfg ~corpus ~scores =
  Config.validate cfg;
  let env = match env_opt with Some e -> e | None -> St.Env.create () in
  let t =
    { cfg; with_ts; env;
      scores = Score_table.create env ~name:"score";
      docs = Doc_store.create env ~name:"content";
      dir = Term_dir.create env ~name:"dir";
      blobs = St.Env.blob_store env ~name:"long";
      short = Short_list.create env ~name:"short" Short_list.Chunk_rank;
      cstate = Cs.create env ~name:"listchunk";
      policy = Chunk_policy.ratio_based ~ratio:2.0 ~min_docs:1 [| 1.0 |];
      catalog;
      depth = Qobs.scan_depth (if with_ts then "Chunk-TermScore" else "Chunk") }
  in
  let by_term = Build_util.collect cfg t.docs t.scores ~corpus ~scores in
  let sample = ref [] in
  Score_table.iter t.scores (fun ~doc:_ ~score ~deleted:_ -> sample := score :: !sample);
  let sample =
    match !sample with [] -> [| 0.0 |] | l -> Array.of_list l
  in
  t.policy <-
    (match policy_of_scores with
    | Some f -> f sample
    | None ->
        Chunk_policy.ratio_based ~ratio:cfg.Config.chunk_ratio
          ~min_docs:cfg.Config.min_chunk_docs sample);
  Hashtbl.iter (fun term cell -> encode_term t term !cell scores) by_term;
  t

(* Algorithm 1 with thresholdValueOf c = c + 1 *)
let score_update t ~doc new_score =
  let old_score = Score_table.get_exn t.scores ~doc in
  Score_table.set t.scores ~doc ~score:new_score;
  let lchunk, in_short =
    match Cs.find t.cstate ~doc with
    | Some e -> (e.Cs.lchunk, e.Cs.in_short)
    | None ->
        let lc = Chunk_policy.chunk_of t.policy old_score in
        Cs.set t.cstate ~doc { Cs.lchunk = lc; in_short = false };
        (lc, false)
  in
  ignore in_short;
  let new_chunk = Chunk_policy.chunk_of t.policy new_score in
  if new_chunk > lchunk + 1 then begin
    let content = Build_util.quantized_ts (Doc_store.terms t.docs ~doc) in
    (* drop the document's short postings at its old list chunk
       unconditionally: when in_short these are its moved postings, otherwise
       they are content-update Add markers that would keep the old-chunk merge
       group looking authoritative after the move *)
    List.iter
      (fun (term, _) ->
        Short_list.delete t.short ~term ~rank:(float_of_int lchunk) ~doc)
      content;
    List.iter
      (fun (term, ts) ->
        Short_list.put t.short ~term ~rank:(float_of_int new_chunk) ~doc
          ~op:Short_list.Add ~ts)
      content;
    Cs.set t.cstate ~doc { Cs.lchunk = new_chunk; in_short = true }
  end

let insert t ~doc text ~score =
  let tfs = Svr_text.Analyzer.term_frequencies ~config:t.cfg.Config.analyzer text in
  Doc_store.set t.docs ~doc tfs;
  Score_table.set t.scores ~doc ~score;
  let cid = Chunk_policy.chunk_of t.policy score in
  List.iter
    (fun (term, ts) ->
      Short_list.put t.short ~term ~rank:(float_of_int cid) ~doc ~op:Short_list.Add
        ~ts)
    (Build_util.quantized_ts tfs);
  Cs.set t.cstate ~doc { Cs.lchunk = cid; in_short = true }

let delete t ~doc = Score_table.mark_deleted t.scores ~doc

let list_chunk t ~doc =
  match Cs.find t.cstate ~doc with
  | Some e -> e.Cs.lchunk
  | None -> Chunk_policy.chunk_of t.policy (Score_table.get_exn t.scores ~doc)

let update_content t ~doc text =
  let rank = float_of_int (list_chunk t ~doc) in
  let old_terms = List.map fst (Doc_store.terms t.docs ~doc) in
  let tfs = Svr_text.Analyzer.term_frequencies ~config:t.cfg.Config.analyzer text in
  Doc_store.set t.docs ~doc tfs;
  let new_terms = List.map fst tfs in
  List.iter
    (fun (term, ts) ->
      if not (List.mem term old_terms) then
        Short_list.put t.short ~term ~rank ~doc ~op:Short_list.Add ~ts)
    (Build_util.quantized_ts tfs);
  List.iter
    (fun term ->
      if not (List.mem term new_terms) then
        Short_list.put t.short ~term ~rank ~doc ~op:Short_list.Rem ~ts:0)
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
             [ Posting_codec.Chunk_codec.cursor ~codec:t.cfg.Config.codec
                 ~with_ts:t.with_ts ~term_idx reader;
               short ])
       terms)

let process_candidate t mode ~n_terms (g : Merge.group) heap =
  let doc = g.Merge.g_doc in
  if
    Types.matches mode ~n_present:g.Merge.n_present ~n_terms
    && not (Score_table.is_deleted t.scores ~doc)
  then begin
    let offer () =
      (* chunk lists carry no scores: always probe the (cached) Score table *)
      let svr = Score_table.get_exn t.scores ~doc in
      let score =
        if t.with_ts then svr +. (t.cfg.Config.ts_weight *. g.Merge.ts_sum) else svr
      in
      Result_heap.offer heap ~doc ~score
    in
    if g.Merge.any_short then offer ()
    else
      match Cs.find t.cstate ~doc with
      | Some { Cs.in_short = true; lchunk } ->
          (* every short posting sits at the document's current list chunk,
             so postings drained by online compaction re-enter the long list
             at exactly that chunk: a long-only group is authoritative iff
             its chunk matches, and stale at any other (older) chunk *)
          if lchunk = int_of_float g.Merge.g_rank then offer ()
      | Some { Cs.in_short = false; _ } | None -> offer ()
  end

let long_list_bytes t = St.Blob_store.live_bytes t.blobs
let short_list_postings t = Short_list.count t.short

(* -- online compaction ----------------------------------------------------

   Drain one term's short postings into its long blob. Adds carry the doc's
   current list chunk (see the invariant in [process_candidate]); the merged
   blob places each added doc at that chunk and drops the doc's other-chunk
   long postings, which the query already treated as stale. Rem markers
   remove the doc from the list outright. [in_short] flags are left alone —
   after the swap the chunk-equality rule makes the drained postings
   authoritative again. *)

let compact_term ?on_drained t term =
  let shorts = Short_list.term_postings t.short ~term in
  if shorts = [] then 0
  else begin
    let adds : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
    let rems : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let max_add_ts = ref 0 in
    List.iter
      (fun (p : Short_list.posting) ->
        match p.Short_list.op with
        | Short_list.Add ->
            Hashtbl.replace adds p.Short_list.doc
              (int_of_float p.Short_list.rank, p.Short_list.ts);
            if p.Short_list.ts > !max_add_ts then max_add_ts := p.Short_list.ts
        | Short_list.Rem -> Hashtbl.replace rems p.Short_list.doc ())
      shorts;
    let old_entry = Term_dir.find t.dir ~term in
    let keep = ref [] in
    (match old_entry with
    | None -> ()
    | Some { Term_dir.blob; _ } ->
        let c =
          Posting_codec.Chunk_codec.cursor ~codec:t.cfg.Config.codec
            ~with_ts:t.with_ts ~term_idx:0
            (St.Blob_store.reader t.blobs blob)
        in
        while not (Posting_cursor.eof c) do
          let doc = Posting_cursor.doc c in
          (* a doc with any short marker is rewritten (Add) or removed (Rem);
             either way its old long postings are dropped *)
          if not (Hashtbl.mem adds doc || Hashtbl.mem rems doc) then
            keep :=
              (int_of_float (Posting_cursor.rank c), doc, Posting_cursor.ts c)
              :: !keep;
          Posting_cursor.advance c
        done);
    Hashtbl.iter (fun doc (cid, ts) -> keep := (cid, doc, ts) :: !keep) adds;
    let merged =
      List.sort
        (fun (c1, d1, _) (c2, d2, _) ->
          match compare c2 c1 with 0 -> compare d1 d2 | c -> c)
        !keep
    in
    (* regroup for the codec: descending chunk ids, non-empty groups *)
    let groups = ref [] and cur_cid = ref (-1) and cur = ref [] in
    let flush () =
      if !cur <> [] then
        groups := (!cur_cid, Array.of_list (List.rev !cur)) :: !groups;
      cur := []
    in
    List.iter
      (fun (cid, doc, ts) ->
        if cid <> !cur_cid then begin
          flush ();
          cur_cid := cid
        end;
        cur := (doc, ts) :: !cur)
      merged;
    flush ();
    let groups = Array.of_list (List.rev !groups) in
    (* re-encode replaces the old blob's page run in place when it fits *)
    let replacing =
      match old_entry with Some { Term_dir.blob; _ } -> Some blob | None -> None
    in
    (if Array.length groups = 0 then begin
       Term_dir.remove t.dir ~term;
       match replacing with
       | Some blob -> St.Blob_store.free t.blobs blob
       | None -> ()
     end
     else
       let payload =
         Posting_codec.Chunk_codec.encode ~codec:t.cfg.Config.codec
           ~with_ts:t.with_ts groups
       in
       Term_dir.set t.dir ~term
         { Term_dir.blob = St.Blob_store.put ?replacing t.blobs payload;
           meta = 0 });
    record_long t term (List.map (fun (_, doc, ts) -> (doc, ts)) merged);
    let drained = Short_list.drop_term t.short ~term in
    (match on_drained with
    | Some f -> f ~term ~max_add_ts:!max_add_ts
    | None -> ());
    drained
  end

let compact_terms ?on_drained t terms =
  List.fold_left (fun n term -> n + compact_term ?on_drained t term) 0 terms

let rebuild t =
  let deleted = ref [] in
  Score_table.iter t.scores (fun ~doc ~score:_ ~deleted:d ->
      if d then deleted := doc :: !deleted);
  List.iter
    (fun doc ->
      Doc_store.remove t.docs ~doc;
      Score_table.remove t.scores ~doc)
    !deleted;
  let by_term = Hashtbl.create 4096 in
  let sample = ref [] in
  Doc_store.iter_docs t.docs (fun ~doc tfs ->
      sample := Score_table.get_exn t.scores ~doc :: !sample;
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
  t.policy <-
    Chunk_policy.ratio_based ~ratio:t.cfg.Config.chunk_ratio
      ~min_docs:t.cfg.Config.min_chunk_docs
      (match !sample with [] -> [| 0.0 |] | l -> Array.of_list l);
  let old = ref [] in
  Term_dir.iter t.dir (fun ~term entry -> old := (term, entry) :: !old);
  List.iter
    (fun (term, { Term_dir.blob; _ }) ->
      St.Blob_store.free t.blobs blob;
      Term_dir.remove t.dir ~term)
    !old;
  (match t.catalog with Some cat -> Planner.Catalog.clear cat | None -> ());
  Hashtbl.iter
    (fun term cell ->
      encode_term t term !cell (fun doc -> Score_table.get_exn t.scores ~doc))
    by_term;
  Short_list.clear t.short;
  Cs.clear t.cstate;
  by_term
