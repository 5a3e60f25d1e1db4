module St = Svr_storage
module Ss = List_state.Score_state

type t = {
  cfg : Config.t;
  env : St.Env.t;
  scores : Score_table.t;
  docs : Doc_store.t;
  dir : Term_dir.t;
  blobs : St.Blob_store.t;
  short : Short_list.t;
  lstate : Ss.t;
  catalog : Planner.Catalog.t option;
  depth : Svr_obs.Metrics.histogram; (* merge groups per query *)
}

let env t = t.env
let doc_store t = t.docs
let score_table t = t.scores
let threshold_value_of t s = t.cfg.Config.threshold_ratio *. s

(* score-ordered lists carry no term scores: only shape stats are kept *)
let record_long t term ~postings =
  match t.catalog with
  | None -> ()
  | Some cat ->
      let blocks, max_ts, mean_ts = Planner.long_stats_of_ts ~postings [] in
      Planner.Catalog.set_long cat ~term ~postings ~blocks ~max_ts ~mean_ts

let encode_term t term postings current_score =
  (* (score desc, doc asc) with the score replicated in every posting - the
     size cost the Chunk method exists to avoid *)
  let arr =
    Array.of_list (List.map (fun (doc, _ts) -> (current_score doc, doc)) postings)
  in
  Array.sort
    (fun (s1, d1) (s2, d2) ->
      match Float.compare s2 s1 with 0 -> compare d1 d2 | c -> c)
    arr;
  let blob = St.Blob_store.put t.blobs (Posting_codec.Score_codec.encode arr) in
  Term_dir.set t.dir ~term { Term_dir.blob; meta = 0 };
  record_long t term ~postings:(Array.length arr)

let build ?env:env_opt ?catalog cfg ~corpus ~scores =
  Config.validate cfg;
  let env = match env_opt with Some e -> e | None -> St.Env.create () in
  let t =
    { cfg; env;
      scores = Score_table.create env ~name:"score";
      docs = Doc_store.create env ~name:"content";
      dir = Term_dir.create env ~name:"dir";
      blobs = St.Env.blob_store env ~name:"long";
      short = Short_list.create env ~name:"short" Short_list.Score_rank;
      lstate = Ss.create env ~name:"listscore";
      catalog; depth = Qobs.scan_depth "Score-Threshold" }
  in
  let by_term = Build_util.collect cfg t.docs t.scores ~corpus ~scores in
  Hashtbl.iter (fun term cell -> encode_term t term !cell scores) by_term;
  t

(* Algorithm 1 *)
let score_update t ~doc new_score =
  let old_score = Score_table.get_exn t.scores ~doc in
  Score_table.set t.scores ~doc ~score:new_score;
  let lscore, in_short =
    match Ss.find t.lstate ~doc with
    | Some e -> (e.Ss.lscore, e.Ss.in_short)
    | None ->
        (* first update: the list score is the original score (Lemma 1.1) *)
        Ss.set t.lstate ~doc { Ss.lscore = old_score; in_short = false };
        (old_score, false)
  in
  ignore in_short;
  if new_score > threshold_value_of t lscore then begin
    let content = Build_util.quantized_ts (Doc_store.terms t.docs ~doc) in
    (* drop the document's short postings at its old list score
       unconditionally: when in_short these are its moved postings, otherwise
       they are content-update Add markers that would keep the old-rank merge
       group looking authoritative after the move *)
    List.iter
      (fun (term, _) -> Short_list.delete t.short ~term ~rank:lscore ~doc)
      content;
    List.iter
      (fun (term, ts) ->
        Short_list.put t.short ~term ~rank:new_score ~doc ~op:Short_list.Add ~ts)
      content;
    Ss.set t.lstate ~doc { Ss.lscore = new_score; in_short = true }
  end

let insert t ~doc text ~score =
  let tfs = Svr_text.Analyzer.term_frequencies ~config:t.cfg.Config.analyzer text in
  Doc_store.set t.docs ~doc tfs;
  Score_table.set t.scores ~doc ~score;
  List.iter
    (fun (term, ts) ->
      Short_list.put t.short ~term ~rank:score ~doc ~op:Short_list.Add ~ts)
    (Build_util.quantized_ts tfs);
  Ss.set t.lstate ~doc { Ss.lscore = score; in_short = true }

let delete t ~doc = Score_table.mark_deleted t.scores ~doc

let list_score t ~doc =
  match Ss.find t.lstate ~doc with
  | Some e -> e.Ss.lscore
  | None -> Score_table.get_exn t.scores ~doc

let update_content t ~doc text =
  let rank = list_score t ~doc in
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
             [ Posting_codec.Score_codec.cursor ~term_idx reader; short ])
       terms)

(* Algorithm 2 *)
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
          (* early termination: every upcoming document's current score is at
             most thresholdValueOf of its (non-increasing) list score *)
          if
            Result_heap.is_full heap
            && threshold_value_of t g.Merge.g_rank < Result_heap.min_score heap
          then begin
            if Qobs.Tr.is_on msp then
              Qobs.Tr.annotate msp "stop"
                (Printf.sprintf
                   "stopped at listScore %.4f because \
                    thresholdValueOf(listScore) = %.4f < heap min %.4f \
                    (Algorithm 2)"
                   g.Merge.g_rank
                   (threshold_value_of t g.Merge.g_rank)
                   (Result_heap.min_score heap))
          end
          else begin
            let doc = g.Merge.g_doc in
            if
              Types.matches mode ~n_present:g.Merge.n_present ~n_terms
              && not (Score_table.is_deleted t.scores ~doc)
            then begin
              if g.Merge.any_short then
                Result_heap.offer heap ~doc ~score:(Score_table.get_exn t.scores ~doc)
              else begin
                match Ss.find t.lstate ~doc with
                | Some { Ss.in_short = true; lscore } ->
                    (* short postings always sit at the current list score, so
                       online compaction re-enters drained postings at exactly
                       that score: a long-only group is authoritative iff its
                       score matches, stale at any other (lower) score. The
                       comparison is bit-exact — both sides round-trip the
                       same float through the codecs unchanged. *)
                    if lscore = g.Merge.g_rank then
                      Result_heap.offer heap ~doc
                        ~score:(Score_table.get_exn t.scores ~doc)
                | Some { Ss.in_short = false; _ } ->
                    Result_heap.offer heap ~doc
                      ~score:(Score_table.get_exn t.scores ~doc)
                | None ->
                    (* never updated: the list score is exact *)
                    Result_heap.offer heap ~doc ~score:g.Merge.g_rank
              end
            end;
            scan ()
          end
    in
    scan ();
    (* degraded answer: every unexamined position has list score <=
       bound_rank, so (Lemma 1.2) every unexamined document's current score
       is at most thresholdValueOf(bound_rank) — the live Algorithm 2
       threshold at the moment the budget stopped the scan *)
    (match budget with
    | Some b when Budget.is_tripped b ->
        let bound = threshold_value_of t (Merge.bound_rank merger) in
        Budget.set_bound b bound;
        if Qobs.Tr.is_on msp then
          Qobs.Tr.annotate msp "stop"
            (Printf.sprintf
               "budget tripped (%s) after %d groups: anytime answer, every \
                unexamined document scores at most thresholdValueOf(listScore) \
                = %.4f"
               (Budget.reason_name (Option.get (Budget.tripped b)))
               (Merge.groups_emitted merger) bound)
    | _ -> ());
    Qobs.finish_merge ~depth:t.depth ~merger ~span:msp
      ~stop:(fun () ->
        Printf.sprintf
          "exhausted the list-score-ordered list after %d groups: \
           thresholdValueOf never undercut the heap min"
          (Merge.groups_emitted merger));
    Merge.recycle merger;
    Result_heap.to_list heap
  end

let long_list_bytes t = St.Blob_store.live_bytes t.blobs
let short_list_postings t = Short_list.count t.short
let short_next_term t ~after = Short_list.next_term t.short ~after
let short_term_count t ~term = Short_list.term_count t.short ~term

(* Online compaction: drain one term's short postings into its long blob.
   Adds re-enter at their short rank — the doc's current list score — and the
   doc's postings at any other score are dropped (the query already treated
   them as stale); Rems remove the doc. [lstate] is untouched: the
   score-equality rule in [query] keeps drained postings authoritative. *)
let compact_term t term =
  let shorts = Short_list.term_postings t.short ~term in
  if shorts = [] then 0
  else begin
    let adds : (int, float) Hashtbl.t = Hashtbl.create 64 in
    let rems : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (p : Short_list.posting) ->
        match p.Short_list.op with
        | Short_list.Add -> Hashtbl.replace adds p.Short_list.doc p.Short_list.rank
        | Short_list.Rem -> Hashtbl.replace rems p.Short_list.doc ())
      shorts;
    let old_entry = Term_dir.find t.dir ~term in
    let keep = ref [] in
    (match old_entry with
    | None -> ()
    | Some { Term_dir.blob; _ } ->
        let c =
          Posting_codec.Score_codec.cursor ~term_idx:0
            (St.Blob_store.reader t.blobs blob)
        in
        while not (Posting_cursor.eof c) do
          let doc = Posting_cursor.doc c in
          if not (Hashtbl.mem adds doc || Hashtbl.mem rems doc) then
            keep := (Posting_cursor.rank c, doc) :: !keep;
          Posting_cursor.advance c
        done);
    Hashtbl.iter (fun doc rank -> keep := (rank, doc) :: !keep) adds;
    let arr = Array.of_list !keep in
    Array.sort
      (fun (s1, d1) (s2, d2) ->
        match Float.compare s2 s1 with 0 -> compare d1 d2 | c -> c)
      arr;
    (if Array.length arr = 0 then Term_dir.remove t.dir ~term
     else
       let blob = St.Blob_store.put t.blobs (Posting_codec.Score_codec.encode arr) in
       Term_dir.set t.dir ~term { Term_dir.blob; meta = 0 });
    record_long t term ~postings:(Array.length arr);
    (match old_entry with
    | Some { Term_dir.blob; _ } -> St.Blob_store.free t.blobs blob
    | None -> ());
    Short_list.drop_term t.short ~term
  end

let compact_terms t terms =
  List.fold_left (fun n term -> n + compact_term t term) 0 terms

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
  (match t.catalog with Some cat -> Planner.Catalog.clear cat | None -> ());
  Hashtbl.iter
    (fun term cell ->
      encode_term t term !cell (fun doc -> Score_table.get_exn t.scores ~doc))
    by_term;
  Short_list.clear t.short;
  Ss.clear t.lstate
