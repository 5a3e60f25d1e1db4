module St = Svr_storage

type t = {
  cfg : Config.t;
  env : St.Env.t;
  scores : Score_table.t;
  docs : Doc_store.t;
  list : St.Btree.t; (* cold device: far larger than the cache *)
  catalog : Planner.Catalog.t option;
  depth : Svr_obs.Metrics.histogram; (* merge groups per query *)
}

let env t = t.env
let doc_store t = t.docs
let score_table t = t.scores

let posting_key term score doc =
  St.Order_key.compose
    [ (fun b -> St.Order_key.term b term);
      (fun b -> St.Order_key.f64_desc b score);
      (fun b -> St.Order_key.u32 b doc) ]

(* the long list is a B+-tree mutated in place, so the catalog tracks it by
   posting-count deltas at exactly the insert/delete sites the WAL replays *)
let bump t term delta =
  match t.catalog with
  | None -> ()
  | Some cat -> Planner.Catalog.bump_long cat ~term delta

let build ?env:env_opt ?catalog cfg ~corpus ~scores =
  Config.validate cfg;
  let env = match env_opt with Some e -> e | None -> St.Env.create () in
  let t =
    { cfg; env;
      scores = Score_table.create env ~name:"score";
      docs = Doc_store.create env ~name:"content";
      list = St.Env.cold_btree env ~name:"long";
      catalog; depth = Qobs.scan_depth "Score" }
  in
  let by_term = Build_util.collect cfg t.docs t.scores ~corpus ~scores in
  Hashtbl.iter
    (fun term cell ->
      List.iter
        (fun (doc, _ts) -> St.Btree.insert t.list (posting_key term (scores doc) doc) "")
        !cell;
      bump t term (List.length !cell))
    by_term;
  t

(* The expensive path the paper measures at ~17 s per update: one delete and
   one insert against the big cold B+-tree for every distinct term. *)
let score_update t ~doc new_score =
  let old_score = Score_table.get_exn t.scores ~doc in
  Score_table.set t.scores ~doc ~score:new_score;
  List.iter
    (fun (term, _tf) ->
      ignore (St.Btree.delete t.list (posting_key term old_score doc));
      St.Btree.insert t.list (posting_key term new_score doc) "")
    (Doc_store.terms t.docs ~doc)

let insert t ~doc text ~score =
  let tfs = Svr_text.Analyzer.term_frequencies ~config:t.cfg.Config.analyzer text in
  Doc_store.set t.docs ~doc tfs;
  Score_table.set t.scores ~doc ~score;
  List.iter
    (fun (term, _) ->
      St.Btree.insert t.list (posting_key term score doc) "";
      bump t term 1)
    tfs

let delete t ~doc = Score_table.mark_deleted t.scores ~doc

let update_content t ~doc text =
  let score = Score_table.get_exn t.scores ~doc in
  let old_terms = List.map fst (Doc_store.terms t.docs ~doc) in
  let tfs = Svr_text.Analyzer.term_frequencies ~config:t.cfg.Config.analyzer text in
  Doc_store.set t.docs ~doc tfs;
  let new_terms = List.map fst tfs in
  List.iter
    (fun term ->
      if not (List.mem term old_terms) then begin
        St.Btree.insert t.list (posting_key term score doc) "";
        bump t term 1
      end)
    new_terms;
  List.iter
    (fun term ->
      if not (List.mem term new_terms) then
        if St.Btree.delete t.list (posting_key term score doc) then
          bump t term (-1))
    old_terms

let term_cursor t ~term_idx term =
  let module Pc = Posting_cursor in
  let prefix = St.Order_key.compose [ (fun b -> St.Order_key.term b term) ] in
  let plen = String.length prefix in
  let bcur = ref (St.Btree.seek t.list prefix) in
  let refill c =
    match St.Btree.cursor_next !bcur with
    | Some (k, _v) when String.starts_with ~prefix k ->
        c.Pc.ranks.(0) <- St.Order_key.get_f64_desc k plen;
        c.Pc.docs.(0) <- St.Order_key.get_u32 k (plen + 8);
        c.Pc.i <- 0;
        c.Pc.n <- 1
    | _ -> c.Pc.n <- 0
  in
  let seek c r d =
    (* re-descend the cold tree straight to the target key *)
    bcur := St.Btree.seek t.list (posting_key term r d);
    refill c
  in
  let c =
    { Pc.term_idx; long = true; ranks = Array.make 1 0.0;
      docs = Array.make 1 0; tss = Pc.zero_tss; rems = Pc.no_rems; n = 0;
      i = 0; refill; seek; bufs = None }
  in
  refill c;
  c

let query t ?(mode = Types.Conjunctive) ?(gallop = true) ?exec ?budget terms
    ~k =
  let n_terms = List.length terms in
  if n_terms = 0 then []
  else begin
    let gallop = gallop && mode = Types.Conjunctive in
    let csp = Qobs.Tr.push "cursor-open" in
    let cursors = List.mapi (fun i term -> term_cursor t ~term_idx:i term) terms in
    let merger = Merge.create ~n_terms ?exec ?budget cursors in
    Qobs.Tr.pop csp;
    let msp = Qobs.Tr.push "merge" in
    let heap = Result_heap.create ~k in
    (* candidates arrive in exact (score desc, doc asc) order, so the scan can
       stop the moment the heap is full *)
    let rec scan () =
      if not (Result_heap.is_full heap) then
        match Merge.next ~gallop merger with
        | None -> ()
        | Some g ->
            if
              Types.matches mode ~n_present:g.Merge.n_present ~n_terms
              && not (Score_table.is_deleted t.scores ~doc:g.Merge.g_doc)
            then Result_heap.offer heap ~doc:g.Merge.g_doc ~score:g.Merge.g_rank;
            scan ()
    in
    scan ();
    (* degraded answer: the list is in exact (score desc) order and scores
       are maintained in place, so the last examined rank bounds every
       unexamined candidate's true score directly *)
    (match budget with
    | Some b when Budget.is_tripped b ->
        let bound = Merge.bound_rank merger in
        Budget.set_bound b bound;
        if Qobs.Tr.is_on msp then
          Qobs.Tr.annotate msp "stop"
            (Printf.sprintf
               "budget tripped (%s) after %d groups: anytime answer, every \
                unexamined document scores at most the last examined rank \
                %.4f"
               (Budget.reason_name (Option.get (Budget.tripped b)))
               (Merge.groups_emitted merger) bound)
    | _ -> ());
    Qobs.finish_merge ~depth:t.depth ~merger ~span:msp ~stop:(fun () ->
        if Result_heap.is_full heap then
          Printf.sprintf
            "stopped after %d groups because the heap filled at min %.4f: \
             the score-ordered list guarantees no later candidate beats it"
            (Merge.groups_emitted merger)
            (Result_heap.min_score heap)
        else
          Printf.sprintf
            "exhausted the score-ordered list after %d groups with the heap \
             still short of k"
            (Merge.groups_emitted merger));
    Merge.recycle merger;
    Result_heap.to_list heap
  end

let long_list_bytes t =
  St.Env.device_size t.env ~name:"long"

(* The Score method's long list is updated in place, so there are no short
   lists to fold back in; the only rebuildable state is the postings of
   deleted documents, which [delete] merely marks. Returns how many deleted
   documents were purged — 0 means the rebuild had nothing to do. *)
let rebuild t =
  let deleted = ref [] in
  Score_table.iter t.scores (fun ~doc ~score ~deleted:d ->
      if d then deleted := (doc, score) :: !deleted);
  List.iter
    (fun (doc, score) ->
      List.iter
        (fun (term, _tf) ->
          if St.Btree.delete t.list (posting_key term score doc) then
            bump t term (-1))
        (Doc_store.terms t.docs ~doc);
      Doc_store.remove t.docs ~doc;
      Score_table.remove t.scores ~doc)
    !deleted;
  List.length !deleted
