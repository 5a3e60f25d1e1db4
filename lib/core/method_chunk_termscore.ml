module St = Svr_storage
module C = Chunk_common

type t = {
  base : C.t;
  fancy_blobs : St.Blob_store.t;
  fancy_dir : Term_dir.t;
  ts_bounds : St.Btree.t;
      (* per-term monotone upper bound on the term scores online compaction
         has drained out of the short list; without it the query's
         [ts_bound] would shrink when high-term-score postings move long,
         breaking the Theorem 2 stopping rule *)
}

let env t = t.base.C.env
let doc_store t = t.base.C.docs
let score_table t = t.base.C.scores

let tsb_key term = St.Order_key.compose [ (fun b -> St.Order_key.term b term) ]

let tsb_get t term =
  match St.Btree.find t.ts_bounds (tsb_key term) with
  | Some v -> St.Order_key.get_u32 v 0
  | None -> 0

let tsb_bump t ~term ~max_add_ts =
  if max_add_ts > tsb_get t term then
    St.Btree.insert t.ts_bounds (tsb_key term)
      (St.Order_key.compose [ (fun b -> St.Order_key.u32 b max_add_ts) ])

let build_fancy t by_term =
  let fancy_size = t.base.C.cfg.Config.fancy_size in
  Hashtbl.iter
    (fun term postings ->
      let arr = Array.of_list !postings in
      (* highest term scores first, then take the fancy prefix *)
      Array.sort
        (fun (d1, ts1) (d2, ts2) ->
          match compare ts2 ts1 with 0 -> compare d1 d2 | c -> c)
        arr;
      let top = Array.sub arr 0 (min fancy_size (Array.length arr)) in
      if Array.length top > 0 then begin
        let min_ts = Array.fold_left (fun m (_, ts) -> min m ts) max_int top in
        Array.sort (fun (d1, _) (d2, _) -> compare d1 d2) top;
        let blob =
          St.Blob_store.put t.fancy_blobs
            (Posting_codec.Id_codec.encode
               ~codec:t.base.C.cfg.Config.codec ~with_ts:true top)
        in
        Term_dir.set t.fancy_dir ~term { Term_dir.blob; meta = min_ts }
      end)
    by_term

let postings_by_term base =
  let by_term = Hashtbl.create 4096 in
  Doc_store.iter_docs base.C.docs (fun ~doc tfs ->
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
  by_term

let build ?env ?catalog cfg ~corpus ~scores =
  let base = C.build ?env ?catalog ~with_ts:true cfg ~corpus ~scores in
  let t =
    { base;
      fancy_blobs = St.Env.blob_store base.C.env ~name:"fancy";
      fancy_dir = Term_dir.create base.C.env ~name:"fancydir";
      ts_bounds = St.Env.btree base.C.env ~name:"tsbound" }
  in
  build_fancy t (postings_by_term base);
  t

let score_update t = C.score_update t.base
let insert t = C.insert t.base
let delete t = C.delete t.base
let update_content t = C.update_content t.base

let fancy_cursors t terms =
  List.filter_map
    (fun (term_idx, term) ->
      Option.map
        (fun { Term_dir.blob; _ } ->
          let reader = St.Blob_store.reader t.fancy_blobs blob in
          Posting_codec.Id_codec.cursor ~codec:t.base.C.cfg.Config.codec
            ~with_ts:true ~term_idx reader)
        (Term_dir.find t.fancy_dir ~term))
    (List.mapi (fun i term -> (i, term)) terms)

(* Algorithm 3 *)
let query t ?(mode = Types.Conjunctive) ?(gallop = true) ?exec ?budget terms
    ~k =
  let base = t.base in
  let n_terms = List.length terms in
  if n_terms = 0 then []
  else begin
    let w = base.C.cfg.Config.ts_weight in
    let heap = Result_heap.create ~k in
    (* per-term upper bound on the term score of any document outside that
       term's fancy list: the fancy minimum, raised by short-list postings
       added since the fancy lists were built *)
    let ts_bound =
      Array.of_list
        (List.map
           (fun term ->
             let fancy_min =
               match Term_dir.find t.fancy_dir ~term with
               | Some { Term_dir.meta; _ } -> meta
               | None -> 0
             in
             Svr_text.Term_score.dequantize
               (max fancy_min
                  (max (Short_list.max_ts base.C.short ~term) (tsb_get t term))))
           terms)
    in
    let th_term = w *. Array.fold_left ( +. ) 0.0 ts_bound in
    let gallop = gallop && mode = Types.Conjunctive in
    (* stage 1: merge the fancy lists. Never gallops: partial matches must be
       parked in the remainList, and galloping would skip right over them *)
    let remain : (int, float option array) Hashtbl.t = Hashtbl.create 64 in
    let fsp = Qobs.Tr.push "fancy-merge" in
    let fancy_merger = Merge.create ~n_terms (fancy_cursors t terms) in
    let rec fancy_stage () =
      match Merge.next fancy_merger with
      | None -> ()
      | Some g ->
          let doc = g.Merge.g_doc in
          if not (Score_table.is_deleted base.C.scores ~doc) then begin
            if g.Merge.n_present = n_terms then begin
              let svr = Score_table.get_exn base.C.scores ~doc in
              Result_heap.offer heap ~doc ~score:(svr +. (w *. g.Merge.ts_sum))
            end
            else
              Hashtbl.replace remain doc
                (Array.init n_terms (fun i ->
                     if g.Merge.present.(i) then Some g.Merge.g_ts.(i) else None))
          end;
          fancy_stage ()
    in
    fancy_stage ();
    if Qobs.Tr.is_on fsp then begin
      Qobs.Tr.annotate fsp "groups"
        (string_of_int (Merge.groups_emitted fancy_merger));
      Qobs.Tr.annotate fsp "parked" (string_of_int (Hashtbl.length remain))
    end;
    Qobs.Tr.pop fsp;
    Merge.recycle fancy_merger;
    (* pruning condition from [21]: drop a parked document once its combined
       upper bound cannot beat the current k-th score *)
    let prune_remain () =
      let min_score = Result_heap.min_score heap in
      let victims = ref [] in
      Hashtbl.iter
        (fun doc known ->
          let ub =
            Score_table.get_exn base.C.scores ~doc
            +. w
               *. Array.fold_left ( +. ) 0.0
                    (Array.mapi
                       (fun i k -> match k with Some ts -> ts | None -> ts_bound.(i))
                       known)
          in
          if ub < min_score then victims := doc :: !victims)
        remain;
      List.iter (Hashtbl.remove remain) !victims
    in
    (* stage 2: merge the chunked short/long lists. Galloping is only sound
       once the remainList is empty: a parked document must be observed (and
       removed) when its chunk postings come by, or it would block stopping
       forever. Emptiness is monotone — docs are only ever removed — so the
       merge switches to galloping for good as soon as the list drains. *)
    let csp = Qobs.Tr.push "cursor-open" in
    (* [exec] only drives the chunk-list stage; the fancy merge above never
       gallops, so attaching the executor there would let a re-plan break
       Algorithm 3's parking invariant *)
    (* [budget] likewise: the fancy lists are at most fancy_size postings per
       term, so stage 1 is already bounded work — only the chunk merge needs
       to be cancellable *)
    let merger =
      Merge.create ~n_terms ?exec ?budget (C.term_cursors base terms)
    in
    Qobs.Tr.pop csp;
    let msp = Qobs.Tr.push "merge" in
    let last_pruned_cid = ref max_int in
    let rec scan () =
      match Merge.next ~gallop:(gallop && Hashtbl.length remain = 0) merger with
      | None -> ()
      | Some g ->
          (* the stop check must precede removing the group's document from
             the remainList: a parked document with a high known term score
             keeps the remainList non-empty and thereby blocks stopping *)
          let cid = int_of_float g.Merge.g_rank in
          let stop =
            Result_heap.is_full heap
            &&
            let th_svr = Chunk_policy.stop_bound base.C.policy ~cid in
            th_svr +. th_term <= Result_heap.min_score heap
            && begin
                 if cid <> !last_pruned_cid then begin
                   prune_remain ();
                   last_pruned_cid := cid
                 end;
                 Hashtbl.length remain = 0
               end
          in
          if stop then begin
            if Qobs.Tr.is_on msp then
              Qobs.Tr.annotate msp "stop"
                (Printf.sprintf
                   "stopped at chunk %d because stop bound %.4f + term-score \
                    bound %.4f <= heap min %.4f and the remainList drained \
                    (Algorithm 3)"
                   cid
                   (Chunk_policy.stop_bound base.C.policy ~cid)
                   th_term (Result_heap.min_score heap))
          end
          else begin
            Hashtbl.remove remain g.Merge.g_doc;
            C.process_candidate base mode ~n_terms g heap;
            scan ()
          end
    in
    scan ();
    (* degraded answer, Theorem 2 shape: an unexamined document's svr is
       capped by the chunk stop bound and its term-score part by th_term; a
       document still parked in the remainList is instead capped by its own
       combined upper bound (its svr is exact, its unknown term scores are
       capped per term). The bound is the max of the two families. *)
    (match budget with
    | Some b when Budget.is_tripped b ->
        let br = Merge.bound_rank merger in
        let chunk_part =
          if br = neg_infinity then neg_infinity
          else
            Chunk_policy.stop_bound base.C.policy ~cid:(int_of_float br)
            +. th_term
        in
        let bound = ref chunk_part in
        Hashtbl.iter
          (fun doc known ->
            let ub =
              Score_table.get_exn base.C.scores ~doc
              +. w
                 *. Array.fold_left ( +. ) 0.0
                      (Array.mapi
                         (fun i k ->
                           match k with Some ts -> ts | None -> ts_bound.(i))
                         known)
            in
            if ub > !bound then bound := ub)
          remain;
        Budget.set_bound b !bound;
        if Qobs.Tr.is_on msp then
          Qobs.Tr.annotate msp "stop"
            (Printf.sprintf
               "budget tripped (%s) after %d groups: anytime answer, bound \
                %.4f = max(chunk stop bound + term-score cap, remainList \
                upper bounds over %d parked documents)"
               (Budget.reason_name (Option.get (Budget.tripped b)))
               (Merge.groups_emitted merger) !bound (Hashtbl.length remain))
    | _ -> ());
    Qobs.finish_merge ~depth:t.base.C.depth ~merger ~span:msp
      ~stop:(fun () ->
        Printf.sprintf
          "exhausted the chunk-ordered list after %d groups (%d documents \
           still parked in the remainList)"
          (Merge.groups_emitted merger)
          (Hashtbl.length remain));
    Merge.recycle merger;
    Result_heap.to_list heap
  end

let long_list_bytes t =
  C.long_list_bytes t.base + St.Blob_store.live_bytes t.fancy_blobs

let short_list_postings t = C.short_list_postings t.base
let short_next_term t ~after = Short_list.next_term t.base.C.short ~after
let short_term_count t ~term = Short_list.term_count t.base.C.short ~term

let compact_terms t terms =
  C.compact_terms t.base terms
    ~on_drained:(fun ~term ~max_add_ts -> tsb_bump t ~term ~max_add_ts)

let rebuild t =
  (* rebuilt fancy lists cover all live postings again, so the compaction
     bounds can be forgotten *)
  St.Btree.clear t.ts_bounds;
  let by_term = C.rebuild t.base in
  let old = ref [] in
  Term_dir.iter t.fancy_dir (fun ~term entry -> old := (term, entry) :: !old);
  List.iter
    (fun (term, { Term_dir.blob; _ }) ->
      St.Blob_store.free t.fancy_blobs blob;
      Term_dir.remove t.fancy_dir ~term)
    !old;
  build_fancy t by_term
