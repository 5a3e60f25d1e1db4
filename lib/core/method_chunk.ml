module C = Chunk_common

type t = C.t

let build ?env ?catalog ?policy_of_scores cfg ~corpus ~scores =
  C.build ?env ?catalog ?policy_of_scores ~with_ts:false cfg ~corpus ~scores

let env (t : t) = t.C.env
let doc_store (t : t) = t.C.docs
let score_table (t : t) = t.C.scores
let policy (t : t) = t.C.policy
let score_update = C.score_update
let insert = C.insert
let delete = C.delete
let update_content = C.update_content

let query t ?(mode = Types.Conjunctive) ?(gallop = true) ?exec ?budget terms
    ~k =
  let n_terms = List.length terms in
  if n_terms = 0 then []
  else begin
    let gallop = gallop && mode = Types.Conjunctive in
    let csp = Qobs.Tr.push "cursor-open" in
    let merger =
      Merge.create ~n_terms ?exec ?budget (C.term_cursors t terms)
    in
    Qobs.Tr.pop csp;
    let msp = Qobs.Tr.push "merge" in
    let heap = Result_heap.create ~k in
    let rec scan () =
      match Merge.next ~gallop merger with
      | None -> ()
      | Some g ->
          (* a document whose postings sit at chunk <= cid currently scores
             below the lower bound of chunk cid+2 (it would otherwise have
             moved to the short list), so once that bound cannot beat the
             heap the scan is done — this is the "scan one extra chunk" rule *)
          let cid = int_of_float g.Merge.g_rank in
          if
            Result_heap.is_full heap
            && Chunk_policy.stop_bound t.C.policy ~cid <= Result_heap.min_score heap
          then begin
            if Qobs.Tr.is_on msp then
              Qobs.Tr.annotate msp "stop"
                (Printf.sprintf
                   "stopped at chunk %d because its stop bound %.4f <= heap \
                    min %.4f (scan-one-extra-chunk rule)"
                   cid
                   (Chunk_policy.stop_bound t.C.policy ~cid)
                   (Result_heap.min_score heap))
          end
          else begin
            C.process_candidate t mode ~n_terms g heap;
            scan ()
          end
    in
    scan ();
    (* degraded answer: every unexamined posting sits at chunk <= the last
       examined one, and the lazy-movement invariant caps any such
       document's current score by the chunk stop bound — the same quantity
       the scan-one-extra-chunk rule compares against the heap *)
    (match budget with
    | Some b when Budget.is_tripped b ->
        let br = Merge.bound_rank merger in
        let bound =
          if br = neg_infinity then neg_infinity
          else Chunk_policy.stop_bound t.C.policy ~cid:(int_of_float br)
        in
        Budget.set_bound b bound;
        if Qobs.Tr.is_on msp then
          Qobs.Tr.annotate msp "stop"
            (Printf.sprintf
               "budget tripped (%s) after %d groups: anytime answer, every \
                unexamined document is capped by the chunk stop bound %.4f"
               (Budget.reason_name (Option.get (Budget.tripped b)))
               (Merge.groups_emitted merger) bound)
    | _ -> ());
    Qobs.finish_merge ~depth:t.C.depth ~merger ~span:msp ~stop:(fun () ->
        Printf.sprintf
          "exhausted the chunk-ordered list after %d groups: no chunk's stop \
           bound fell to the heap min"
          (Merge.groups_emitted merger));
    Merge.recycle merger;
    Result_heap.to_list heap
  end

let long_list_bytes = C.long_list_bytes
let short_list_postings = C.short_list_postings
let short_next_term (t : t) ~after = Short_list.next_term t.C.short ~after
let short_term_count (t : t) ~term = Short_list.term_count t.C.short ~term
let compact_terms t terms = C.compact_terms t terms
let rebuild t = ignore (C.rebuild t)
