(* warm_read: one closed-loop client, read-only, everything in memory.

   Chunk-TermScore over bitpacked blocks with the planner on Auto, in an
   environment made with [Env.create]'s defaults: 4 KiB pages, pools that
   hold the whole index. Each of three corpora, from seeds derived from
   the workload seed, gets its own index; a warm-up pass runs each one's
   queries once before timing. The query mix is a seeded sample of the
   Medium and of the Rare_over_dense keyword pairs of each corpus, each
   conjunctive and disjunctive, k = 10. The timed loop does no physical
   I/O and no updates, so it isolates the CPU read path: pager hits,
   B+-tree node decode, block decode, merge, heap and planner. *)

module Core = Svr_core
module St = Svr_storage
module W = Svr_workload
module B = Stat.Buf

let docs = 800
let terms_per_doc = 100
let vocab = 800
let n_setups = 3 (* also the number of corpora the run cycles over *)
let per_mix = 64 (* queries of each mix on each corpus *)
let block = 32 (* consecutive queries of the cycle timed as one block *)
let min_passes = 3
let k = 10

let config =
  { Core.Config.default with
    Core.Config.analyzer = W.Corpus_gen.analyzer;
    codec = Core.Types.Bitpack;
    planner = Core.Config.Auto }

let mixes =
  [ (W.Query_gen.Medium, Core.Types.Conjunctive);
    (W.Query_gen.Medium, Core.Types.Disjunctive);
    (W.Query_gen.Rare_over_dense, Core.Types.Conjunctive);
    (W.Query_gen.Rare_over_dense, Core.Types.Disjunctive) ]

(* The first [per_mix] distinct pairs the seeded generator draws from each
   mix's keyword pool: a seeded sample of it. *)
let query_set ~seed corpus =
  List.mapi
    (fun i (selectivity, mode) ->
      let pool = Common.pool_queries ~seed:(seed + 1 + i) ~selectivity corpus in
      Array.sub pool 0 (min per_mix (Array.length pool))
      |> Array.map (fun q -> (mode, q)))
    mixes
  |> Array.concat

let build corpus queries =
  let scores = W.Corpus_gen.scores corpus in
  let idx =
    Core.Index.build ~env:(St.Env.create ()) Core.Index.Chunk_termscore config
      ~corpus:(W.Corpus_gen.corpus_seq corpus)
      ~scores:(fun d -> scores.(d))
  in
  Array.iter (fun (mode, q) -> ignore (Core.Index.query_terms idx ~mode q ~k)) queries;
  (idx, scores)

(* One corpus with its index, queries and their exact answers. The index
   is read-only, so the oracle runs once per query and is then dropped. *)
type lane = {
  idx : Core.Index.t;
  env : St.Env.t;
  queries : (Core.Types.mode * string list) array;
  expected : (int * float) list array;
}

let lane corpus queries (idx, scores) =
  let oracle = Core.Oracle.create config in
  Core.Oracle.load oracle ~corpus:(W.Corpus_gen.corpus_seq corpus)
    ~scores:(fun d -> scores.(d));
  { idx; env = Core.Index.env idx; queries;
    expected =
      Array.map
        (fun (mode, q) -> Core.Oracle.top_k oracle ~mode ~with_ts:true q ~k)
        queries }

let run (ctx : Ctx.t) =
  let seed j = ctx.seed + (1000 * j) in
  let corpora =
    Array.init n_setups (fun j -> Ctx.corpus ~seed:(seed j) ~docs ~terms_per_doc ~vocab)
  in
  let queries = Array.mapi (fun j c -> query_set ~seed:(seed j) c) corpora in
  let built, setup_s =
    Ctx.setups ctx ~n:n_setups (fun j -> build corpora.(j) queries.(j))
  in
  let lanes = Array.init n_setups (fun j -> lane corpora.(j) queries.(j) built.(j)) in
  let page_size = 4096 in
  (* the cycle: every (lane, query) once, in a seeded shuffled order *)
  let order =
    let a =
      Array.concat
        (Array.to_list
           (Array.mapi (fun j l -> Array.init (Array.length l.queries) (fun i -> (j, i))) lanes))
    in
    let rng = W.Rng.create (ctx.seed + 7) in
    for i = Array.length a - 1 downto 1 do
      let j = W.Rng.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
  in
  let cycle = Array.length order in
  let n_blocks = (cycle + block - 1) / block in
  (* [passes] holds each finished pass's block times in host-reference
     units; [cur] the running one, and [ref_s] the reference time taken
     before the running block *)
  let passes = ref [] and cur = ref (Array.make n_blocks 0.0) in
  let ref_s = ref 1.0 and refs = B.create () in
  let io_all () =
    let acc = St.Stats.zero () in
    Array.iter (fun l -> Probe.io_add acc (Probe.io l.env)) lanes;
    acc
  in
  let q_ms = B.create () in
  let op_plain = B.create () and op_traced = B.create () in
  let n_q = ref 0 in
  let q_io = St.Stats.zero () and q_alloc = ref 0.0 in
  let io0 = io_all () and gc0 = Gc.quick_stat () in
  let reg0 = Probe.registry () in
  let deadline = Probe.now () +. ctx.seconds in
  let i = ref 0 in
  (* whole passes over the cycle, so every seed weighs its queries exactly
     as generated, and enough of them for a median per block *)
  while Probe.now () < deadline || !i mod cycle <> 0 || !i < min_passes * cycle do
    let traced = Common.traced ctx !i cycle in
    let pos = !i mod cycle in
    if pos mod block = 0 then begin
      ref_s := Probe.host_ref ();
      B.add refs !ref_s
    end;
    let j, qi = order.(pos) in
    let l = lanes.(j) in
    let mode, q = l.queries.(qi) in
    Acct.attempt ctx.acct;
    let root = Spans.fresh ctx.spans and a = Probe.now () in
    let io_a = Probe.io l.env and g_a = Gc.quick_stat () in
    let t0 = Probe.now () in
    let got = Core.Index.query_terms l.idx ~mode q ~k in
    let t1 = Probe.now () in
    let g_b = Gc.quick_stat () and io_b = Probe.io l.env in
    incr n_q;
    let b = pos / block in
    !cur.(b) <- !cur.(b) +. ((t1 -. t0) /. !ref_s);
    B.add q_ms ((t1 -. t0) *. 1000.0);
    Probe.io_add q_io (Probe.io_diff ~after:io_b ~before:io_a);
    q_alloc := !q_alloc +. Probe.alloc_words g_a g_b;
    let span = Ctx.span ctx ~on:traced in
    span ~name:"index.query_terms" ~parent:root ~req:!i t0 t1;
    span ~id:root ~name:"op.query" ~parent:(-1) ~req:!i a (Probe.now ());
    B.add (if traced then op_traced else op_plain) ((Probe.now () -. a) *. 1000.0);
    if got <> l.expected.(qi) then Acct.mismatch ctx.acct;
    incr i;
    if pos = cycle - 1 then begin
      passes := !cur :: !passes;
      cur := Array.make n_blocks 0.0
    end
  done;
  let io1 = io_all () and gc1 = Gc.quick_stat () in
  let reg1 = Probe.registry () in
  let n_q = !n_q in
  let passes = Array.of_list !passes in
  let pass_s =
    Probe.ref_nominal_s
    *. Stat.pass_time (Array.init n_blocks (fun b -> Array.map (fun p -> p.(b)) passes))
  in
  let q = Stat.summarize (B.to_array q_ms) in
  (* queries per second at the nominal host speed (see [Probe.host_ref]) *)
  let qps = float_of_int cycle /. pass_s in
  let ref_ms = Stat.quantile (B.to_array refs) 0.5 *. 1000.0 in
  let mean_over f = Array.fold_left (fun acc l -> acc +. f l) 0.0 lanes /. float_of_int n_setups in
  let e2e =
    [ ("setup_s", setup_s);
      ("ops_per_s", qps);
      ("max_qps", qps);
      ("query_alloc_words", Probe.perf n_q !q_alloc);
      ("index_bytes_per_posting", mean_over (fun l -> Ctx.bytes_per_posting l.idx));
      ("peak_heap_mb", Probe.peak_heap_mb ());
      ("ok_frac", 1.0 -. Acct.fail_frac ctx.acct) ]
  in
  let layer () =
    let spans = Spans.to_array ctx.spans in
    let selfs = Spans.self_times spans in
    let qs = Stat.summarize (Spans.self_of spans selfs "index.query_terms") in
    let all_io = Probe.io_diff ~after:io1 ~before:io0 in
    let cost = St.Env.cost lanes.(0).env in
    [ ("query_p50_ms", q.Stat.p50);
      ("query_p99_ms", q.Stat.tail);
      ("query_sim_ms", Probe.perf n_q (St.Stats.simulated_ms ~cost all_io));
      ("fail_frac", Acct.fail_frac ctx.acct);
      Probe.scan_depth ~before:reg0 ~after:reg1;
      ("planner.estimate_us",
        mean_over (fun l -> Common.estimate_us l.idx (Array.map snd l.queries)));
      ("index.query_self_p50_ms", qs.Stat.p50 *. 1000.0);
      ("index.query_self_p99_ms", qs.Stat.tail *. 1000.0);
      ("bench.sent", float_of_int n_q);
      ("bench.answered", float_of_int n_q);
      ("bench.trace_overhead_frac",
        Common.overhead ~plain:(B.to_array op_plain) ~traced:(B.to_array op_traced)) ]
    @ Probe.query_io ~page_size ~n:n_q q_io
    @ Probe.planner_layer ~before:reg0 ~after:reg1
    @ Probe.gc_layer ~queries:n_q gc0 gc1
  in
  Printf.eprintf
    "warm_read: %d queries over %d corpora, %d per pass, %d passes, \
     pass %.3f s at the nominal host speed, host reference %.3f ms, \
     %d mismatches\n%!"
    n_q n_setups cycle (Array.length passes) pass_s ref_ms (Acct.mismatches ctx.acct);
  Common.report_timing "query" q ~unit_:"ms";
  if ctx.trace then layer () else e2e
