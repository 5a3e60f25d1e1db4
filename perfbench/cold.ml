(* cold_update_mix: the paper's Section 5.2 protocol, run serially in
   process by one closed-loop client.

   Each round, on one of three corpora in turn, applies a burst of flash-crowd score updates (the
   Update_gen focus set takes half of them), runs one online-maintenance
   step whenever the trigger fires, checkpoints every [checkpoint_every]
   rounds, then drops the blob caches and runs one Medium two-keyword
   conjunctive top-10 query cold. The index is Chunk over varint blocks on
   512 B pages, with a blob pool far smaller than the long lists. The
   environment is durable and group-commits the WAL every [wal_group]
   records. Nothing here runs a thread or touches the serving layer, so
   the I/O and allocation counts of a seed repeat exactly. *)

module Core = Svr_core
module St = Svr_storage
module W = Svr_workload
module B = Stat.Buf

let docs = 2000
let terms_per_doc = 100
let vocab = 800
let page_size = 512
let table_pool_pages = 16384
let blob_pool_pages = 64 (* 32 KiB against ~250 KB of long lists *)
let wal_group = 32
let burst = 16
let checkpoint_every = 64
let n_setups = 3 (* also the number of corpora the run cycles over *)
let segment = 32 (* rounds timed against one host reference *)
let window = 192 (* rounds per window of the reported rates: 3 checkpoints *)
let k = 10

let config =
  { Core.Config.default with
    Core.Config.analyzer = W.Corpus_gen.analyzer; fancy_size = 16 }

let build corpus =
  let scores = W.Corpus_gen.scores corpus in
  let env =
    St.Env.create ~page_size ~table_pool_pages ~blob_pool_pages ~durable:true
      ~wal_group ()
  in
  let idx =
    Core.Index.build ~env Core.Index.Chunk config
      ~corpus:(W.Corpus_gen.corpus_seq corpus)
      ~scores:(fun d -> scores.(d))
  in
  (idx, scores)

(* One corpus with its index, oracle and input streams. The run cycles
   over [n_setups] of them, each from its own seed, so one unlucky corpus
   or focus set weighs a third of the result. *)
type lane = {
  idx : Core.Index.t;
  env : St.Env.t;
  oracle : Core.Oracle.t;
  cur : float array;
  queries : string list array;
  ops : W.Update_gen.op array;
  mutable op_i : int;
  mutable rounds : int;
}

let lane ~seed corpus (idx, scores) =
  let oracle = Core.Oracle.create config in
  Core.Oracle.load oracle ~corpus:(W.Corpus_gen.corpus_seq corpus)
    ~scores:(fun d -> scores.(d));
  { idx; env = Core.Index.env idx; oracle; cur = Array.copy scores;
    queries = Common.pool_queries ~seed:(seed + 1) ~selectivity:W.Query_gen.Medium corpus;
    ops =
      W.Update_gen.generate
        { W.Update_gen.defaults with
          W.Update_gen.n_updates = 1 lsl 16; focus_update_pct = 0.5;
          seed = seed + 2 }
        ~scores;
    op_i = 0; rounds = 0 }

let run (ctx : Ctx.t) =
  let seed j = ctx.seed + (1000 * j) in
  let corpora =
    Array.init n_setups (fun j -> Ctx.corpus ~seed:(seed j) ~docs ~terms_per_doc ~vocab)
  in
  let built, setup_s = Ctx.setups ctx ~n:n_setups (fun j -> build corpora.(j)) in
  let lanes = Array.mapi (fun j b -> lane ~seed:(seed j) corpora.(j) b) built in
  let n_lanes = Array.length lanes in
  let q_ms = B.create () and u_us = B.create () in
  let maint_ms = B.create () and ckpt_ms = B.create () in
  let round_plain = B.create () and round_traced = B.create () in
  let lib_s = ref 0.0 in
  let n_q = ref 0 and n_u = ref 0 and n_m = ref 0 in
  let q_io = St.Stats.zero () and q_alloc = ref 0.0 in
  let drained = ref 0 and swap_wait = ref 0.0 and short_peak = ref 0 in
  let io_all () =
    let acc = St.Stats.zero () in
    Array.iter (fun l -> Probe.io_add acc (Probe.io l.env)) lanes;
    acc
  in
  let io0 = io_all () and gc0 = Gc.quick_stat () in
  let reg0 = Probe.registry () in
  let deadline = Probe.now () +. ctx.seconds in
  let pass = Array.fold_left (fun n l -> n + Array.length l.queries) 0 lanes in
  let round = ref 0 and req = ref 0 in
  (* per window: its operations and queries, and its library and query
     time in host-reference units, each segment's time divided by the
     reference taken at the segment's start *)
  let ref_s = ref 1.0 and refs = B.create () in
  let w_ops = ref 0 and w_q = ref 0 and w_lib = ref 0.0 and w_qt = ref 0.0 in
  let win_ops = B.create () and win_q = B.create () in
  let win_lib = B.create () and win_qt = B.create () in
  let close_window () =
    B.add win_ops (float_of_int !w_ops);
    B.add win_q (float_of_int !w_q);
    B.add win_lib !w_lib;
    B.add win_qt !w_qt;
    w_ops := 0;
    w_q := 0;
    w_lib := 0.0;
    w_qt := 0.0
  in
  (* whole passes, so every query of every lane runs equally often *)
  while Probe.now () < deadline || !round mod pass <> 0 do
    if !round mod segment = 0 then begin
      ref_s := Probe.host_ref ();
      B.add refs !ref_s
    end;
    let lib0 = !lib_s and ops0 = !n_q + !n_u + !n_m and q_round = ref 0.0 in
    let l = lanes.(!round mod n_lanes) in
    (* lanes hold equally many queries: the Medium pool is seed-independent *)
    let traced = Common.traced ctx !round pass in
    let span = Ctx.span ctx ~on:traced in
    let r0 = Probe.now () and check_s = ref 0.0 in
    (* the flash-crowd burst *)
    for _ = 1 to burst do
      let op = l.ops.(l.op_i mod Array.length l.ops) in
      l.op_i <- l.op_i + 1;
      incr req;
      let doc = op.W.Update_gen.doc in
      let s = W.Update_gen.apply op ~current:l.cur.(doc) in
      l.cur.(doc) <- s;
      Acct.attempt ctx.acct;
      let root = Spans.fresh ctx.spans and a = Probe.now () in
      let t0 = Probe.now () in
      Core.Index.score_update l.idx ~doc s;
      let t1 = Probe.now () in
      incr n_u;
      lib_s := !lib_s +. (t1 -. t0);
      B.add u_us ((t1 -. t0) *. 1e6);
      span ~name:"index.score_update" ~parent:root ~req:!req t0 t1;
      span ~id:root ~name:"op.update" ~parent:(-1) ~req:!req a (Probe.now ());
      let c0 = Probe.now () in
      Core.Oracle.score_update l.oracle ~doc s;
      check_s := !check_s +. (Probe.now () -. c0)
    done;
    short_peak := max !short_peak (Core.Index.short_list_postings l.idx);
    if Core.Index.should_maintain l.idx then begin
      incr req;
      Acct.attempt ctx.acct;
      let root = Spans.fresh ctx.spans and a = Probe.now () in
      let t0 = Probe.now () in
      let m = Core.Index.maintain ~steps:1 l.idx in
      let t1 = Probe.now () in
      incr n_m;
      lib_s := !lib_s +. (t1 -. t0);
      B.add maint_ms ((t1 -. t0) *. 1000.0);
      drained := !drained + m.Core.Index.postings_drained;
      swap_wait := !swap_wait +. m.Core.Index.swap_wait_ms;
      span ~name:"index.maintain" ~parent:root ~req:!req t0 t1;
      span ~id:root ~name:"op.maintain" ~parent:(-1) ~req:!req a (Probe.now ())
    end;
    if l.rounds mod checkpoint_every = checkpoint_every - 1 then begin
      incr req;
      let root = Spans.fresh ctx.spans and a = Probe.now () in
      let t0 = Probe.now () in
      St.Env.checkpoint l.env;
      let t1 = Probe.now () in
      lib_s := !lib_s +. (t1 -. t0);
      B.add ckpt_ms ((t1 -. t0) *. 1000.0);
      span ~name:"env.checkpoint" ~parent:root ~req:!req t0 t1;
      span ~id:root ~name:"op.checkpoint" ~parent:(-1) ~req:!req a (Probe.now ())
    end;
    (* the cold query *)
    let q = l.queries.(l.rounds mod Array.length l.queries) in
    incr req;
    Acct.attempt ctx.acct;
    let root = Spans.fresh ctx.spans and a = Probe.now () in
    St.Env.drop_blob_caches l.env;
    let io_a = Probe.io l.env and g_a = Gc.quick_stat () in
    let t0 = Probe.now () in
    let got = Core.Index.query_terms l.idx q ~k in
    let t1 = Probe.now () in
    let g_b = Gc.quick_stat () and io_b = Probe.io l.env in
    incr n_q;
    lib_s := !lib_s +. (t1 -. t0);
    q_round := t1 -. t0;
    B.add q_ms ((t1 -. t0) *. 1000.0);
    Probe.io_add q_io (Probe.io_diff ~after:io_b ~before:io_a);
    q_alloc := !q_alloc +. Probe.alloc_words g_a g_b;
    span ~name:"index.query_terms" ~parent:root ~req:!req t0 t1;
    span ~id:root ~name:"op.query" ~parent:(-1) ~req:!req a (Probe.now ());
    let c0 = Probe.now () in
    if got <> Core.Oracle.top_k l.oracle q ~k then Acct.mismatch ctx.acct;
    check_s := !check_s +. (Probe.now () -. c0);
    B.add (if traced then round_traced else round_plain)
      ((Probe.now () -. r0 -. !check_s) *. 1000.0);
    l.rounds <- l.rounds + 1;
    w_ops := !w_ops + (!n_q + !n_u + !n_m - ops0);
    incr w_q;
    w_lib := !w_lib +. ((!lib_s -. lib0) /. !ref_s);
    w_qt := !w_qt +. (!q_round /. !ref_s);
    incr round;
    if !round mod window = 0 then close_window ()
  done;
  (* a run too short for one whole window reports its part of one *)
  if B.length win_lib = 0 then close_window ();
  let io1 = io_all () and gc1 = Gc.quick_stat () in
  let reg1 = Probe.registry () in
  let n_q = !n_q and n_u = !n_u and n_m = !n_m in
  let q = Stat.summarize (B.to_array q_ms) in
  let u = Stat.summarize (B.to_array u_us) in
  let upd_io =
    St.Stats.diff ~after:(Probe.io_diff ~after:io1 ~before:io0) ~before:q_io
  in
  let cost = St.Env.cost lanes.(0).env in
  (* rates at the nominal host speed: the median over the windows *)
  let windowed num den =
    let num = B.to_array num and den = B.to_array den in
    Stat.quantile
      (Array.mapi (fun w x -> x /. (den.(w) *. Probe.ref_nominal_s)) num)
      0.5
  in
  let e2e =
    [ ("setup_s", setup_s);
      ("ops_per_s", windowed win_ops win_lib);
      ("max_qps", windowed win_q win_qt);
      ("query_alloc_words", Probe.perf n_q !q_alloc);
      ("index_bytes_per_posting",
        Array.fold_left (fun acc l -> acc +. Ctx.bytes_per_posting l.idx) 0.0 lanes
        /. float_of_int n_lanes);
      ("peak_heap_mb", Probe.peak_heap_mb ());
      ("ok_frac", 1.0 -. Acct.fail_frac ctx.acct) ]
  in
  let layer () =
    let spans = Spans.to_array ctx.spans in
    let selfs = Spans.self_times spans in
    let qs = Stat.summarize (Spans.self_of spans selfs "index.query_terms") in
    let us = Stat.summarize (Spans.self_of spans selfs "index.score_update") in
    [ ("query_p50_ms", q.Stat.p50);
      ("query_p99_ms", q.Stat.tail);
      ("query_sim_ms", Probe.perf n_q (St.Stats.simulated_ms ~cost q_io));
      ("update_p50_us", u.Stat.p50);
      ("update_p99_us", u.Stat.tail);
      ("fail_frac", Acct.fail_frac ctx.acct);
      ("env.checkpoint_ms", (Stat.summarize (B.to_array ckpt_ms)).Stat.mean);
      Probe.scan_depth ~before:reg0 ~after:reg1;
      ("planner.estimate_us",
        Common.estimate_us lanes.(0).idx lanes.(0).queries);
      ("index.query_self_p50_ms", qs.Stat.p50 *. 1000.0);
      ("index.query_self_p99_ms", qs.Stat.tail *. 1000.0);
      ("update.self_p50_us", us.Stat.p50 *. 1e6);
      ("update.self_p99_us", us.Stat.tail *. 1e6);
      ("short_list.postings_peak", float_of_int !short_peak);
      ("maintain.steps", float_of_int n_m);
      ("maintain.postings_drained", float_of_int !drained);
      ("maintain.swap_wait_ms", !swap_wait);
      ("maintain.step_ms", (Stat.summarize (B.to_array maint_ms)).Stat.mean);
      ("bench.sent", float_of_int n_q);
      ("bench.answered", float_of_int n_q);
      ("bench.trace_overhead_frac",
        Common.overhead ~plain:(B.to_array round_plain)
          ~traced:(B.to_array round_traced)) ]
    @ Probe.query_io ~page_size ~n:n_q q_io
    @ Probe.update_io ~cost ~n:n_u upd_io
    @ Probe.planner_layer ~before:reg0 ~after:reg1
    @ Probe.gc_layer ~queries:n_q gc0 gc1
  in
  Printf.eprintf
    "cold_update_mix: %d rounds over %d corpora, %d updates, %d maintenance \
     steps, %d windows, host reference %.3f ms, %d mismatches\n%!"
    !round n_lanes n_u n_m (B.length win_lib)
    (Stat.quantile (B.to_array refs) 0.5 *. 1000.0)
    (Acct.mismatches ctx.acct);
  Common.report_timing "query" q ~unit_:"ms";
  Common.report_timing "update" u ~unit_:"us";
  if ctx.trace then layer () else e2e
