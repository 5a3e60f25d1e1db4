(* Small measurements and inputs the workloads share. *)

(* Every distinct two-keyword query of a selectivity class's keyword pool,
   in the order the seeded generator first draws it. Enumerating the pool
   (4096 draws cover its pairs) instead of sampling a few hundred queries
   keeps the query mix the same from seed to seed; the seed still orders
   the queries and generates the corpus. *)
let pool_queries ~seed ~selectivity corpus =
  let seen = Hashtbl.create 512 in
  Svr_workload.Query_gen.generate
    { Svr_workload.Query_gen.n_queries = 4096; keywords_per_query = 2;
      selectivity; seed }
    corpus
  |> Array.to_list
  |> List.filter (fun q ->
         let key = List.sort compare q in
         (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true))
  |> Array.of_list

(* Mean wall time of the planner's cost estimate over a query set, in
   microseconds: the call the [Cost] shed policy makes per admission. *)
let estimate_us idx queries =
  let n = Array.length queries in
  let t0 = Probe.now () in
  Array.iter (fun q -> ignore (Svr_core.Index.estimate_cost_ms idx q)) queries;
  (Probe.now () -. t0) *. 1e6 /. float_of_int (max 1 n)

(* Tracing overhead: how much longer traced operations took than untraced
   ones run alongside them, as a share of the untraced median. *)
let overhead ~plain ~traced =
  if Array.length plain = 0 || Array.length traced = 0 then 0.0
  else Stat.quantile traced 0.5 /. Stat.quantile plain 0.5 -. 1.0

(* In a traced run every other operation records spans, and the rest are
   the untraced baseline for the overhead. The parity flips each pass over
   a cyclic input of length [cycle], so every input is seen both ways. *)
let traced (ctx : Ctx.t) i cycle = ctx.Ctx.trace && (i + (i / max 1 cycle)) land 1 = 1

(* Every reported timing goes to standard error with its sample count and
   the percentile its tail sits at. *)
let report_timing name (s : Stat.summary) ~unit_ =
  Printf.eprintf "  %s: n=%d p50 %.4f %s, p%.1f %.4f %s\n%!" name s.Stat.n s.Stat.p50
    unit_ (100.0 *. s.Stat.tail_q) s.Stat.tail unit_
