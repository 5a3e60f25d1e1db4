(* What every workload run shares: its arguments, the operation accounts
   the result line reports, the span recorder, and the hook through which
   the watchdog learns how many requests are still outstanding. *)

module W = Svr_workload

type t = {
  seed : int;
  seconds : float;
  trace : bool;
  acct : Acct.t;
  spans : Spans.t;
  started : float;  (** wall clock at program entry *)
  outstanding : (unit -> int) Atomic.t;
}

let create ~seed ~seconds ~trace ~started =
  { seed; seconds; trace; acct = Acct.create (); spans = Spans.create ();
    started; outstanding = Atomic.make (fun () -> 0) }

(* The synthetic corpus of Section 5.1 at a benchmark scale: Zipf(0.1)
   terms over a small vocabulary, Zipf(0.75) scores up to 100000. Every
   text and score follows from the workload seed. *)
let corpus ~seed ~docs ~terms_per_doc ~vocab =
  { W.Corpus_gen.n_docs = docs; vocab_size = vocab; terms_per_doc;
    term_theta = 0.1; score_max = 100_000.0; score_theta = 0.75; seed }

(* Run [build 0] .. [build (n-1)] and return every result with the median
   set-up time. The first interval counts from program entry. With
   [release], each earlier result is released (and the heap settled)
   before the next build starts, outside its interval. *)
let setups t ~n ?release build =
  let times = Array.make n 0.0 and out = ref [] in
  for j = 0 to n - 1 do
    let t0 =
      if j = 0 then t.started
      else begin
        (match (release, !out) with Some r, x :: _ -> r x | _ -> ());
        Gc.full_major ();
        Probe.now ()
      end
    in
    out := build j :: !out;
    times.(j) <- Probe.now () -. t0
  done;
  Printf.eprintf "setup times: %s s\n%!"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") times)));
  (Array.of_list (List.rev !out), Stat.quantile times 0.5)

(* Bytes of encoded long lists per posting they hold. *)
let bytes_per_posting idx =
  let postings = Svr_core.Planner.Catalog.total_postings (Svr_core.Index.catalog idx) in
  if postings = 0 then 0.0
  else float_of_int (Svr_core.Index.long_list_bytes idx) /. float_of_int postings

(* Record a span, in a traced iteration only. *)
let span t ~on ?(id = -1) ~name ~parent ~req start stop =
  if on then
    let id = if id < 0 then Spans.fresh t.spans else id in
    Spans.add t.spans ~id ~name ~parent ~req ~start ~stop
