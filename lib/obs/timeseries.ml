(* A fixed ring of periodic registry snapshots, delta-encoded per series.

   Each [tick] walks [Metrics.snapshot] once and appends one slot to every
   series: counters, histogram buckets and histogram sum/count store the
   increase since the previous tick (cumulative inputs, delta storage);
   gauges store the sampled value. Both clocks are stamped per tick — wall
   ms and the global simulated-ms source ([Clock.sim_ms]) — so windowed
   queries can trail either one: benches and SLO windows use sim-ms for
   determinism, the shell uses wall.

   The idle path is one float compare: [maybe_tick] returns immediately
   until the wall interval elapses, and nothing else runs periodically.
   Queries and ticks share one mutex; ticks are rare (default 100 ms) and
   queries walk plain float arrays, so contention is negligible.

   A series is keyed by (metric name, labels, part) where part separates
   a histogram's per-bucket series from its sum/count and from plain
   counter/gauge values. Queries address series by name plus a label
   subset and sum across every match — asking for ["svr_shed_total"] with
   no labels aggregates over {class, reason}, mirroring a PromQL sum. *)

type part = Value | Sum | Count | Bucket of float

type series = {
  se_key : (string * (string * string) list) * part;
  se_base : float; (* histogram bucket base; 0. for counters/gauges *)
  se_cumulative : bool; (* true: input is cumulative, slots store deltas *)
  se_vals : float array; (* ring-aligned with the tick timestamp arrays *)
  mutable se_last : float; (* last cumulative input, for delta encoding *)
}

type t = {
  capacity : int;
  mutable interval : float; (* wall ms between maybe_tick snapshots *)
  mu : Mutex.t;
  wall : float array; (* tick timestamps, wall ms *)
  sim : float array; (* tick timestamps, simulated ms *)
  mutable pos : int; (* next write slot *)
  mutable n : int; (* ticks retained, <= capacity *)
  mutable last_wall : float; (* last tick wall ms, for maybe_tick *)
  series : ((string * (string * string) list) * part, series) Hashtbl.t;
}

type clock = Wall | Sim

let default_capacity = 600
let default_interval_ms = 100.

let create ?(capacity = default_capacity) ?(interval_ms = default_interval_ms)
    () =
  { capacity; interval = interval_ms; mu = Mutex.create ();
    wall = Array.make capacity 0.; sim = Array.make capacity 0.; pos = 0;
    n = 0; last_wall = neg_infinity; series = Hashtbl.create 64 }

let interval_ms t = t.interval
let set_interval_ms t ms = t.interval <- ms
let ticks t = t.n

let get_series t key base cumulative =
  match Hashtbl.find_opt t.series key with
  | Some s -> s
  | None ->
      let s =
        { se_key = key; se_base = base; se_cumulative = cumulative;
          se_vals = Array.make t.capacity 0.; se_last = Float.nan }
      in
      Hashtbl.replace t.series key s;
      s

(* A cumulative sample: first sight is a baseline (delta 0, so a series
   born mid-flight does not report its whole history as one spike); a
   sample below the last one is a registry reset, counted from zero. *)
let put_cum s pos v =
  let d =
    if Float.is_nan s.se_last then 0.
    else if v < s.se_last then v
    else v -. s.se_last
  in
  s.se_last <- v;
  s.se_vals.(pos) <- d

let tick_locked t ~wall_ms ~sim_ms =
  let pos = t.pos in
  (* a series absent from this snapshot contributes nothing this tick *)
  Hashtbl.iter (fun _ s -> s.se_vals.(pos) <- 0.) t.series;
  List.iter
    (fun ((name, labels), v) ->
      match v with
      | Metrics.Counter n ->
          put_cum
            (get_series t ((name, labels), Value) 0. true)
            pos (float_of_int n)
      | Metrics.Gauge g ->
          let s = get_series t ((name, labels), Value) 0. false in
          s.se_vals.(pos) <- (if Float.is_nan g then 0. else g)
      | Metrics.Histogram { base; buckets; sum; count } ->
          (* zero-count buckets are omitted from snapshots, so a bucket
             series can be born ticks after its histogram. If the
             histogram was already tracked, the bucket's history is a
             known zero — delta from 0, don't swallow its first counts
             as an unknown-history baseline *)
          let hist_known = Hashtbl.mem t.series ((name, labels), Count) in
          put_cum (get_series t ((name, labels), Sum) base true) pos sum;
          put_cum
            (get_series t ((name, labels), Count) base true)
            pos (float_of_int count);
          List.iter
            (fun (le, n) ->
              let key = ((name, labels), Bucket le) in
              let fresh = not (Hashtbl.mem t.series key) in
              let s = get_series t key base true in
              if fresh && hist_known then s.se_last <- 0.;
              put_cum s pos (float_of_int n))
            buckets)
    (Metrics.snapshot ());
  t.wall.(pos) <- wall_ms;
  t.sim.(pos) <- sim_ms;
  t.pos <- (pos + 1) mod t.capacity;
  t.n <- min (t.n + 1) t.capacity;
  t.last_wall <- wall_ms

let tick t =
  let wall_ms = Clock.now_ms () and sim_ms = Clock.sim_ms () in
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () -> tick_locked t ~wall_ms ~sim_ms)

let maybe_tick t =
  if Clock.now_ms () -. t.last_wall >= t.interval then tick t

(* -- windowed queries ----------------------------------------------------- *)

let clock_arr t = function Wall -> t.wall | Sim -> t.sim

(* Fold [f acc slot] over the retained ticks (oldest first) whose clock
   timestamp lies inside the trailing window, returning the fold result
   and the actual span covered: newest timestamp minus the boundary (the
   last excluded tick, or the oldest retained one). *)
let fold_window t clock ~window_ms f acc =
  if t.n = 0 then (acc, 0.)
  else begin
    let ts = clock_arr t clock in
    let newest = ts.((t.pos - 1 + t.capacity) mod t.capacity) in
    let cutoff = newest -. window_ms in
    let acc = ref acc and span_start = ref None in
    for i = 0 to t.n - 1 do
      let slot = (t.pos - t.n + i + (2 * t.capacity)) mod t.capacity in
      if ts.(slot) > cutoff then begin
        if !span_start = None then
          (* boundary: the tick just before the first included one *)
          span_start :=
            Some
              (if i = 0 then ts.(slot)
               else ts.((slot - 1 + t.capacity) mod t.capacity));
        acc := f !acc slot
      end
    done;
    let span = match !span_start with None -> 0. | Some s -> newest -. s in
    (!acc, span)
  end

let label_subset sub labels =
  List.for_all (fun (k, v) -> List.assoc_opt k labels = Some v) sub

let matching t name labels pred =
  Hashtbl.fold
    (fun ((n, ls), part) s acc ->
      if String.equal n name && label_subset labels ls && pred part then
        s :: acc
      else acc)
    t.series []

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Total increase of a cumulative metric over the trailing window: a
   counter's Value series, or a histogram's Count (its request count). *)
let increase ?(clock = Sim) ?(labels = []) t name ~window_ms =
  with_lock t (fun () ->
      let ss =
        matching t name labels (function
          | Value -> true
          | Count -> true
          | _ -> false)
      in
      let ss = List.filter (fun s -> s.se_cumulative) ss in
      fst
        (fold_window t clock ~window_ms
           (fun acc slot ->
             List.fold_left (fun a s -> a +. s.se_vals.(slot)) acc ss)
           0.))

(* Per-second rate over the span the window actually covers (shorter than
   [window_ms] while history is still filling). *)
let rate ?(clock = Sim) ?(labels = []) t name ~window_ms =
  with_lock t (fun () ->
      let ss =
        matching t name labels (function
          | Value -> true
          | Count -> true
          | _ -> false)
      in
      let ss = List.filter (fun s -> s.se_cumulative) ss in
      let total, span =
        fold_window t clock ~window_ms
          (fun acc slot ->
            List.fold_left (fun a s -> a +. s.se_vals.(slot)) acc ss)
          0.
      in
      if span <= 0. then 0. else total /. (span /. 1000.))

(* Latest sampled value of a gauge (summed across matching label sets). *)
let last ?(labels = []) t name =
  with_lock t (fun () ->
      if t.n = 0 then Float.nan
      else begin
        let slot = (t.pos - 1 + t.capacity) mod t.capacity in
        let ss =
          matching t name labels (function Value -> true | _ -> false)
        in
        let ss = List.filter (fun s -> not s.se_cumulative) ss in
        match ss with
        | [] -> Float.nan
        | _ -> List.fold_left (fun a s -> a +. s.se_vals.(slot)) 0. ss
      end)

(* Quantile estimate over the window: reassemble a bucket distribution
   from the per-tick bucket deltas of every matching histogram series and
   run the shared log2 interpolator on it. *)
let quantile ?(clock = Sim) ?(labels = []) t name ~window_ms q =
  with_lock t (fun () ->
      let ss = matching t name labels (function Bucket _ -> true | _ -> false) in
      match ss with
      | [] -> Float.nan
      | s0 :: _ ->
          let tbl = Hashtbl.create 16 in
          let (), _ =
            fold_window t clock ~window_ms
              (fun () slot ->
                List.iter
                  (fun s ->
                    let le =
                      match snd s.se_key with Bucket le -> le | _ -> 0.
                    in
                    let prev =
                      Option.value ~default:0. (Hashtbl.find_opt tbl le)
                    in
                    Hashtbl.replace tbl le (prev +. s.se_vals.(slot)))
                  ss)
              ()
          in
          let buckets =
            Hashtbl.fold (fun le n acc -> (le, int_of_float n) :: acc) tbl []
            |> List.filter (fun (_, n) -> n > 0)
            |> List.sort compare
          in
          let count = List.fold_left (fun a (_, n) -> a + n) 0 buckets in
          Metrics.quantile_of ~base:s0.se_base buckets count q)

(* The raw per-tick points of a metric (summed across matching series),
   oldest first — the shell's [.series] table. Cumulative metrics yield
   per-tick increases, gauges their samples. *)
let points ?(labels = []) t name =
  with_lock t (fun () ->
      let ss =
        matching t name labels (function
          | Value -> true
          | Count -> true
          | _ -> false)
      in
      (* a histogram contributes its Count; a counter/gauge its Value *)
      let ss =
        match List.filter (fun s -> snd s.se_key = Value) ss with
        | [] -> ss
        | vs -> vs
      in
      let out = ref [] in
      for i = t.n - 1 downto 0 do
        let slot = (t.pos - t.n + i + (2 * t.capacity)) mod t.capacity in
        let v = List.fold_left (fun a s -> a +. s.se_vals.(slot)) 0. ss in
        out := (t.wall.(slot), t.sim.(slot), v) :: !out
      done;
      !out)

let names t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun ((n, _), _) _ acc -> if List.mem n acc then acc else n :: acc)
        t.series []
      |> List.sort compare)

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.series;
      t.pos <- 0;
      t.n <- 0;
      t.last_wall <- neg_infinity)

(* The process-wide instance the serving layer ticks and the shell reads. *)
let default = create ()
let shared () = default
