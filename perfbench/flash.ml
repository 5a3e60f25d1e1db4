(* served_flash: an open loop over loopback TCP against the network front
   door, configured as bin/svr_serve configures it: 2 worker domains,
   [Health.current] admission and a Timeseries + Health tick, serving a
   Chunk/varint index built with [Env.create]'s defaults (4 KiB pages).
   The server runs in this process; its listener and connection threads
   live on the main domain.

   The load generator is one separate domain (so it never shares a
   runtime lock with the listener threads) with two threads and one
   pipelined connection. The sender walks a seeded Poisson schedule:
   queries are sent at their scheduled times, and flash-crowd score
   updates are applied in process at theirs, each mirrored into the
   oracle. The reader takes replies. A query's latency counts from its
   scheduled time, so a stalled generator or server charges the wait to
   every request behind it; how late the sender ran is reported.

   Phases: [nominal_rate] for half the run, a short idle gap that lets the
   nominal phase drain, then the [ladder] of rates. A rung passes when its
   tail latency is within [limit_ms], at most [max_fail] of its requests
   failed or were shed, and the backlog at its end is no more than the
   limit allows; [max_qps] is the answered rate of the highest passing
   rung below the ladder's knee. Overload answers on the ladder (shed, timed out) are its
   measurement, not failures of the run; at the nominal rate they count as
   failures. The run ends with a quiesced replay of every distinct query
   over the wire, checked bit-exact against the oracle. *)

module Core = Svr_core
module St = Svr_storage
module W = Svr_workload
module Net = Svr_net
module Conn = Net.Client.Conn
module Obs = Svr_obs
module E = Obs.Events
module B = Stat.Buf

let docs = 1200
let terms_per_doc = 50
let vocab = 800
let domains = 2
let queue_bound = 64
let deadline_ms = 250.0
let limit_ms = 100.0
let max_fail = 0.01
let nominal_rate = 300.0
(* geometric, 8% apart: 600 q/s to past twice the nominal host's knee *)
let ladder = List.init 18 (fun i -> 600.0 *. (1.08 ** float_of_int i))
let update_rate = 50.0
let gap_s = 0.5
let warmup = 32
let n_setups = 3
let scrapes = 5
let k = 10
let host = "127.0.0.1"

let config =
  { Core.Config.default with
    Core.Config.analyzer = W.Corpus_gen.analyzer; codec = Core.Types.Varint }

(* The observation heartbeat svr_serve installs, timed from outside. *)
let tick_us = Atomic.make (B.create ())
let tick_mu = Mutex.create ()

let tick () =
  let t0 = Probe.now () in
  Obs.Timeseries.maybe_tick (Obs.Timeseries.shared ());
  ignore (Obs.Health.evaluate ());
  let dt = Probe.now () -. t0 in
  Mutex.protect tick_mu (fun () -> B.add (Atomic.get tick_us) (dt *. 1e6))

(* -- request bookkeeping, shared by the sender and reader threads ----- *)

type status = Unsent | Pending | Complete | Partial | Refused | Broken

(* A connection and the epoch that names it. When one dies, every request
   still pending on it is resolved as broken and the sender opens the
   next, up to [max_links]. *)
let max_links = 8

type link = { conn : Conn.t; id : int; mutable dead : bool }

type reqs = {
  mu : Mutex.t;
  lcv : Condition.t;  (** a new link was opened *)
  status : status array;
  sched : float array;  (** absolute scheduled send time *)
  sent : float array;
  recvd : float array;
  phase : int array;
  epoch : int array;  (** which link carried it *)
  root : int array;  (** span id of the request's root span, -1 untraced *)
  link_pending : int array;
  links : link Queue.t;  (** opened, not yet taken by the reader *)
  mutable current : link;
  mutable resolved : int;
  mutable pending : int;
  mutable nominal_left : int;
  mutable reconnects : int;
  mutable aborted : bool;  (** the sender died; stop waiting *)
  port : int;
}

(* [r.mu] held. Shed and timed-out answers are failures at the nominal
   rate only; on the ladder they are what the rung measures. *)
let resolve (ctx : Ctx.t) r i st at =
  if r.status.(i) = Pending then begin
    r.status.(i) <- st;
    r.recvd.(i) <- at;
    r.resolved <- r.resolved + 1;
    r.pending <- r.pending - 1;
    r.link_pending.(r.epoch.(i)) <- r.link_pending.(r.epoch.(i)) - 1;
    (match st with
    | Broken -> Acct.fail ctx.Ctx.acct
    | Refused when r.phase.(i) = 0 -> Acct.fail ctx.Ctx.acct
    | _ -> ());
    if r.phase.(i) = 0 then r.nominal_left <- r.nominal_left - 1
  end

(* [r.mu] held: the link died; everything still pending on it is lost *)
let kill_link ctx r (l : link) at =
  if not l.dead then begin
    l.dead <- true;
    Array.iteri
      (fun i st -> if st = Pending && r.epoch.(i) = l.id then resolve ctx r i Broken at)
      r.status
  end

let connect port = Conn.connect ~host ~port ()

(* [r.mu] held *)
let open_link r id =
  let l = { conn = connect r.port; id; dead = false } in
  r.current <- l;
  Queue.push l r.links;
  Condition.broadcast r.lcv;
  l

(* -- set-up ----------------------------------------------------------- *)

let setup (ctx : Ctx.t) corpus queries () =
  let scores = W.Corpus_gen.scores corpus in
  let idx =
    Core.Index.build ~env:(St.Env.create ()) Core.Index.Chunk config
      ~corpus:(W.Corpus_gen.corpus_seq corpus)
      ~scores:(fun d -> scores.(d))
  in
  let srv =
    Net.Server.create ~domains ~queue_bound ~health:Obs.Health.current ~tick idx
  in
  (* warm-up: one pipelined burst, answered before timing starts; a burst,
     not a serial trickle, so the server's first requests run concurrently
     as the measured ones will *)
  let c = connect (Net.Server.port srv) in
  let outstanding = Atomic.make 0 in
  Atomic.set ctx.Ctx.outstanding (fun () -> Atomic.get outstanding);
  for i = 0 to warmup - 1 do
    Acct.attempt ctx.Ctx.acct;
    match Conn.send c ~id:i ~deadline_ms queries.(i mod Array.length queries) ~k with
    | Ok () -> Atomic.incr outstanding
    | Error _ -> Acct.fail ctx.Ctx.acct
  done;
  while Atomic.get outstanding > 0 do
    (match Conn.recv c () with
    | Ok (_, (Net.Wire.Complete _ | Net.Wire.Partial _)) -> ()
    | Ok _ -> Acct.fail ctx.Ctx.acct
    | Error e -> failwith ("warm-up: " ^ Net.Client.error_to_string e));
    Atomic.decr outstanding
  done;
  Conn.goodbye c;
  (idx, scores, srv)

(* -- the load generator ------------------------------------------------ *)

type sender_out = {
  lag_ms : B.t;
  upd_us : B.t;  (** nominal-phase update calls *)
  mutable depth_max : int;
  backlog : int array;  (** requests pending when each phase ended *)
}

let sender (ctx : Ctx.t) r idx oracle cur ~queries ~ops ~(events : Sched.event array)
    ~t_base ~phase_end ~adm (out : sender_out) =
  let n_phases = Array.length phase_end in
  let cur_phase = ref 0 in
  let close_phases_before t =
    while !cur_phase < n_phases && t >= phase_end.(!cur_phase) do
      out.backlog.(!cur_phase) <- Mutex.protect r.mu (fun () -> r.pending);
      incr cur_phase
    done
  in
  Array.iter
    (fun (ev : Sched.event) ->
      let at = t_base +. ev.Sched.at in
      let d = at -. Probe.now () in
      if d > 0.0 then Thread.delay d;
      close_phases_before (Probe.now () -. t_base);
      match ev.Sched.kind with
      | `Query i ->
          let traced = Common.traced ctx i (Array.length queries) in
          Acct.attempt ctx.Ctx.acct;
          let link =
            Mutex.protect r.mu (fun () ->
                let l =
                  if r.current.dead && r.current.id + 1 < max_links then begin
                    r.reconnects <- r.reconnects + 1;
                    open_link r (r.current.id + 1)
                  end
                  else r.current
                in
                r.status.(i) <- Pending;
                r.pending <- r.pending + 1;
                r.link_pending.(l.id) <- r.link_pending.(l.id) + 1;
                r.sched.(i) <- at;
                r.phase.(i) <- ev.Sched.phase;
                r.epoch.(i) <- l.id;
                if traced then r.root.(i) <- Spans.fresh ctx.Ctx.spans;
                r.sent.(i) <- Probe.now ();
                if l.dead then resolve ctx r i Broken r.sent.(i);
                l)
          in
          let t0 = r.sent.(i) in
          B.add out.lag_ms ((t0 -. at) *. 1000.0);
          if ev.Sched.phase = 0 then
            out.depth_max <- max out.depth_max (Svr_serve.Admission.depth adm);
          if not link.dead then begin
            let res =
              Conn.send link.conn ~id:i ~deadline_ms
                queries.(i mod Array.length queries) ~k
            in
            Ctx.span ctx ~on:traced ~name:"client.send" ~parent:r.root.(i) ~req:i
              t0 (Probe.now ());
            match res with
            | Ok () -> ()
            | Error _ -> Mutex.protect r.mu (fun () -> kill_link ctx r link (Probe.now ()))
          end
      | `Update j ->
          let op = ops.(j mod Array.length ops) in
          let doc = op.W.Update_gen.doc in
          let s = W.Update_gen.apply op ~current:cur.(doc) in
          cur.(doc) <- s;
          Acct.attempt ctx.Ctx.acct;
          let traced = Common.traced ctx j (Array.length ops) in
          let root = Spans.fresh ctx.Ctx.spans in
          let t0 = Probe.now () in
          Core.Index.score_update idx ~doc s;
          let t1 = Probe.now () in
          if ev.Sched.phase = 0 then B.add out.upd_us ((t1 -. t0) *. 1e6);
          Ctx.span ctx ~on:traced ~name:"index.score_update" ~parent:root
            ~req:(-1 - j) t0 t1;
          Ctx.span ctx ~on:traced ~id:root ~name:"op.update" ~parent:(-1)
            ~req:(-1 - j) t0 t1;
          Core.Oracle.score_update oracle ~doc s)
    events;
  let horizon = phase_end.(n_phases - 1) in
  let d = t_base +. horizon -. Probe.now () in
  if d > 0.0 then Thread.delay d;
  close_phases_before horizon

(* Reads replies until every request is resolved; [on_nominal_done] runs
   once, as soon as the last nominal-phase request has resolved. *)
let reader (ctx : Ctx.t) r ~on_nominal_done =
  let n = Array.length r.status in
  let nominal_seen = ref false in
  let check_nominal () =
    if (not !nominal_seen) && Mutex.protect r.mu (fun () -> r.nominal_left = 0)
    then begin
      nominal_seen := true;
      on_nominal_done ()
    end
  in
  let next_link () =
    Mutex.protect r.mu (fun () ->
        while Queue.is_empty r.links && r.resolved < n && not r.aborted do
          Condition.wait r.lcv r.mu
        done;
        Queue.take_opt r.links)
  in
  (* read [l] while replies can still arrive on it: it is alive, and it is
     either still the link new requests go to or has requests pending *)
  let rec drain (l : link) =
    check_nominal ();
    let go =
      Mutex.protect r.mu (fun () ->
          (not l.dead) && r.resolved < n
          && (r.current == l || r.link_pending.(l.id) > 0))
    in
    if go then begin
      let t_call = Probe.now () in
      match Conn.recv l.conn () with
      | Ok (i, outcome) when i >= 0 && i < n && r.epoch.(i) = l.id ->
          let at = Probe.now () in
          let st =
            match outcome with
            | Net.Wire.Complete _ -> Complete
            | Net.Wire.Partial _ -> Partial
            | Net.Wire.Timed_out _ | Net.Wire.Rejected _ -> Refused
            | Net.Wire.Server_error _ -> Broken
          in
          Mutex.protect r.mu (fun () -> resolve ctx r i st at);
          let root = r.root.(i) in
          if root >= 0 then begin
            Ctx.span ctx ~on:true ~name:"client.recv" ~parent:root ~req:i t_call at;
            Ctx.span ctx ~on:true ~id:root ~name:"op.query" ~parent:(-1) ~req:i
              r.sent.(i) at
          end;
          drain l
      | Ok _ | Error _ ->
          (* a reply that names no request of this link, or a dead
             connection: nothing more on it can be trusted *)
          Mutex.protect r.mu (fun () -> kill_link ctx r l (Probe.now ()));
          drain l
    end
  in
  let rec loop () =
    match next_link () with
    | None -> ()
    | Some l ->
        drain l;
        (if l.dead then Conn.close else Conn.goodbye) l.conn;
        loop ()
  in
  loop ();
  check_nominal ()

(* -- after the load ---------------------------------------------------- *)

(* One plain-HTTP GET on the server's port; returns the bytes received. *)
let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\nHost: localhost\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Bytes.create 65536 in
      let rec go total =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> total
        | n -> go (total + n)
      in
      go 0)

(* Every distinct query once more over the wire, with no updates running
   and no deadline, compared bit for bit with the oracle. Shed answers
   are retried: health may still be recovering from the ladder's top. *)
let replay (ctx : Ctx.t) port oracle queries =
  let c = ref (connect port) in
  Array.iter
    (fun q ->
      Acct.attempt ctx.Ctx.acct;
      let rec go tries =
        if not (Conn.alive !c) then c := connect port;
        match Conn.query !c q ~k with
        | Ok (Net.Wire.Complete got) ->
            if got <> Core.Oracle.top_k oracle q ~k then Acct.mismatch ctx.Ctx.acct
        | Error (Net.Client.Rejected _) when tries > 0 ->
            Thread.delay 0.02;
            go (tries - 1)
        | Ok _ | Error _ -> Acct.fail ctx.Ctx.acct
      in
      go 250)
    queries;
  Conn.goodbye !c

type snap = {
  at : float;
  ring : E.record list;
  io_q : St.Stats.counters;  (** every domain but the generator's *)
  io_u : St.Stats.counters;  (** the generator's domain: the updates *)
  gc : Gc.stat;
  reg : Probe.registry;
  admitted : int;
  shed : int;
}

let io_split env ~gen_domain =
  let q = St.Stats.zero () and u = St.Stats.zero () in
  List.iter
    (fun (d, c) -> Probe.io_add (if d = gen_domain then u else q) c)
    (St.Stats.per_domain (St.Env.stats env));
  (q, u)

let snapshot env adm ~gen_domain =
  let io_q, io_u = io_split env ~gen_domain in
  { at = Probe.now (); ring = E.recent (); io_q; io_u; gc = Gc.quick_stat ();
    reg = Probe.registry (); admitted = Svr_serve.Admission.admitted adm;
    shed = Svr_serve.Admission.shed adm }

let answered st = st = Complete || st = Partial

(* The ladder's verdict: the answered rate of the highest passing rung
   below the knee ({!Stat.knee}). Near the knee a momentary stall can
   overfill the queue and fail one rung, and a rung above a sustained
   failure can pass while health-driven shedding recovers; neither alone
   moves the result. *)
let ladder_max rungs =
  match Stat.knee (Array.of_list (List.map fst rungs)) with
  | None -> 0.0
  | Some i -> snd (List.nth rungs i)

let measure (ctx : Ctx.t) corpus queries idx scores srv setup_s =
  let env = Core.Index.env idx in
  let port = Net.Server.port srv in
  let adm = Svr_serve.Server.admission (Net.Server.serve srv) in
  let oracle = Core.Oracle.create config in
  Core.Oracle.load oracle ~corpus:(W.Corpus_gen.corpus_seq corpus)
    ~scores:(fun d -> scores.(d));
  let cur = Array.copy scores in
  let ops =
    W.Update_gen.generate
      { W.Update_gen.defaults with
        W.Update_gen.n_updates = 1 lsl 14; focus_update_pct = 0.5;
        seed = ctx.seed + 2 }
      ~scores
  in
  let nominal_s = ctx.seconds *. 0.5 in
  let rung_s = ctx.seconds *. 0.5 /. float_of_int (List.length ladder) in
  let phases =
    { Sched.rate = nominal_rate; start = 0.0; duration = nominal_s }
    :: List.mapi
         (fun i rate ->
           { Sched.rate; start = nominal_s +. gap_s +. (float_of_int i *. rung_s);
             duration = rung_s })
         ladder
  in
  let phase_end = Array.of_list (List.map (fun p -> p.Sched.start +. p.Sched.duration) phases) in
  let n_phases = Array.length phase_end in
  let events = Sched.build ~seed:(ctx.seed + 3) ~phases ~update_rate in
  let nq =
    Array.fold_left (fun n e -> match e.Sched.kind with `Query _ -> n + 1 | `Update _ -> n) 0 events
  in
  let n_nominal =
    Array.fold_left
      (fun n e -> match e.Sched.kind with `Query _ when e.Sched.phase = 0 -> n + 1 | _ -> n)
      0 events
  in
  let l0 = { conn = connect port; id = 0; dead = false } in
  let r =
    { mu = Mutex.create (); lcv = Condition.create ();
      status = Array.make nq Unsent; sched = Array.make nq 0.0;
      sent = Array.make nq 0.0; recvd = Array.make nq 0.0;
      phase = Array.make nq 0; epoch = Array.make nq 0;
      root = Array.make nq (-1); link_pending = Array.make max_links 0;
      links = Queue.create (); current = l0; resolved = 0; pending = 0;
      nominal_left = n_nominal; reconnects = 0; aborted = false; port }
  in
  Queue.push l0 r.links;
  Atomic.set ctx.Ctx.outstanding (fun () -> r.pending);
  let out =
    { lag_ms = B.create (); upd_us = B.create (); depth_max = 0;
      backlog = Array.make n_phases 0 }
  in
  E.clear ();
  Atomic.set tick_us (B.create ());
  let reg0 = Probe.registry () in
  let gen_domain = Atomic.make (-1) in
  let nominal = ref None in
  let failure = ref None in
  let start = ref (Probe.now ()) and snap0 = ref None in
  let gen =
    Domain.spawn (fun () ->
        Atomic.set gen_domain (Domain.self () :> int);
        snap0 := Some (snapshot env adm ~gen_domain:(Domain.self () :> int));
        let on_nominal_done () =
          nominal := Some (snapshot env adm ~gen_domain:(Domain.self () :> int))
        in
        let rd =
          Thread.create
            (fun () ->
              try reader ctx r ~on_nominal_done
              with e -> failure := Some ("reader: " ^ Printexc.to_string e))
            ()
        in
        let t_base = Probe.now () +. 0.05 in
        start := t_base;
        (try
           sender ctx r idx oracle cur ~queries ~ops ~events ~t_base ~phase_end
             ~adm out
         with e ->
           failure := Some ("sender: " ^ Printexc.to_string e);
           Mutex.protect r.mu (fun () ->
               r.aborted <- true;
               kill_link ctx r r.current (Probe.now ());
               Condition.broadcast r.lcv));
        Thread.join rd)
  in
  Domain.join gen;
  Option.iter failwith !failure;
  let reg_end = Probe.registry () in
  let gen_domain = Atomic.get gen_domain in
  let s0 = Option.get !snap0 in
  let sn = match !nominal with Some s -> s | None -> snapshot env adm ~gen_domain in
  replay ctx port oracle queries;
  let scrape_ms =
    Array.init scrapes (fun _ ->
        let t0 = Probe.now () in
        if http_get port "/metrics.json" = 0 then failwith "empty /metrics.json";
        (Probe.now () -. t0) *. 1000.0)
  in
  (* -- nominal phase --------------------------------------------------- *)
  let idx_of p = List.filter (fun i -> r.phase.(i) = p && r.status.(i) <> Unsent) (List.init nq Fun.id) in
  let nom = idx_of 0 in
  let nom_ans = List.filter (fun i -> answered r.status.(i)) nom in
  let n_ans = List.length nom_ans in
  let ms_of f l = Array.of_list (List.map (fun i -> f i *. 1000.0) l) in
  let lat = Stat.summarize (ms_of (fun i -> r.recvd.(i) -. r.sched.(i)) nom_ans) in
  let rtt = ms_of (fun i -> r.recvd.(i) -. r.sent.(i)) nom_ans in
  let served =
    List.filter
      (fun e -> e.E.ev_cls = "query" && e.E.ev_terminal <> E.Shed && e.E.ev_wall_s >= !start)
      sn.ring
  in
  let ring f = Array.of_list (List.map f served) in
  let wait = Stat.summarize (ring (fun e -> e.E.ev_queue_wait_ms)) in
  (* [ev_service_ms] is recorded submit-to-terminal, queue wait included *)
  let exec = Stat.summarize (ring (fun e -> e.E.ev_service_ms -. e.E.ev_queue_wait_ms)) in
  let service = Stat.summarize (ring (fun e -> e.E.ev_service_ms)) in
  let n_upd = B.length out.upd_us in
  let upd = Stat.summarize (B.to_array out.upd_us) in
  let partials = List.length (List.filter (fun i -> r.status.(i) = Partial) nom_ans) in
  (* -- the ladder ------------------------------------------------------ *)
  let rungs =
    List.mapi
      (fun j rate ->
        let p = j + 1 in
        let ids = idx_of p in
        let sent = List.length ids in
        let ans = List.filter (fun i -> answered r.status.(i)) ids in
        (* a failed or shed request misses any latency limit *)
        let lat =
          Stat.summarize
            (Array.of_list
               (List.map
                  (fun i ->
                    if answered r.status.(i) then (r.recvd.(i) -. r.sched.(i)) *. 1000.0
                    else infinity)
                  ids))
        in
        let fail = if sent = 0 then 1.0 else 1.0 -. float_of_int (List.length ans) /. float_of_int sent in
        let backlog = out.backlog.(p) in
        let pass =
          sent > 0 && lat.Stat.tail <= limit_ms && fail <= max_fail
          && float_of_int backlog <= Float.max 4.0 (rate *. limit_ms /. 1000.0)
        in
        let achieved = float_of_int (List.length ans) /. rung_s in
        Printf.eprintf
          "  rung %5.0f q/s: sent %4d answered %4d p%.1f %8.2f ms fail %.3f backlog %3d -> %s\n%!"
          rate sent (List.length ans) (100.0 *. lat.Stat.tail_q) lat.Stat.tail fail backlog
          (if pass then "pass" else "FAIL");
        (pass, achieved))
      ladder
  in
  let max_qps = ladder_max rungs in
  let all_ans = Array.fold_left (fun n st -> if answered st then n + 1 else n) 0 r.status in
  let all_sent = Array.fold_left (fun n st -> if st <> Unsent then n + 1 else n) 0 r.status in
  Printf.eprintf
    "served_flash: nominal %d sent, %d answered (%d partial); %d oracle mismatches\n%!"
    (List.length nom) n_ans partials (Acct.mismatches ctx.Ctx.acct);
  Common.report_timing "nominal query (from schedule)" lat ~unit_:"ms";
  Common.report_timing "nominal update" upd ~unit_:"us";
  Common.report_timing "server queue wait (Events)" wait ~unit_:"ms";
  Common.report_timing "generator lag" (Stat.summarize (B.to_array out.lag_ms)) ~unit_:"ms";
  let e2e =
    [ ("setup_s", setup_s);
      ("ops_per_s", float_of_int (n_ans + n_upd) /. nominal_s);
      ("max_qps", max_qps);
      ("query_alloc_words", Probe.perf n_ans (Probe.alloc_words s0.gc sn.gc));
      ("index_bytes_per_posting", Ctx.bytes_per_posting idx);
      ("peak_heap_mb", Probe.peak_heap_mb ());
      ("ok_frac", 1.0 -. Acct.fail_frac ctx.Ctx.acct) ]
  in
  let layer () =
    let spans = Spans.to_array ctx.Ctx.spans in
    let selfs = Spans.self_times spans in
    let us = Stat.summarize (Spans.self_of spans selfs "index.score_update") in
    let io_q = Probe.io_diff ~after:sn.io_q ~before:s0.io_q in
    let io_u = Probe.io_diff ~after:sn.io_u ~before:s0.io_u in
    let wall = Probe.hist_delta ~before:s0.reg ~after:sn.reg "svr_query_wall_ms" in
    let traced, plain = List.partition (fun i -> r.root.(i) >= 0) nom_ans in
    [ ("query_p50_ms", lat.Stat.p50);
      ("query_p99_ms", lat.Stat.tail);
      ("query_sim_ms", Probe.perf n_ans (St.Stats.simulated_ms ~cost:(St.Env.cost env) io_q));
      ("update_p50_us", upd.Stat.p50);
      ("update_p99_us", upd.Stat.tail);
      ("fail_frac", Acct.fail_frac ctx.Ctx.acct);
      ("partial_frac", Probe.per n_ans partials);
      Probe.scan_depth ~before:s0.reg ~after:sn.reg;
      ("planner.estimate_us", Common.estimate_us idx queries);
      ("index.query_self_p50_ms", Probe.hist_quantile wall 0.5);
      ("index.query_self_p99_ms", Probe.hist_quantile wall 0.99);
      ("update.self_p50_us", us.Stat.p50 *. 1e6);
      ("update.self_p99_us", us.Stat.tail *. 1e6);
      ("short_list.postings_peak", float_of_int (Core.Index.short_list_postings idx));
      ("serve.queue_wait_p50_ms", wait.Stat.p50);
      ("serve.queue_wait_p99_ms", wait.Stat.tail);
      ("serve.exec_p50_ms", exec.Stat.p50);
      ("serve.exec_p99_ms", exec.Stat.tail);
      ("serve.admitted", float_of_int (sn.admitted - s0.admitted));
      ("serve.shed", float_of_int (sn.shed - s0.shed));
      ("serve.depth_max", float_of_int out.depth_max);
      ("net.overhead_p50_ms", Stat.quantile rtt 0.5 -. service.Stat.p50);
      ("net.reconnects", float_of_int r.reconnects);
      ("net.conn_errors",
        float_of_int (Probe.counter_delta ~before:reg0 ~after:reg_end "svr_net_conn_errors_total"));
      ("obs.tick_p99_us", (Stat.summarize (B.to_array (Atomic.get tick_us))).Stat.tail);
      ("obs.scrape_ms", Stat.quantile scrape_ms 0.5);
      ("bench.gen_lag_p99_ms", (Stat.summarize (B.to_array out.lag_ms)).Stat.tail);
      ("bench.sent", float_of_int all_sent);
      ("bench.answered", float_of_int all_ans);
      ("bench.trace_overhead_frac",
        Common.overhead ~plain:(ms_of (fun i -> r.recvd.(i) -. r.sent.(i)) plain)
          ~traced:(ms_of (fun i -> r.recvd.(i) -. r.sent.(i)) traced)) ]
    @ Probe.query_io ~page_size:4096 ~n:n_ans io_q
    @ Probe.update_io ~cost:(St.Env.cost env) ~n:n_upd io_u
    @ Probe.planner_layer ~before:s0.reg ~after:sn.reg
    @ Probe.gc_layer ~queries:n_ans s0.gc sn.gc
  in
  if ctx.Ctx.trace then layer () else e2e

let run (ctx : Ctx.t) =
  let corpus = Ctx.corpus ~seed:ctx.Ctx.seed ~docs ~terms_per_doc ~vocab in
  let queries =
    Common.pool_queries ~seed:(ctx.Ctx.seed + 1) ~selectivity:W.Query_gen.Medium corpus
  in
  let built, setup_s =
    Ctx.setups ctx ~n:n_setups
      ~release:(fun (_, _, s) -> Net.Server.shutdown s)
      (fun _ -> setup ctx corpus queries ())
  in
  let idx, scores, srv = built.(n_setups - 1) in
  Fun.protect
    ~finally:(fun () -> Net.Server.shutdown srv)
    (fun () -> measure ctx corpus queries idx scores srv setup_s)
