(* The overload-safe serving core: a bounded intake queue in front of a
   {!Svr_core.Query_pool}, with per-request budgets whose deadlines count
   from submission (queue wait eats into the allowance).

   One dispatcher domain drains the queue in batches and fans each batch out
   over the pool's worker domains; submitters block on a per-request ticket.
   Admission control caps queued + executing requests, so a flash crowd is
   shed at the cheap end (a mutex-protected integer) instead of piling work
   onto the merge loops. *)

module C = Svr_core
module M = Svr_obs.Metrics
module Obs = Svr_obs

type state =
  | Pending
  | Done of C.Index.outcome
  | Failed of exn

type ticket = {
  tmu : Mutex.t;
  tcv : Condition.t;
  mutable state : state;
}

type request = {
  terms : string list;
  k : int;
  mode : C.Types.mode;
  cls : Admission.cls;
  budget : C.Budget.t;
  ticket : ticket;
  submitted_at : float;
  submitted_sim : float; (* Clock.sim_ms at submission; see serve_one *)
}

type t = {
  index : C.Index.t;
  pool : C.Query_pool.t;
  adm : Admission.t;
  mu : Mutex.t;
  nonempty : Condition.t;
  queue : request Queue.t;
  batch_max : int;
  tick : (unit -> unit) option;
  mutable stop : bool;
  mutable dispatcher : unit Domain.t option;
}

let admission t = t.adm
let index t = t.index

let fulfill tk st =
  Mutex.protect tk.tmu (fun () ->
      tk.state <- st;
      Condition.broadcast tk.tcv)

let queue_wait_hist =
  M.histogram ~base:0.001
    ~help:"time a request spent in the intake queue (ms)"
    "svr_server_queue_wait_ms"

let queue_wait_sim_hist =
  M.histogram ~base:0.001 ~help:"queue wait on the simulated clock (ms)"
    "svr_server_queue_wait_sim_ms"

let service_hists =
  List.map
    (fun cls ->
      ( cls,
        M.histogram ~base:0.001
          ~labels:[ ("class", Admission.cls_name cls) ]
          ~help:
            "submit-to-terminal time of served requests (ms, queue wait \
             included)"
          "svr_server_service_ms" ))
    [ Admission.Query; Admission.Update; Admission.Maintenance ]

let serve_one t r =
  (* Dual-clock audit: the wall deadline dates from submission (the
     budget's [started_at_ms]), and the wall histograms below measure the
     same interval — but the sim-deadline dimension is measured against the
     executing domain's stats cell, which this request has not touched
     while queued. Bill the queue wait observed on the global sim clock
     into the budget here, so under an injected sim source both deadline
     dimensions, the histograms and the [Events] record all describe the
     same submission-dated interval. *)
  let queue_wait = Obs.Clock.now_ms () -. r.submitted_at in
  M.observe queue_wait_hist queue_wait;
  let queue_wait_sim = Obs.Clock.sim_ms () -. r.submitted_sim in
  if queue_wait_sim > 0.0 then begin
    M.observe queue_wait_sim_hist queue_wait_sim;
    C.Budget.charge_sim r.budget queue_wait_sim
  end;
  (* a root span around the whole service makes the trace id available for
     the lifecycle record even though the query opens its own spans *)
  let sp = Obs.Trace.root "serve" in
  if Obs.Trace.is_on sp then
    Obs.Trace.annotate sp "class" (Admission.cls_name r.cls);
  C.Qobs.note_strategy "";
  let st =
    try
      Done
        (C.Index.query_terms_outcome t.index ~mode:r.mode ~budget:r.budget
           r.terms ~k:r.k)
    with e -> Failed e
  in
  let trace = Obs.Trace.trace_id sp in
  Obs.Trace.pop sp;
  let service_ms = Obs.Clock.now_ms () -. r.submitted_at in
  M.observe (List.assoc r.cls service_hists) service_ms;
  let cls = Admission.cls_name r.cls in
  (* the query ran synchronously on this domain, so the plan strategy it
     noted is still in this domain's slot *)
  let strategy = C.Qobs.last_strategy () in
  (match st with
  | Done (C.Index.Complete _) ->
      Obs.Events.emit ~strategy ~queue_wait_ms:queue_wait ~service_ms ~trace
        ~cls Obs.Events.Complete
  | Done (C.Index.Partial { reason; _ }) ->
      Obs.Events.emit ~reason:(C.Budget.reason_name reason) ~strategy
        ~queue_wait_ms:queue_wait ~service_ms ~trace ~cls Obs.Events.Partial
  | Done (C.Index.Timed_out reason) ->
      Obs.Events.emit ~reason:(C.Budget.reason_name reason) ~strategy
        ~queue_wait_ms:queue_wait ~service_ms ~trace ~cls Obs.Events.Timed_out
  | Failed e ->
      Obs.Events.emit ~reason:(Printexc.to_string e) ~strategy
        ~queue_wait_ms:queue_wait ~service_ms ~trace ~cls Obs.Events.Failed
  | Pending -> assert false);
  Admission.release t.adm;
  fulfill r.ticket st

(* Pop up to [max] queued elements in FIFO order. An [Array.init] over
   side-effecting [Queue.pop] calls relied on the unspecified element-order
   evaluation of [Array.init]; the explicit loop guarantees slot [i] holds
   the [i]-th-oldest request. Exposed in the interface so the regression
   test pins the order. *)
let pop_batch_fifo q ~max =
  let n = min (Queue.length q) max in
  if n = 0 then [||]
  else begin
    let b = Array.make n (Queue.pop q) in
    for i = 1 to n - 1 do
      b.(i) <- Queue.pop q
    done;
    b
  end

let rec dispatch_loop t =
  let pop_batch () = pop_batch_fifo t.queue ~max:t.batch_max in
  let batch =
    match t.tick with
    | None ->
        Mutex.protect t.mu (fun () ->
            while Queue.is_empty t.queue && not t.stop do
              Condition.wait t.nonempty t.mu
            done;
            pop_batch ())
    | Some f ->
        (* with an observation hook installed the idle wait must not be
           unconditional: a dispatcher parked on the condition variable
           would freeze health evaluation exactly when [Critical] has
           closed intake — no admits, no work, no ticks, and so no path
           back to [Healthy]. Rejected submissions also signal
           [t.nonempty] (see [submit]), so every wakeup — admitted or
           shed — beats the heartbeat before re-parking. *)
        let rec wait () =
          let b, stopped =
            Mutex.protect t.mu (fun () ->
                if Queue.is_empty t.queue && not t.stop then
                  Condition.wait t.nonempty t.mu;
                (pop_batch (), t.stop))
          in
          if Array.length b > 0 || stopped then b
          else begin
            f ();
            wait ()
          end
        in
        wait ()
  in
  (* the observation heartbeat rides the dispatch cadence: one callback per
     batch (time-series maybe_tick, SLO + health evaluation), nothing when
     no tick hook is installed *)
  (match t.tick with Some f -> f () | None -> ());
  if Array.length batch > 0 then begin
    (* the dispatcher participates in the map as one of the pool's domains *)
    C.Query_pool.map t.pool ~f:(fun i -> serve_one t batch.(i))
      (Array.length batch);
    dispatch_loop t
  end
(* stop && empty: shutdown drains the queue before the dispatcher exits, so
   every admitted request is answered *)

let create ?(domains = 1) ?(queue_bound = C.Config.default.C.Config.queue_bound)
    ?(policy = C.Config.default.C.Config.shed_policy) ?batch_max ?health ?tick
    index =
  let pool = C.Query_pool.create ~domains in
  let batch_max =
    match batch_max with
    | Some b ->
        if b < 1 then invalid_arg "Server.create: batch_max must be >= 1";
        b
    | None -> 4 * domains
  in
  let t =
    {
      index;
      pool;
      adm = Admission.create ~policy ?health ~bound:queue_bound ();
      mu = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      batch_max;
      tick;
      stop = false;
      dispatcher = None;
    }
  in
  (* queue occupancy as a health signal: a queue at 3/4 of its bound means
     queue wait is already eating most deadlines. A full queue is still
     only Warn — saturation is routine load, and reporting Fail here
     would slam intake to Critical (admit nothing) every time a burst
     tops the bound, oscillating Healthy -> Critical instead of settling
     at Degraded. Fail is for sources that are actually broken (an open
     breaker, a raising callback). *)
  Obs.Health.register_source "server-queue" (fun () ->
      let d = Admission.depth t.adm and b = queue_bound in
      if t.stop then Obs.Health.Ok
      else if d >= b then
        Obs.Health.Warn (Printf.sprintf "intake queue full (%d/%d)" d b)
      else if 4 * d >= 3 * b then
        Obs.Health.Warn (Printf.sprintf "intake queue at %d/%d" d b)
      else Obs.Health.Ok);
  t.dispatcher <- Some (Domain.spawn (fun () -> dispatch_loop t));
  t

let shutting_down =
  { Admission.reason = "server is shutting down"; retry_after_ms = infinity }

let submit t ?(mode = C.Types.Conjunctive) ?(cls = Admission.Query)
    ?deadline_ms ?sim_ms ?pages ?blocks terms ~k =
  (* the cost probe reads the statistics catalog only when the policy will
     actually use it, keeping the nominal-load admission cost at one mutex
     round trip *)
  let est_cost_ms =
    match (Admission.policy t.adm, sim_ms) with
    | C.Config.Cost, Some _ -> Some (C.Index.estimate_cost_ms t.index terms)
    | _ -> None
  in
  (* the Cost policy's allowance is the simulated deadline: both sides of
     the comparison then live on the deterministic cost-model clock *)
  match Admission.try_admit t.adm ?est_cost_ms ?deadline_ms:sim_ms cls with
  | Error r ->
      Obs.Events.emit ~reason:r.Admission.reason
        ~cls:(Admission.cls_name cls) Obs.Events.Shed;
      (* a shed is still a signal: wake the dispatcher so the observation
         heartbeat (and with it health recovery) keeps running while
         admission is rejecting everything and the queue stays empty *)
      if t.tick <> None then
        Mutex.protect t.mu (fun () ->
            (* only when empty: with work queued the dispatcher is not
               parked, and a signal would just add lock traffic *)
            if Queue.is_empty t.queue then Condition.signal t.nonempty);
      Error r
  | Ok () -> (
      let budget =
        C.Budget.create ?deadline_ms ?sim_ms ?pages ?blocks
          ~started_at_ms:(Svr_obs.Clock.now_ms ()) ()
      in
      let ticket =
        { tmu = Mutex.create (); tcv = Condition.create (); state = Pending }
      in
      let r =
        {
          terms;
          k;
          mode;
          cls;
          budget;
          ticket;
          submitted_at = Svr_obs.Clock.now_ms ();
          submitted_sim = Svr_obs.Clock.sim_ms ();
        }
      in
      match
        Mutex.protect t.mu (fun () ->
            if t.stop then `Stopped
            else begin
              Queue.push r t.queue;
              Condition.signal t.nonempty;
              `Queued
            end)
      with
      | `Queued -> Ok ticket
      | `Stopped ->
          Admission.release t.adm;
          Error shutting_down)

let await tk =
  let st =
    Mutex.protect tk.tmu (fun () ->
        let rec wait () =
          match tk.state with
          | Pending ->
              Condition.wait tk.tcv tk.tmu;
              wait ()
          | st -> st
        in
        wait ())
  in
  match st with
  | Pending -> assert false
  | Done o -> o
  | Failed e -> raise e

let query t ?mode ?deadline_ms ?sim_ms ?pages ?blocks terms ~k =
  match submit t ?mode ?deadline_ms ?sim_ms ?pages ?blocks terms ~k with
  | Error r -> Error r
  | Ok tk -> Ok (await tk)

let shutdown t =
  let d =
    Mutex.protect t.mu (fun () ->
        if t.stop then None
        else begin
          t.stop <- true;
          Condition.broadcast t.nonempty;
          let d = t.dispatcher in
          t.dispatcher <- None;
          d
        end)
  in
  (match d with Some d -> Domain.join d | None -> ());
  Obs.Health.unregister_source "server-queue";
  C.Query_pool.shutdown t.pool

let with_server ?domains ?queue_bound ?policy ?batch_max ?health ?tick index f =
  let t = create ?domains ?queue_bound ?policy ?batch_max ?health ?tick index in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
