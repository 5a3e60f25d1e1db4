(* Admission control for the serving layer: a bounded count of in-flight
   requests (queued + executing), shed tiers by priority class, and an
   optional estimated-cost shed once the queue is half full.

   The controller is deliberately tiny: one mutex around an integer. It is
   consulted once per request — nanoseconds next to the I/O a query performs
   — which is what keeps the admission overhead invisible at nominal load. *)

module C = Svr_core
module M = Svr_obs.Metrics

type cls = Query | Update | Maintenance

let cls_name = function
  | Query -> "query"
  | Update -> "update"
  | Maintenance -> "maintenance"

type rejection = { reason : string; retry_after_ms : float }

type t = {
  bound : int;
  policy : C.Config.shed_policy;
  health : (unit -> Svr_obs.Health.state) option;
  mu : Mutex.t;
  mutable depth : int; (* requests admitted and not yet released *)
  mutable admitted : int;
  mutable shed : int;
  admitted_c : (cls * M.counter) list;
  shed_c : ((cls * string) * M.counter) list; (* by (class, verdict) *)
}

let create ?(policy = C.Config.Depth) ?health ~bound () =
  if bound < 1 then invalid_arg "Admission.create: bound must be >= 1";
  let classes = [ Query; Update; Maintenance ] in
  let admitted_c =
    List.map
      (fun c ->
        ( c,
          M.counter ~labels:[ ("class", cls_name c) ]
            ~help:"requests admitted by admission control" "svr_admitted_total"
        ))
      classes
  and shed_c =
    List.concat_map
      (fun c ->
        List.map
          (fun why ->
            ( (c, why),
              M.counter
                ~labels:[ ("class", cls_name c); ("reason", why) ]
                ~help:"requests shed by admission control" "svr_shed_total" ))
          [ "critical"; "depth"; "cost" ])
      classes
  in
  { bound; policy; health; mu = Mutex.create (); depth = 0; admitted = 0;
    shed = 0; admitted_c; shed_c }

let bound t = t.bound
let policy t = t.policy
let depth t = Mutex.protect t.mu (fun () -> t.depth)
let admitted t = Mutex.protect t.mu (fun () -> t.admitted)
let shed t = Mutex.protect t.mu (fun () -> t.shed)

(* Background work is shed first: the tier ladder admits maintenance only
   below half the bound, updates below three quarters, queries up to the
   full bound. Under a flash crowd the queue fills from the bottom tier
   up, so the capacity that remains serves the traffic the deadline
   actually covers. A [Degraded] health state pushes every class one tier
   down the same ladder — queries start shedding at three quarters before
   queue-wait alone would blow their deadline — and [Critical] admits
   nothing this controller gates (DDL is never gated, so schema repair
   still runs). *)
let tiers t = [| t.bound; t.bound * 3 / 4; t.bound / 2; t.bound / 4 |]

let cls_tier = function Query -> 0 | Update -> 1 | Maintenance -> 2

let health_state t =
  match t.health with
  | None -> Svr_obs.Health.Healthy
  | Some f -> f ()

(* The retry multiplier under pressure: a degraded system asks clients to
   back off twice as long, a critical one eight times — pacing the retry
   storm down instead of re-shedding the same requests. *)
let health_retry_scale = function
  | Svr_obs.Health.Healthy -> 1.
  | Svr_obs.Health.Degraded _ -> 2.
  | Svr_obs.Health.Critical -> 8.

let record_shed t cls why =
  t.shed <- t.shed + 1;
  M.inc (List.assoc (cls, why) t.shed_c)

(* The retry hint assumes the queue drains roughly one request per
   millisecond of simulated work — coarse, but it scales with the backlog,
   which is the property a backoff loop needs. *)
let retry_after ?(scale = 1.) t = scale *. float_of_int (t.depth + 1)

let try_admit t ?est_cost_ms ?deadline_ms cls =
  let hs = health_state t in
  let scale = health_retry_scale hs in
  let r =
    Mutex.protect t.mu (fun () ->
        match hs with
        | Svr_obs.Health.Critical ->
            record_shed t cls "critical";
            Error
              {
                reason =
                  Printf.sprintf
                    "critical: admission closed to %s traffic until health \
                     recovers"
                    (cls_name cls);
                retry_after_ms = retry_after ~scale t;
              }
        | hs ->
        let tier =
          cls_tier cls
          + (match hs with Svr_obs.Health.Degraded _ -> 1 | _ -> 0)
        in
        let lim = (tiers t).(tier) in
        if t.depth >= lim then begin
          record_shed t cls "depth";
          Error
            {
              reason =
                Printf.sprintf
                  "overloaded: %d requests in flight, %s class admits at \
                   most %d of the queue bound %d%s"
                  t.depth (cls_name cls) lim t.bound
                  (match hs with
                  | Svr_obs.Health.Degraded _ -> " (tightened: degraded)"
                  | _ -> "");
              retry_after_ms = retry_after ~scale t;
            }
        end
        else
          let cost_shed =
            match (t.policy, est_cost_ms, deadline_ms) with
            | C.Config.Cost, Some est, Some dl ->
                (* once half the queue is occupied, a query whose estimated
                   cost already exceeds its whole deadline would only time
                   out after consuming a slot — shed it while it is cheap *)
                2 * t.depth >= t.bound && est > dl
            | _ -> false
          in
          if cost_shed then begin
            record_shed t cls "cost";
            Error
              {
                reason =
                  Printf.sprintf
                    "overloaded: estimated cost %.2f ms exceeds the %.2f ms \
                     deadline with %d requests already in flight"
                    (Option.get est_cost_ms) (Option.get deadline_ms) t.depth;
                retry_after_ms = retry_after ~scale t;
              }
          end
          else begin
            t.depth <- t.depth + 1;
            t.admitted <- t.admitted + 1;
            Ok ()
          end)
  in
  (match r with
  | Ok () -> M.inc (List.assoc cls t.admitted_c)
  | Error { reason; retry_after_ms } ->
      (* the request never ran, so no trace will retain it — leave the
         verdict where [.slow] can answer "why did this one vanish" *)
      Svr_obs.Slow_log.note
        ~attrs:
          [ ("class", cls_name cls);
            ("retry_after_ms", Printf.sprintf "%.0f" retry_after_ms) ]
        ~kind:"shed" ~reason ());
  r

let release t =
  Mutex.protect t.mu (fun () ->
      if t.depth <= 0 then invalid_arg "Admission.release: nothing in flight";
      t.depth <- t.depth - 1)
