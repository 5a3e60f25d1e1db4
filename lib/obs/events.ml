(* Bounded audit log of request lifecycles. One record per request,
   emitted at its terminal transition with everything the lifecycle
   accumulated — submit wall time, queue wait, service time, the
   admission or budget verdict, the plan strategy, and the trace id (0
   when unsampled) that links the row to its [.explain] tree. A ring of
   records under one mutex: emission is a lock + array store, far from
   any hot loop (at most once per request), and readers copy out under
   the same lock. Terminal counts also land in
   [svr_events_total{terminal}] so the shell's summary line and the
   serial-vs-parallel equality test read them without walking the ring. *)

type terminal = Shed | Complete | Partial | Timed_out | Failed

let terminal_name = function
  | Shed -> "shed"
  | Complete -> "complete"
  | Partial -> "partial"
  | Timed_out -> "timed_out"
  | Failed -> "failed"

let terminals = [ Shed; Complete; Partial; Timed_out; Failed ]

type record = {
  ev_seq : int; (* emission order, process-global *)
  ev_wall_s : float; (* wall clock at the terminal transition *)
  ev_cls : string; (* admission class: query/update/maintenance/- *)
  ev_terminal : terminal;
  ev_reason : string; (* shed verdict or budget-trip reason, "" if none *)
  ev_strategy : string; (* plan strategy, "" if unplanned *)
  ev_queue_wait_ms : float; (* submit -> dequeue, 0 when never queued *)
  ev_service_ms : float; (* submit -> terminal, queue wait included *)
  ev_trace : int; (* trace id for .explain correlation, 0 unsampled *)
}

let capacity = 1024
let mu = Mutex.create ()
let buf : record option array = Array.make capacity None
let pos = ref 0
let seq = ref 0

let terminal_cs =
  List.map
    (fun term ->
      ( term,
        Metrics.counter
          ~labels:[ ("terminal", terminal_name term) ]
          ~help:"request lifecycles by terminal state" "svr_events_total" ))
    terminals

let terminal_c term = List.assoc term terminal_cs

let emit ?(reason = "") ?(strategy = "") ?(queue_wait_ms = 0.)
    ?(service_ms = 0.) ?(trace = 0) ~cls terminal =
  Metrics.inc (terminal_c terminal);
  Mutex.lock mu;
  incr seq;
  buf.(!pos) <-
    Some
      { ev_seq = !seq; ev_wall_s = Clock.now_s (); ev_cls = cls;
        ev_terminal = terminal; ev_reason = reason; ev_strategy = strategy;
        ev_queue_wait_ms = queue_wait_ms; ev_service_ms = service_ms;
        ev_trace = trace };
  pos := (!pos + 1) mod capacity;
  Mutex.unlock mu

let recent ?(n = capacity) () =
  Mutex.lock mu;
  let out = ref [] in
  (* newest first: walk backwards from the last written slot *)
  (try
     for i = 1 to capacity do
       if List.length !out >= n then raise Exit;
       match buf.((!pos - i + (2 * capacity)) mod capacity) with
       | Some r -> out := r :: !out
       | None -> raise Exit
     done
   with Exit -> ());
  Mutex.unlock mu;
  List.rev !out

let counts () =
  List.map (fun t -> (t, Metrics.counter_value (terminal_c t))) terminals

let clear () =
  Mutex.lock mu;
  Array.fill buf 0 capacity None;
  pos := 0;
  seq := 0;
  Mutex.unlock mu

(* -- rendering ------------------------------------------------------------ *)

let render ?(n = 16) () =
  let b = Buffer.create 512 in
  let rows = recent ~n () in
  Buffer.add_string b
    (Printf.sprintf "%-6s %-12s %-11s %9s %9s %6s  %s\n" "seq" "class"
       "terminal" "wait ms" "svc ms" "trace" "reason");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-6d %-12s %-11s %9.2f %9.2f %6s  %s\n" r.ev_seq
           r.ev_cls
           (terminal_name r.ev_terminal)
           r.ev_queue_wait_ms r.ev_service_ms
           (if r.ev_trace = 0 then "-" else string_of_int r.ev_trace)
           (match (r.ev_reason, r.ev_strategy) with
           | "", "" -> "-"
           | "", s -> "plan=" ^ s
           | re, "" -> re
           | re, s -> re ^ " plan=" ^ s)))
    rows;
  let cs =
    counts ()
    |> List.filter (fun (_, n) -> n > 0)
    |> List.map (fun (t, n) -> Printf.sprintf "%s=%d" (terminal_name t) n)
  in
  if cs <> [] then
    Buffer.add_string b ("totals: " ^ String.concat " " cs ^ "\n");
  Buffer.contents b
