(* Spans form a per-domain stack rooted in domain-local state, so deep
   hooks (a block decode five layers below the query loop) attach to the
   right parent without any plumbing through intermediate signatures.
   Completed spans are pushed into a per-domain ring buffer held in a
   {!Cell}, the substrate Stats and Metrics count on: the hot path never
   locks, aggregation folds over the cells at quiescence.

   The off path: [sampling = 0] keeps [active] false, [root]/[push] return
   the physically-unique [none] sentinel after one atomic load, and every
   other entry point no-ops on [none]. Nothing allocates. *)

type span = {
  s_trace : int;
  s_id : int;
  s_name : string;
  s_parent : span; (* physical; [none] for a trace root *)
  s_parent_id : int;
  s_domain : int;
  s_t0_wall : float;
  s_t0_sim : float;
  mutable s_attrs : (string * string) list;
}

let rec none =
  { s_trace = 0; s_id = 0; s_name = ""; s_parent = none; s_parent_id = 0;
    s_domain = 0; s_t0_wall = 0.; s_t0_sim = 0.; s_attrs = [] }

type event = {
  e_trace : int;
  e_span : int;
  e_parent : int;
  e_name : string;
  e_domain : int;
  e_start_wall : float;
  e_wall_ms : float;
  e_sim_ms : float;
  e_attrs : (string * string) list;
}

let ring_capacity = 8192

type ring = {
  r_domain : int;
  r_buf : event option array;
  mutable r_pos : int; (* next write slot *)
  mutable r_count : int; (* total events ever written *)
}

type ctx = { mutable c_current : span; c_ring : ring }

(* -- global state --------------------------------------------------------- *)

let sampling_a = Atomic.make 0
let force_a = Atomic.make false
let open_roots = Atomic.make 0 (* root traces currently in flight *)

(* sampling > 0 || force pending || a trace still open: a forced trace must
   keep the hot-path gate up after [sampled] consumes the force flag, or
   every span below the root would see "tracing off" and vanish *)
let active_a = Atomic.make false
let sample_ctr = Atomic.make 0
let trace_ctr = Atomic.make 0
let span_ctr = Atomic.make 0
let sim_clock = ref (fun () -> 0.)
let root_hook : (event -> unit) option ref = ref None

let ctxs =
  Cell.create (fun () ->
      { c_current = none;
        c_ring =
          { r_domain = (Domain.self () :> int);
            r_buf = Array.make ring_capacity None; r_pos = 0; r_count = 0 } })

let ctx () = Cell.get ctxs

let refresh_active () =
  Atomic.set active_a
    (Atomic.get sampling_a > 0 || Atomic.get force_a
    || Atomic.get open_roots > 0)

let set_sampling n =
  Atomic.set sampling_a (max 0 n);
  refresh_active ()

let sampling () = Atomic.get sampling_a

(* CI opt-in: run any binary with every n-th operation traced, exercising
   the instrumented paths without touching the code under test *)
let () =
  match Sys.getenv_opt "SVR_TRACE_SAMPLE" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> set_sampling n
      | _ -> ())
  | None -> ()

let force_next () =
  Atomic.set force_a true;
  refresh_active ()

let set_sim_clock f = sim_clock := f
let on_root_finish f = root_hook := Some f
let is_on s = s != none
let hot () = Atomic.get active_a && is_on (ctx ()).c_current
let current () = (ctx ()).c_current
let last_trace_id () = Atomic.get trace_ctr
let trace_id s = s.s_trace

(* -- span lifecycle ------------------------------------------------------- *)

let open_span c ~trace ~parent name =
  let s =
    { s_trace = trace; s_id = Atomic.fetch_and_add span_ctr 1 + 1; s_name = name;
      s_parent = parent; s_parent_id = parent.s_id;
      s_domain = c.c_ring.r_domain; s_t0_wall = Unix.gettimeofday ();
      s_t0_sim = !sim_clock (); s_attrs = [] }
  in
  c.c_current <- s;
  s

let sampled () =
  if Atomic.get force_a && Atomic.compare_and_set force_a true false then begin
    refresh_active ();
    true
  end
  else
    match Atomic.get sampling_a with
    | 0 -> false
    | 1 -> true
    | n -> Atomic.fetch_and_add sample_ctr 1 mod n = 0

let root name =
  if not (Atomic.get active_a) then none
  else
    let c = ctx () in
    if is_on c.c_current then
      (* already inside a trace: nest instead of starting a second one *)
      open_span c ~trace:c.c_current.s_trace ~parent:c.c_current name
    else if sampled () then begin
      Atomic.incr open_roots;
      refresh_active ();
      let trace = Atomic.fetch_and_add trace_ctr 1 + 1 in
      open_span c ~trace ~parent:none name
    end
    else none

let push name =
  if not (Atomic.get active_a) then none
  else
    let c = ctx () in
    if is_on c.c_current then
      open_span c ~trace:c.c_current.s_trace ~parent:c.c_current name
    else none

(* overwriting a retained event means some trace just lost a span — its
   [.explain] tree will render truncated, so make the loss countable *)
let dropped_c =
  Metrics.counter
    ~help:"completed spans overwritten by ring wrap before retrieval"
    "svr_trace_dropped_spans_total"

let record ring ev =
  (match ring.r_buf.(ring.r_pos) with
  | Some _ -> Metrics.inc dropped_c
  | None -> ());
  ring.r_buf.(ring.r_pos) <- Some ev;
  ring.r_pos <- (ring.r_pos + 1) mod ring_capacity;
  ring.r_count <- ring.r_count + 1

let pop s =
  if is_on s then begin
    let c = ctx () in
    let ev =
      { e_trace = s.s_trace; e_span = s.s_id; e_parent = s.s_parent_id;
        e_name = s.s_name; e_domain = s.s_domain;
        e_start_wall = s.s_t0_wall;
        e_wall_ms = (Unix.gettimeofday () -. s.s_t0_wall) *. 1000.;
        e_sim_ms = !sim_clock () -. s.s_t0_sim;
        e_attrs = List.rev s.s_attrs }
    in
    record c.c_ring ev;
    if c.c_current == s then c.c_current <- s.s_parent;
    if not (is_on s.s_parent) then begin
      Atomic.decr open_roots;
      refresh_active ();
      match !root_hook with None -> () | Some f -> f ev
    end
  end

let event ?(attrs = []) name =
  let c = ctx () in
  let cur = c.c_current in
  if is_on cur then
    (* no clock read: instantaneous events report zero duration and inherit
       the parent's start for ordering, keeping the per-block cost at one
       counter bump, one record and one ring store *)
    record c.c_ring
      { e_trace = cur.s_trace; e_span = Atomic.fetch_and_add span_ctr 1 + 1;
        e_parent = cur.s_id; e_name = name; e_domain = c.c_ring.r_domain;
        e_start_wall = cur.s_t0_wall; e_wall_ms = 0.; e_sim_ms = 0.;
        e_attrs = attrs }

let annotate s key value =
  if is_on s then s.s_attrs <- (key, value) :: s.s_attrs

let has_attr s key = is_on s && List.mem_assoc key s.s_attrs

let annotate_f s key value =
  if is_on s then s.s_attrs <- (key, value ()) :: s.s_attrs

(* -- inspection ----------------------------------------------------------- *)

let fold_rings f acc =
  Cell.fold
    (fun acc _ { c_ring = r; _ } ->
      let acc = ref acc in
      let n = min r.r_count ring_capacity in
      for i = 0 to n - 1 do
        match r.r_buf.((r.r_pos - n + i + (2 * ring_capacity)) mod ring_capacity)
        with
        | Some ev -> acc := f !acc ev
        | None -> ()
      done;
      !acc)
    acc ctxs

let trace_events trace =
  fold_rings (fun acc ev -> if ev.e_trace = trace then ev :: acc else acc) []
  |> List.sort (fun a b -> compare a.e_span b.e_span)

let recent_events ?(n = 64) () =
  fold_rings (fun acc ev -> ev :: acc) []
  |> List.sort (fun a b -> compare b.e_span a.e_span)
  |> List.filteri (fun i _ -> i < n)
  |> List.rev

let clear () =
  Cell.fold
    (fun () _ { c_ring = r; _ } ->
      Array.fill r.r_buf 0 ring_capacity None;
      r.r_pos <- 0;
      r.r_count <- 0)
    () ctxs
