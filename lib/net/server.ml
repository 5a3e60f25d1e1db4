(* The TCP front door.

   Thread anatomy: one listener thread accepting; per binary connection a
   reader thread (this connection's main thread) and a writer thread joined
   over a FIFO work queue. The reader decodes frames and either submits to
   the serve core (enqueueing the ticket for the writer to await) or
   enqueues an immediate response (Hello_ack, admission rejection, drain
   notice) — so every byte written to a connection goes through its single
   writer, in FIFO order, and no write mutex is needed. The serve layer's
   dispatcher and query pool stay on domains; connection threads are
   systhreads, which release the runtime lock while blocked in read/write,
   so hundreds of parked connections cost nothing.

   Failure isolation: any decode error (CRC mismatch, bad magic, unknown
   tag) or protocol violation finishes only the offending connection. A
   query that raises inside the engine is answered with [Server_error] on
   the same connection, which stays open.

   Drain: [shutdown] (1) marks the server draining and stops the listener,
   (2) runs [Serve.shutdown], which answers every admitted request — so
   every ticket a writer will ever await is already resolved — then (3)
   pushes a farewell [Finish] to each connection: its writer flushes the
   queued replies, writes a [Drain] frame with the retry-after hint, and
   shuts the socket down, which wakes the reader blocked in [read] with
   EOF. New queries observed while draining get a [Drain] frame instead of
   admission; brand-new connections are refused with the same frame. *)

module Serve = Svr_serve.Server
module C = Svr_core
module M = Svr_obs.Metrics
module E = Svr_storage.Storage_error

let drain_retry_after_ms = 250.0

type item =
  | Immediate of Wire.response
  | Ticket of int * Serve.ticket (* request id, serve ticket *)
  | Finish of { farewell : bool }

type conn = {
  cid : int;
  fd : Unix.file_descr;
  q : item Queue.t;
  qmu : Mutex.t;
  qcv : Condition.t;
  mutable broken : bool; (* write failed: stop writing, keep draining *)
}

type t = {
  serve : Serve.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  max_conns : int;
  handshake_timeout_s : float; (* 0. disables *)
  idle_timeout_s : float option;
  mu : Mutex.t;
  conns_tbl : (int, conn * Thread.t) Hashtbl.t;
  mutable next_cid : int;
  mutable live : int;
  mutable draining : bool;
  mutable shut : bool;
  mutable listener : Thread.t option;
}

let serve t = t.serve
let port t = t.bound_port
let conns t = Mutex.protect t.mu (fun () -> t.live)
let draining t = t.draining

(* -- metrics --------------------------------------------------------------- *)

let conns_total =
  M.counter ~help:"connections accepted" "svr_net_connections_total"

let conn_errors =
  List.map
    (fun kind ->
      ( kind,
        M.counter
          ~labels:[ ("kind", kind) ]
          ~help:"connections closed on error" "svr_net_conn_errors_total" ))
    [ "protocol"; "corrupt"; "io"; "crash"; "idle_timeout";
      "handshake_timeout" ]

let conn_error kind = M.inc (List.assoc kind conn_errors)

let http_total =
  M.counter ~help:"HTTP exchanges served" "svr_net_http_requests_total"

let refused_total =
  M.counter ~help:"connections refused with a drain frame"
    "svr_net_refused_total"

(* -- plumbing -------------------------------------------------------------- *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let push conn item =
  Mutex.protect conn.qmu (fun () ->
      Queue.push item conn.q;
      Condition.signal conn.qcv)

(* -- writer ---------------------------------------------------------------- *)

let send conn resp =
  if not conn.broken then
    try write_all conn.fd (Wire.encode_response resp)
    with Unix.Unix_error _ -> conn.broken <- true

let wire_outcome_of_ticket tk : Wire.outcome =
  match Serve.await tk with
  | C.Index.Complete rs -> Wire.Complete rs
  | C.Index.Partial { results; bound; reason } ->
      Wire.Partial { results; bound; reason }
  | C.Index.Timed_out reason -> Wire.Timed_out reason
  | exception e -> Wire.Server_error (Printexc.to_string e)

let writer_loop conn =
  let handle = function
    | Immediate r -> send conn r
    | Ticket (id, tk) ->
        send conn (Wire.Reply { id; outcome = wire_outcome_of_ticket tk })
    | Finish _ -> ()
  in
  let rec loop () =
    let item =
      Mutex.protect conn.qmu (fun () ->
          while Queue.is_empty conn.q do
            Condition.wait conn.qcv conn.qmu
          done;
          Queue.pop conn.q)
    in
    match item with
    | Finish { farewell } ->
        (* flush replies queued behind the finish marker (requests that
           raced the drain edge), then say goodbye *)
        let rest =
          Mutex.protect conn.qmu (fun () ->
              let r = Queue.fold (fun acc it -> it :: acc) [] conn.q in
              Queue.clear conn.q;
              List.rev r)
        in
        List.iter handle rest;
        if farewell then
          send conn (Wire.Drain { retry_after_ms = drain_retry_after_ms });
        (* wakes the reader blocked in [read] with EOF *)
        (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
         with Unix.Unix_error _ -> ())
    | (Immediate _ | Ticket _) as it ->
        handle it;
        loop ()
  in
  loop ()

(* -- HTTP ------------------------------------------------------------------ *)

let http_response status ctype body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status ctype (String.length body) body

let contains_head_end s =
  let n = String.length s in
  let rec go i =
    i + 3 < n
    && ((s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n')
       || go (i + 1))
  in
  (* bare LF LF tolerated for hand-typed probes *)
  let rec go_lf i = (i + 1 < n && s.[i] = '\n' && s.[i + 1] = '\n') || (i + 1 < n && go_lf (i + 1)) in
  go 0 || go_lf 0

let http_handle fd first =
  M.inc http_total;
  (* bound the header read so a dribbling client cannot pin the thread
     through a drain *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0
   with Unix.Unix_error _ -> ());
  let buf = Buffer.create 512 in
  Buffer.add_string buf first;
  let chunk = Bytes.create 1024 in
  let rec read_head () =
    if
      Buffer.length buf < 8192
      && not (contains_head_end (Buffer.contents buf))
    then
      let n =
        try Unix.read fd chunk 0 (Bytes.length chunk)
        with Unix.Unix_error _ -> 0
      in
      if n > 0 then begin
        Buffer.add_subbytes buf chunk 0 n;
        read_head ()
      end
  in
  read_head ();
  let head = Buffer.contents buf in
  let request_line =
    match String.index_opt head '\n' with
    | Some i -> String.trim (String.sub head 0 i)
    | None -> String.trim head
  in
  let reply =
    match String.split_on_char ' ' request_line with
    | [ "GET"; path; _ ] | [ "GET"; path ] -> (
        match path with
        | "/metrics" ->
            http_response "200 OK" "text/plain; version=0.0.4"
              (M.to_prometheus ())
        | "/metrics.json" ->
            http_response "200 OK" "application/json" (M.to_json ())
        | "/health" | "/healthz" ->
            let st = Svr_obs.Health.evaluate () in
            let status =
              match st with
              | Svr_obs.Health.Critical -> "503 Service Unavailable"
              | _ -> "200 OK"
            in
            http_response status "text/plain"
              (Svr_obs.Health.to_string st ^ "\n")
        | _ -> http_response "404 Not Found" "text/plain" "not found\n")
    | "GET" :: _ -> http_response "400 Bad Request" "text/plain" "bad request\n"
    | _ ->
        http_response "405 Method Not Allowed" "text/plain"
          "only GET is supported\n"
  in
  try write_all fd reply with Unix.Unix_error _ -> ()

(* -- reader ---------------------------------------------------------------- *)

exception Conn_done of { farewell : bool }

let reader_loop t conn dec first =
  let greeted = ref false in
  let handle = function
    | Wire.Hello { version = v } ->
        if v <> Wire.version then begin
          conn_error "protocol";
          raise (Conn_done { farewell = false })
        end;
        greeted := true;
        (* the handshake deadline has served; established sessions wait on
           the idle timeout (or indefinitely) *)
        (try
           Unix.setsockopt_float conn.fd Unix.SO_RCVTIMEO
             (match t.idle_timeout_s with Some s -> s | None -> 0.0)
         with Unix.Unix_error _ -> ());
        push conn (Immediate (Wire.Hello_ack { version = Wire.version }))
    | Wire.Goodbye -> raise (Conn_done { farewell = false })
    | Wire.Query { id; mode; cls; k; deadline_ms; sim_ms; pages; blocks; terms }
      ->
        if not !greeted then begin
          conn_error "protocol";
          raise (Conn_done { farewell = false })
        end;
        if t.draining then begin
          (* refused at the door: the farewell frame IS the reply *)
          push conn
            (Immediate (Wire.Drain { retry_after_ms = drain_retry_after_ms }));
          raise (Conn_done { farewell = false })
        end;
        let reply =
          match
            Serve.submit t.serve ~mode ~cls ?deadline_ms ?sim_ms ?pages ?blocks
              terms ~k
          with
          | Ok ticket -> Ticket (id, ticket)
          | Error { Svr_serve.Admission.reason; retry_after_ms } ->
              Immediate
                (Wire.Reply
                   { id; outcome = Wire.Rejected { reason; retry_after_ms } })
        in
        push conn reply
  in
  let rec drain_decoded () =
    match Wire.next dec with
    | Some payload ->
        handle (Wire.request_of_payload payload);
        drain_decoded ()
    | None -> ()
  in
  let buf = Bytes.create 8192 in
  let rec loop () =
    drain_decoded ();
    let n = Unix.read conn.fd buf 0 (Bytes.length buf) in
    if n = 0 then raise (Conn_done { farewell = false });
    Wire.feed dec buf ~len:n;
    loop ()
  in
  try
    Wire.feed dec (Bytes.of_string first);
    loop ()
  with
  | Conn_done { farewell } -> farewell
  | E.Error (_, _) ->
      (* corrupt frame or malformed payload: this connection dies, the
         server does not *)
      conn_error "corrupt";
      false
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* SO_RCVTIMEO expired: a stalled handshake or an idle session *)
      conn_error (if !greeted then "idle_timeout" else "handshake_timeout");
      false
  | Unix.Unix_error _ ->
      conn_error "io";
      false
  | _ ->
      (* nothing else is expected, but an escape here would leak the
         connection's writer thread forever — fail the connection instead *)
      conn_error "crash";
      false

(* -- connection lifecycle -------------------------------------------------- *)

let deregister t conn =
  Mutex.protect t.mu (fun () ->
      Hashtbl.remove t.conns_tbl conn.cid;
      t.live <- t.live - 1)

let conn_main t conn =
  let finally () =
    (* deregister before closing: [shutdown] shuts fds down under [t.mu],
       so an fd found in the table is guaranteed not yet closed *)
    deregister t conn;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally (fun () ->
      (try Unix.setsockopt conn.fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      (* a connect-and-stall client must not pin this thread (and its
         [max_conns] slot) forever: the first byte has a deadline *)
      if t.handshake_timeout_s > 0.0 then
        (try
           Unix.setsockopt_float conn.fd Unix.SO_RCVTIMEO t.handshake_timeout_s
         with Unix.Unix_error _ -> ());
      let buf = Bytes.create 8192 in
      let n =
        try Unix.read conn.fd buf 0 (Bytes.length buf) with
        | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            conn_error "handshake_timeout";
            0
        | Unix.Unix_error _ -> 0
      in
      if n > 0 then
        if Bytes.get buf 0 = Wire.magic then begin
          let w = Thread.create writer_loop conn in
          let farewell = ref false in
          (* however the reader ends, the writer always gets its finish
             marker and is always joined — no leaked writer threads *)
          Fun.protect
            ~finally:(fun () ->
              push conn (Finish { farewell = !farewell });
              Thread.join w)
            (fun () ->
              farewell :=
                reader_loop t conn (Wire.decoder ()) (Bytes.sub_string buf 0 n))
        end
        else http_handle conn.fd (Bytes.sub_string buf 0 n))

(* -- listener -------------------------------------------------------------- *)

let refuse fd =
  M.inc refused_total;
  (try
     write_all fd
       (Wire.encode_response
          (Wire.Drain { retry_after_ms = drain_retry_after_ms }))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let listener_loop t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error (_, _, _) ->
        (* the listening socket was shut down: drain in progress *)
        ()
    | fd, _peer ->
        M.inc conns_total;
        let admit =
          Mutex.protect t.mu (fun () ->
              if t.draining || t.live >= t.max_conns then None
              else begin
                let cid = t.next_cid in
                t.next_cid <- cid + 1;
                let conn =
                  {
                    cid;
                    fd;
                    q = Queue.create ();
                    qmu = Mutex.create ();
                    qcv = Condition.create ();
                    broken = false;
                  }
                in
                let th = Thread.create (conn_main t) conn in
                Hashtbl.add t.conns_tbl cid (conn, th);
                t.live <- t.live + 1;
                Some conn
              end)
        in
        (match admit with None -> refuse fd | Some _ -> ());
        loop ()
  in
  loop ()

(* -- create / shutdown ----------------------------------------------------- *)

let create ?(host = "127.0.0.1") ?(port = 0) ?(backlog = 64) ?(max_conns = 256)
    ?(handshake_timeout_s = 5.0) ?idle_timeout_s ?domains ?queue_bound ?policy
    ?batch_max ?health ?tick index =
  if max_conns < 1 then invalid_arg "Net.Server.create: max_conns must be >= 1";
  if handshake_timeout_s < 0.0 then
    invalid_arg "Net.Server.create: handshake_timeout_s must be >= 0";
  (match idle_timeout_s with
  | Some s when s <= 0.0 ->
      invalid_arg "Net.Server.create: idle_timeout_s must be > 0"
  | _ -> ());
  (* a peer closing mid-write must surface as EPIPE, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let serve =
    Serve.create ?domains ?queue_bound ?policy ?batch_max ?health ?tick index
  in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let t =
    try
      Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
      Unix.bind listen_fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.listen listen_fd backlog;
      let bound_port =
        match Unix.getsockname listen_fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      {
        serve;
        listen_fd;
        bound_port;
        max_conns;
        handshake_timeout_s;
        idle_timeout_s;
        mu = Mutex.create ();
        conns_tbl = Hashtbl.create 64;
        next_cid = 0;
        live = 0;
        draining = false;
        shut = false;
        listener = None;
      }
    with e ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Serve.shutdown serve;
      raise e
  in
  M.gauge ~help:"live connections" "svr_net_conns" (fun () ->
      float_of_int (Mutex.protect t.mu (fun () -> t.live)));
  t.listener <- Some (Thread.create listener_loop t);
  t

let shutdown t =
  let proceed =
    Mutex.protect t.mu (fun () ->
        if t.shut then false
        else begin
          t.shut <- true;
          t.draining <- true;
          true
        end)
  in
  if proceed then begin
    (* 1. stop the listener: shutting the listening socket down makes the
       blocked [accept] fail *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (match t.listener with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* 2. answer every admitted request; after this, every ticket any
       writer will await is resolved *)
    Serve.shutdown t.serve;
    (* 3. finish every connection: flush, farewell frame, socket shutdown *)
    let snapshot =
      Mutex.protect t.mu (fun () ->
          Hashtbl.fold (fun _ ct acc -> ct :: acc) t.conns_tbl [])
    in
    List.iter (fun (conn, _) -> push conn (Finish { farewell = true })) snapshot;
    (* wake readers still blocked in [read] — in particular a silent
       pre-handshake connection, which has no writer thread yet to act on
       the finish marker: shutting down only the receive side delivers EOF
       to the reader while leaving the send side open for the writer's
       flush + farewell. Under [t.mu] so no fd has been closed (and
       possibly reused) by a concurrently-exiting [conn_main]. *)
    Mutex.protect t.mu (fun () ->
        Hashtbl.iter
          (fun _ (conn, _) ->
            try Unix.shutdown conn.fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ())
          t.conns_tbl);
    List.iter (fun (_, th) -> Thread.join th) snapshot
  end

let with_server ?host ?port ?backlog ?max_conns ?handshake_timeout_s
    ?idle_timeout_s ?domains ?queue_bound ?policy ?batch_max ?health ?tick
    index f =
  let t =
    create ?host ?port ?backlog ?max_conns ?handshake_timeout_s ?idle_timeout_s
      ?domains ?queue_bound ?policy ?batch_max ?health ?tick index
  in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
