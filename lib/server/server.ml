(* Multicore serving: a poll(2) event loop on the writer domain plus N
   reader domains executing read-only requests in parallel.

   The writer domain owns the sockets, the WAL and the group-commit batch
   scheduler. One iteration: poll for readiness, accept what's pending,
   read what's readable (feeding each connection's frame reader), execute
   or dispatch complete requests, collect reader completions, ack, write.
   Writing requests — [Exec], [Dot], anything inside an explicit
   transaction — run to completion on the writer, exactly the old
   single-domain model. [Ping]s and autocommitted [Query]s are handed to a
   bounded job queue that reader domains drain, each executing the query in
   a detached read-only transaction over the lock-striped storage layer.

   Reader/writer interleaving is governed by one writer-preferring RW lock:
   a reader holds it shared for the duration of one request, the writer
   holds it exclusive for the duration of one writing request, so readers
   run against a structurally quiescent engine (no B+tree splits or commit
   applies mid-scan) while any number of them share the storage layer —
   that sharing is what the striped buffer pool, per-disk mutex and sharded
   object cache make safe. A query that turns out to write (a method with
   side effects) raises [Read_only_txn] before touching shared state; the
   completion re-routes it to the writer, which replays it under the
   exclusive lock. Per connection at most one request is in flight and no
   further frames are executed until its reply is buffered, so replies
   stay in request order.

   The iteration doubles as the group-commit batch scheduler. Replies are
   never written from the read phase — they accumulate in each connection's
   [out] buffer — and between the read phase and the write phase sits the
   ack point: one [Database.sync_commits] covering every autocommit executed
   this tick. So under [Group] durability a reply can only reach the socket
   after the fsync that made its commit durable, while a tick that executed
   N requests paid for one fsync, not N. Reader-executed requests commit
   nothing, so they owe no fsync; re-routed ones are replayed on the writer
   before the ack point like any other write.

   Replication rides the same loop, entirely on the writer domain. A
   primary with a replication port keeps a second listener; each connected
   standby is a [downstream] whose buffer the WAL observer feeds with every
   post-fsync batch — the observer fires inside [Wal.sync], strictly after
   the barrier, so a standby can never hold a commit the primary could
   still lose. A replica runs the same loop with an [upstream] link
   instead: batches in (applied under the exclusive lock — its readers
   serve stale-but-consistent queries meanwhile), acks out, promotion on
   [.promote] or SIGUSR1. Under [sync_repl] the write phase additionally
   holds back any reply whose commit no streaming replica has acknowledged
   yet (semi-sync), degrading after a timeout rather than blocking writes
   forever on a dead standby.

   Every socket the loop talks through is one [endpoint]: descriptor,
   input frame reader, output buffer and written prefix. A [peer] names
   what sits behind it — a client session, a standby streaming from us,
   the primary we stream from, a metrics scraper — and each kind keeps its
   own state in its own record. One non-blocking read and one non-blocking
   write serve every endpoint; they hand the kind three events: bytes
   arrived ([arrived]), the output buffer drained ([drained]) and the peer
   went away ([gone]: EOF or any socket error other than EAGAIN/EINTR). *)

module Stats = Ode_util.Stats
module Chan = Ode_util.Chan
module Rwlock = Ode_util.Rwlock
module Db = Ode.Database

let c_accepts = Stats.counter "server.accepts"
let c_rejects = Stats.counter "server.rejects"
let c_timeouts = Stats.counter "server.timeouts"
let c_bytes_in = Stats.counter "server.bytes_in"
let c_bytes_out = Stats.counter "server.bytes_out"
let c_reroutes = Stats.counter "server.reroutes"
let c_accept_backoffs = Stats.counter "server.accept_backoffs"
let c_repl_batches_sent = Stats.counter "repl.batches_sent"
let c_repl_bytes_sent = Stats.counter "repl.bytes_sent"
let c_repl_acks = Stats.counter "repl.acks"
let c_repl_resyncs = Stats.counter "repl.resyncs"
let c_repl_sync_degraded = Stats.counter "repl.sync_degraded"
(* Gauges overwritten by [update_gauges]: how many commits the slowest
   streaming replica is behind the durable LSN, and the bytes backed up
   toward the replicas. *)
let c_repl_lag_commits = Stats.(counter ~kind:Gauge "repl.lag_commits")
let c_repl_lag_bytes = Stats.(counter ~kind:Gauge "repl.lag_bytes")

type endpoint = {
  fd : Unix.file_descr;
  rd : Protocol.reader;       (* received bytes, until the kind consumes them *)
  out : Buffer.t;             (* bytes awaiting the socket *)
  mutable out_pos : int;      (* written prefix of [out] *)
  mutable live : bool;        (* false once closed (the idle queue and the
                                 poll dispatch hold stale references) *)
}

type conn = {
  ep : endpoint;
  mutable state : [ `Hello | `Active of Session.t ];
  mutable closing : bool;     (* close once [out] drains *)
  mutable last : float;       (* last byte received (idle eviction) *)
  mutable sent_lsn : int;     (* highest commit LSN this conn's buffered
                                 replies acknowledge (semi-sync gate) *)
  mutable inflight : bool;    (* a request is executing on a reader domain;
                                 no reads, no frame execution, no eviction
                                 until its completion is collected *)
  mutable doomed : bool;      (* socket died while inflight; really dropped
                                 when the completion arrives *)
}

(* A standby streaming from us. *)
type downstream = {
  d_ep : endpoint;
  mutable d_state : [ `Magic | `Hello | `Streaming ];
  mutable d_acked : int;      (* highest LSN it acknowledged; -1 = none yet *)
}

(* The primary we stream from (replica role). *)
type upstream_state = {
  u_host : string;
  u_port : int;
  mutable u_ep : endpoint;    (* the link; not [live] while reconnecting *)
  mutable u_retry_at : float;
}

(* A metrics/health HTTP client: one GET in, one response out, close. *)
type mconn = {
  m_ep : endpoint;
  mutable m_done : bool;      (* response built; close once it drains *)
  mutable m_last : float;
}

type peer = Conn of conn | Down of downstream | Up of upstream_state | Scrape of mconn

let ep_of = function Conn c -> c.ep | Down d -> d.d_ep | Up u -> u.u_ep | Scrape m -> m.m_ep

(* A request handed to a reader domain, and its way back. [rj_enq_ns] is
   the push time, so the reader can report queue wait separately from
   execution in the slow-query log. *)
type rjob = {
  rj_conn : conn;
  rj_session : Session.t;
  rj_rq : Protocol.request;
  rj_enq_ns : int;
}
type job = Job of rjob | Stop

type completion = {
  cm_job : rjob;
  cm_resp : Protocol.response option;
      (* None: the query tried to write — replay it on the writer *)
}

(* What each poll slot means this tick (index-aligned with [Poll.add]). *)
type slot = S_none | S_listen | S_repl_listen | S_metrics_listen | S_wake | S_peer of peer

type t = {
  db : Ode.Database.t;
  listen_fd : Unix.file_descr;
  lport : int;
  repl_listen_fd : Unix.file_descr option;
  rport : int;                (* 0 when replication is not served *)
  metrics_fd : Unix.file_descr option;
  mport : int;                (* 0 when no metrics endpoint is served *)
  sync_repl : bool;
  max_conns : int;
  idle_timeout : float;
  group_window : int;         (* force a sync once this many commits pend *)
  read_buf : bytes;           (* scratch shared by every writer-domain read *)
  nreaders : int;             (* reader domains; 0 = classic inline serving *)
  engine_lock : Rwlock.t;
  jobs : job Chan.t;
  dones : completion Chan.t;
  wake_r : Unix.file_descr;   (* self-pipe: readers nudge the poll loop *)
  wake_w : Unix.file_descr;
  pset : Poll.t;
  mutable slots : slot array;
  mutable readers : unit Domain.t list;
  idle_q : (float * conn) Queue.t; (* (enqueued_at, conn), push-time order *)
  mutable accept_pause : float; (* fd exhaustion: no accepts until then *)
  mutable conns : conn list;
  mutable mconns : mconn list;
  mutable downstreams : downstream list;
  mutable upstream : upstream_state option; (* Some = replica role *)
  mutable degraded : bool;    (* semi-sync waived until replicas catch up *)
  mutable gate_since : float option; (* oldest unmet semi-sync wait *)
  mutable promote_flag : bool; (* set by SIGUSR1, consumed by the loop *)
  mutable next_session : int;
  mutable stop : bool;
}

(* Stop reading a connection once this much response data is backed up;
   reads resume when the client drains its socket. *)
let out_cap = 1 lsl 20

(* A standby that stops draining its stream is cut off at this backlog; it
   will resync when it comes back. *)
let downstream_out_cap = 64 * 1024 * 1024
let max_downstreams = 8

(* Bounded flush window for graceful shutdown. *)
let drain_deadline = 5.0

(* Semi-sync degrade: how long client acks may wait on replica acks before
   the gate opens (and [repl.sync_degraded] counts the event). *)
let sync_repl_timeout = 5.0

(* How long accepting pauses after EMFILE/ENFILE: long enough not to spin
   on a listener we cannot serve, short enough to pick arrivals up as soon
   as a descriptor frees. *)
let accept_backoff = 0.2

(* Scrapers are few and short-lived; anything past this is a mistake. *)
let max_mconns = 16
let mconn_idle_timeout = 30.
let max_http_request = 8192

let port t = t.lport
let repl_port t = t.rport
let metrics_port t = t.mport
let connections t = List.length t.conns
let domains t = t.nreaders + 1
let shutdown t = t.stop <- true

let handle_signals t =
  let h = Sys.Signal_handle (fun _ -> shutdown t) in
  Sys.set_signal Sys.sigint h;
  Sys.set_signal Sys.sigterm h;
  (* Promotion by signal: the handler only sets a flag; the loop promotes
     between iterations. Harmless on a primary. *)
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> t.promote_flag <- true))

(* Engine exclusivity lives in the engine now: [t.engine_lock] is the
   database's own latch ({!Db.latch}), reader domains hold its shared side
   per request, and the engine takes the exclusive side internally around
   commit apply, checkpoints, DDL and replication apply ({!Ode.Txn.with_excl},
   re-entrant for the writer domain). The serving loop therefore never
   wraps request execution in the exclusive side itself — a writer's WAL
   fsync no longer holds snapshot readers out. *)

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let endpoint ?max_len fd =
  { fd; rd = Protocol.reader ?max_len (); out = Buffer.create 1024; out_pos = 0; live = true }

let pending ep = Buffer.length ep.out - ep.out_pos

let close_ep ep =
  if ep.live then begin
    ep.live <- false;
    close_fd ep.fd
  end

let real_drop t c =
  (match c.state with `Active s -> Session.close s | `Hello -> ());
  close_ep c.ep;
  t.conns <- List.filter (fun c' -> c' != c) t.conns

(* Dropping a connection whose request is still on a reader domain must
   wait for the completion (the reader holds the session); mark it doomed
   and let the completion handler finish the job. *)
let drop t c =
  if c.inflight then begin
    c.doomed <- true;
    c.closing <- true
  end
  else real_drop t c

let drop_downstream t d =
  close_ep d.d_ep;
  t.downstreams <- List.filter (fun d' -> d' != d) t.downstreams

let drop_mconn t m =
  close_ep m.m_ep;
  t.mconns <- List.filter (fun m' -> m' != m) t.mconns

let is_primary t = t.upstream = None

(* -- the reader pool ------------------------------------------------------ *)

let wake t =
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EINTR), _, _) ->
    (* A full pipe means wakeups are already pending — good enough. *)
    ()

let drain_wake t =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | 0 -> ()
    | _ -> go ()
  in
  go ()

let reader_loop t =
  let rec loop () =
    match Chan.pop t.jobs with
    | Stop -> ()
    | Job j ->
        let queue_wait_ns = max 0 (Ode_util.Trace.now_ns () - j.rj_enq_ns) in
        let resp =
          Rwlock.read t.engine_lock (fun () ->
              match Session.handle_read ~queue_wait_ns j.rj_session j.rj_rq with
              | resp -> Some resp
              | exception Ode.Types.Read_only_txn -> None
              | exception e ->
                  (* Defensive: [handle_read] renders interpreter errors
                     itself, so anything escaping is an engine bug — answer
                     it rather than killing the domain. *)
                  Some
                    {
                      Protocol.rs_id = j.rj_rq.rq_id;
                      rs_lsn = Db.lsn t.db;
                      rs_reply = Error ("internal error: " ^ Printexc.to_string e);
                    })
        in
        (* [dones] is sized past the maximum possible in-flight count, so
           this push never blocks a reader against a busy writer. *)
        Chan.push t.dones { cm_job = j; cm_resp = resp };
        wake t;
        loop ()
  in
  loop ()

let stop_readers t =
  if t.readers <> [] then begin
    List.iter (fun _ -> Chan.push t.jobs Stop) t.readers;
    List.iter Domain.join t.readers;
    t.readers <- []
  end

(* -- poll set bookkeeping ------------------------------------------------- *)

let slot_add t slot fd ~read ~write =
  let i = Poll.add t.pset fd ~read ~write in
  if i >= Array.length t.slots then begin
    let ns = Array.make (max 64 (2 * Array.length t.slots)) S_none in
    Array.blit t.slots 0 ns 0 (Array.length t.slots);
    t.slots <- ns
  end;
  t.slots.(i) <- slot

let add_peer t p ~read ~write = slot_add t (S_peer p) (ep_of p).fd ~read ~write

(* Apply [f] to the meaning of every slot the last wait reported ready
   per [ready] ([Poll.is_readable] or [Poll.is_writable]). *)
let each_ready t ready f =
  for i = 0 to Poll.length t.pset - 1 do
    if ready (Poll.revents t.pset i) then f t.slots.(i)
  done

(* Accept everything pending on a listener, handing each new non-blocking
   socket to [admit]. Descriptor exhaustion pauses accepting rather than
   spinning on a listener we cannot serve: existing connections keep
   draining — which is exactly what frees descriptors — and the listeners
   rejoin the poll set once the backoff lapses. *)
let rec accept_all t lfd ~what admit =
  match Unix.accept ~cloexec:true lfd with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> accept_all t lfd ~what admit
  | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
      Stats.incr c_accept_backoffs;
      t.accept_pause <- Unix.gettimeofday () +. accept_backoff;
      Printf.eprintf "server: accept%s: out of file descriptors; backing off\n%!" what
  | fd, _ ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      admit fd;
      accept_all t lfd ~what admit

(* -- replication: primary side ------------------------------------------- *)

(* The WAL observer: called inside [Wal.sync] after the barrier, with the
   frames covering commits (from_lsn, to_lsn]. Only enqueues — the sockets
   are serviced by the loop's write phase. *)
let feed t ~data ~from_lsn ~to_lsn =
  List.iter
    (fun d ->
      if d.d_state = `Streaming then begin
        Protocol.encode_repl d.d_ep.out (Protocol.R_batch (from_lsn, to_lsn, data));
        Stats.incr c_repl_batches_sent;
        Stats.add c_repl_bytes_sent (String.length data)
      end)
    t.downstreams

let accept_repl t lfd =
  accept_all t lfd ~what:" (replication)" (fun fd ->
      (* A replica does not serve replicas (no cascading) — and a full house
         just hangs up; the standby's bootstrap retries. *)
      if Db.read_only t.db || List.length t.downstreams >= max_downstreams then close_fd fd
      else
        t.downstreams <-
          {
            d_ep = endpoint ~max_len:Protocol.repl_max_frame_len fd;
            d_state = `Magic;
            d_acked = -1;
          }
          :: t.downstreams)

(* Advance a downstream's handshake and consume its acks. Anything
   malformed — a repl hello at another protocol version included — drops
   the connection; the standby resyncs. *)
let process_downstream t d =
  let rd = d.d_ep.rd in
  try
    (match d.d_state with
    | `Magic -> (
        match Protocol.take rd Protocol.repl_hello_len with
        | None -> ()
        | Some s -> (
            match Protocol.parse_repl_hello s with
            | Ok () -> d.d_state <- `Hello
            | Error _ -> raise Exit))
    | _ -> ());
    (match d.d_state with
    | `Hello -> (
        match Protocol.next_frame rd with
        | None -> ()
        | Some body -> (
            match Protocol.decode_repl body with
            | Protocol.R_hello lsn -> (
                (* [answer_hello] may checkpoint and read the data files
                   off disk (snapshot path): it runs under the engine's
                   exclusive latch so no reader-domain eviction writes a
                   dirty page mid-read (the checkpoint inside re-enters).
                   The sync inside feeds the *other*, already-streaming
                   downstreams — this one only starts receiving batches
                   once marked [`Streaming] below, right after its
                   backlog. *)
                match
                  Ode.Txn.with_excl t.db (fun () ->
                      Replication.answer_hello t.db ~replica_lsn:lsn)
                with
                | Replication.Resume { from_lsn; to_lsn; backlog } ->
                    Protocol.encode_repl d.d_ep.out (Protocol.R_resume from_lsn);
                    if String.length backlog > 0 then begin
                      Protocol.encode_repl d.d_ep.out
                        (Protocol.R_batch (from_lsn, to_lsn, backlog));
                      Stats.incr c_repl_batches_sent;
                      Stats.add c_repl_bytes_sent (String.length backlog)
                    end;
                    (* It proved possession up to [from_lsn]. *)
                    d.d_acked <- from_lsn;
                    d.d_state <- `Streaming
                | Replication.Snapshot { lsn; files } ->
                    Protocol.encode_repl d.d_ep.out (Protocol.R_snapshot (lsn, files));
                    d.d_state <- `Streaming)
            | _ -> raise Exit))
    | _ -> ());
    if d.d_state = `Streaming then begin
      let rec acks () =
        match Protocol.next_frame rd with
        | None -> ()
        | Some body ->
            (match Protocol.decode_repl body with
            | Protocol.R_ack lsn ->
                Stats.incr c_repl_acks;
                if lsn > d.d_acked then d.d_acked <- lsn
            | _ -> raise Exit);
            acks ()
      in
      acks ()
    end
  with Exit | Ode_util.Codec.Corrupt _ -> drop_downstream t d

(* Highest LSN any streaming replica acknowledged: classic semi-sync wants
   at least one standby holding the commit, not all of them. *)
let best_acked t =
  List.fold_left
    (fun acc d -> if d.d_state = `Streaming then max acc d.d_acked else acc)
    (-1) t.downstreams

(* -- replication: replica side ------------------------------------------- *)

let link_endpoint (l : Replication.upstream) =
  Unix.set_nonblock l.up_fd;
  { fd = l.up_fd; rd = l.up_rd; out = Buffer.create 64; out_pos = 0; live = true }

let queue_ack t u = Protocol.encode_repl u.u_ep.out (Protocol.R_ack (Db.lsn t.db))

let upstream_fault u reason =
  close_ep u.u_ep;
  Stats.incr c_repl_resyncs;
  u.u_retry_at <- Unix.gettimeofday () +. 1.0;
  Printf.eprintf "replication: upstream lost (%s); retrying\n%!" reason

(* Drain every complete frame buffered from the primary, applying batches
   (redo latches the engine exclusively inside [Db.apply_replicated]) and
   queueing an ack per batch. Snapshot reads keep working throughout,
   between batches. *)
let process_upstream t u =
  let rec go () =
    match Protocol.next_frame u.u_ep.rd with
    | None -> ()
    | Some body ->
        (match Protocol.decode_repl body with
        | Protocol.R_batch (from_lsn, to_lsn, data) ->
            (match Replication.apply_batch t.db ~from_lsn ~to_lsn ~data with
            | `Applied | `Duplicate -> queue_ack t u)
        | _ -> raise (Replication.Resync "unexpected message from primary"));
        go ()
  in
  try go () with
  | Replication.Resync msg -> upstream_fault u msg
  | Ode_util.Codec.Corrupt msg -> upstream_fault u msg

(* Re-handshake after a fault. [Replication.reconnect] connects with a
   blocking socket — on loopback a dead primary refuses instantly, so the
   loop stalls only when the primary is reachable but wedged. *)
let try_reconnect t u =
  if (not u.u_ep.live) && Unix.gettimeofday () >= u.u_retry_at then
    match Replication.reconnect ~host:u.u_host ~port:u.u_port t.db with
    | Ok link ->
        u.u_ep <- link_endpoint link;
        queue_ack t u;
        (* Batches the primary pipelined behind the resume reply. *)
        process_upstream t u
    | Error msg ->
        u.u_retry_at <- Unix.gettimeofday () +. 2.0;
        Printf.eprintf "replication: reconnect failed (%s)\n%!" msg

(* -- promotion and introspection ----------------------------------------- *)

let promote t =
  match t.upstream with
  | None -> Stdlib.Error "not a replica (already primary)"
  | Some u ->
      close_ep u.u_ep;
      t.upstream <- None;
      Ode.Txn.with_excl t.db (fun () -> Db.set_read_only t.db false);
      Stdlib.Ok (Printf.sprintf "promoted to primary at lsn %d" (Db.lsn t.db))

let replication_report t =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  (match t.upstream with
  | Some u ->
      add "role           replica of %s:%d (%s)\n" u.u_host u.u_port
        (if u.u_ep.live then "connected" else "disconnected, retrying")
  | None -> add "role           primary\n");
  add "lsn            %d\n" (Db.lsn t.db);
  add "durable_lsn    %d\n" (Db.durable_lsn t.db);
  add "domains        %d (1 writer + %d readers)\n" (t.nreaders + 1) t.nreaders;
  if is_primary t then begin
    add "sync_repl      %s%s\n"
      (if t.sync_repl then "on" else "off")
      (if t.degraded then " (degraded)" else "");
    add "replicas       %d\n" (List.length t.downstreams);
    let durable = Db.durable_lsn t.db in
    List.iter
      (fun d ->
        match d.d_state with
        | `Streaming when d.d_acked >= 0 ->
            add "  streaming    acked %d (lag %d commits, %d bytes queued)\n" d.d_acked
              (max 0 (durable - d.d_acked))
              (pending d.d_ep)
        | `Streaming -> add "  streaming    no ack yet (%d bytes queued)\n" (pending d.d_ep)
        | `Magic | `Hello -> add "  handshaking\n")
      t.downstreams
  end;
  Buffer.contents b

(* Dot commands that need the server, not just the session. *)
let server_dot t line : Protocol.reply option =
  match String.trim line with
  | ".promote" -> (
      match promote t with
      | Ok msg -> Some (Protocol.Output (msg ^ "\n"))
      | Error msg -> Some (Protocol.Error msg))
  | ".replication" -> Some (Protocol.Output (replication_report t))
  | _ -> None

(* -- metrics / health endpoint -------------------------------------------- *)

(* A deliberately tiny HTTP responder for scrapers, riding the poll loop on
   the writer domain — no extra threads, no keep-alive: parse the request
   line of one GET, answer, close. *)

let http_response ?(status = "200 OK") ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

(* Role and positions for liveness probes; a standby's [lsn] is its
   replication apply position, which is what the CI smoke asserts. *)
let health_json t =
  Printf.sprintf
    "{\"role\":\"%s\",\"lsn\":%d,\"durable_lsn\":%d,\"connections\":%d,\"domains\":%d,\"slow_log_armed\":%b}\n"
    (if is_primary t then "primary" else "replica")
    (Db.lsn t.db) (Db.durable_lsn t.db) (List.length t.conns) (t.nreaders + 1)
    (Ode_util.Slowlog.armed ())

let has_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let metrics_answer t m req =
  let line =
    match String.index_opt req '\n' with
    | Some i -> String.trim (String.sub req 0 i)
    | None -> String.trim req
  in
  let resp =
    match String.split_on_char ' ' line with
    | "GET" :: path :: _ -> (
        match path with
        | "/metrics" ->
            http_response ~content_type:"text/plain; version=0.0.4; charset=utf-8"
              (Ode_util.Metrics.prometheus ())
        | "/metrics.json" ->
            http_response ~content_type:"application/json" (Ode_util.Metrics.json () ^ "\n")
        | "/health" -> http_response ~content_type:"application/json" (health_json t)
        | _ -> http_response ~status:"404 Not Found" ~content_type:"text/plain" "not found\n")
    | _ -> http_response ~status:"400 Bad Request" ~content_type:"text/plain" "bad request\n"
  in
  Buffer.add_string m.m_ep.out resp;
  m.m_done <- true

let accept_metrics t lfd =
  accept_all t lfd ~what:" (metrics)" (fun fd ->
      if List.length t.mconns >= max_mconns then close_fd fd
      else
        t.mconns <-
          { m_ep = endpoint fd; m_done = false; m_last = Unix.gettimeofday () } :: t.mconns)

(* The request so far sits unconsumed in the endpoint's reader; answer once
   its header block is complete. *)
let metrics_arrived t m =
  m.m_last <- Unix.gettimeofday ();
  if Protocol.buffered m.m_ep.rd > max_http_request then drop_mconn t m
  else if not m.m_done then begin
    let req = Protocol.contents m.m_ep.rd in
    if has_substring req "\r\n\r\n" || has_substring req "\n\n" then metrics_answer t m req
  end

let sweep_mconns t now =
  if t.mconns <> [] then
    List.iter
      (fun m -> if now -. m.m_last > mconn_idle_timeout then drop_mconn t m)
      t.mconns

(* -- semi-sync gate ------------------------------------------------------- *)

(* Replies covering commits past what the replicas acknowledged wait in
   their buffers. *)
let gated t c =
  t.sync_repl && is_primary t && (not t.degraded) && c.sent_lsn > best_acked t

(* Degrade rather than block forever: when some reply has been gated for
   [sync_repl_timeout], open the gate (counted) until the replicas catch
   back up to the durable position. *)
let manage_gate t now =
  if t.sync_repl && is_primary t then begin
    if t.degraded then begin
      if best_acked t >= Db.durable_lsn t.db then begin
        t.degraded <- false;
        t.gate_since <- None
      end
    end
    else
      let blocked =
        let best = best_acked t in
        List.exists (fun c -> pending c.ep > 0 && c.sent_lsn > best) t.conns
      in
      if not blocked then t.gate_since <- None
      else
        match t.gate_since with
        | None -> t.gate_since <- Some now
        | Some s when now -. s > sync_repl_timeout ->
            t.degraded <- true;
            t.gate_since <- None;
            Stats.incr c_repl_sync_degraded
        | Some _ -> ()
  end

let update_gauges t =
  let has_repl =
    (match t.repl_listen_fd with Some _ -> true | None -> false) || not (is_primary t)
  in
  if has_repl then begin
    let durable = Db.durable_lsn t.db in
    Stats.set c_repl_lag_commits
      (List.fold_left
         (fun acc d ->
           if d.d_state = `Streaming && d.d_acked >= 0 then max acc (durable - d.d_acked)
           else acc)
         0 t.downstreams);
    Stats.set c_repl_lag_bytes (List.fold_left (fun acc d -> acc + pending d.d_ep) 0 t.downstreams)
  end

(* -- accepting ------------------------------------------------------------ *)

let accept_pending t =
  accept_all t t.listen_fd ~what:"" (fun fd ->
      Stats.incr c_accepts;
      if List.length t.conns >= t.max_conns then begin
        (* Friendly rejection: a complete handshake reply, then goodbye. The
           7-byte write into a fresh socket's empty send buffer cannot
           block. *)
        Stats.incr c_rejects;
        (try
           ignore
             (Unix.write_substring fd (Protocol.hello_reply Busy) 0 Protocol.hello_reply_len)
         with Unix.Unix_error _ -> ());
        close_fd fd
      end
      else begin
        let now = Unix.gettimeofday () in
        let c =
          {
            ep = endpoint fd;
            state = `Hello;
            closing = false;
            last = now;
            sent_lsn = -1;
            inflight = false;
            doomed = false;
          }
        in
        t.conns <- c :: t.conns;
        if t.idle_timeout > 0. then Queue.push (now, c) t.idle_q
      end)

(* -- per-connection processing -------------------------------------------- *)

let try_handshake t c =
  match Protocol.take c.ep.rd Protocol.hello_len with
  | None -> ()
  | Some hello ->
      if Protocol.parse_hello hello = Ok Protocol.version then begin
        Buffer.add_string c.ep.out (Protocol.hello_reply Accepted);
        t.next_session <- t.next_session + 1;
        c.state <- `Active (Session.create ~id:t.next_session t.db)
      end
      else begin
        (* Another protocol version or garbage: answer with a parseable
           rejection and hang up. *)
        Stats.incr c_rejects;
        Buffer.add_string c.ep.out (Protocol.hello_reply Bad_version);
        c.closing <- true
      end

(* Execute one request on the writer domain (the engine latches its own
   commit apply), buffer its reply, track the semi-sync position, bound
   the deferred-durability window. *)
let exec_on_writer ?count t c session rq =
  let before = Db.lsn t.db in
  let resp = Session.handle ?count session rq in
  (* Only a request that moved the LSN puts this connection under the
     semi-sync gate — reads ride free. *)
  if Db.lsn t.db > before then c.sent_lsn <- Db.lsn t.db;
  Protocol.encode_response c.ep.out resp;
  (* Bound the deferred-durability window: a long batch syncs every
     [group_window] commits rather than once at the end. *)
  if Db.pending_commits t.db >= t.group_window then Db.sync_commits t.db

(* Which requests may run on a reader domain: Pings, and Querys from a
   session with no explicit transaction open (inside one, the query must
   see the transaction's own writes — writer only). *)
let dispatchable session (rq : Protocol.request) =
  match rq.rq_op with
  | Protocol.Ping -> true
  | Protocol.Query _ -> not (Session.in_transaction session)
  | Protocol.Exec _ | Protocol.Dot _ | Protocol.Close -> false

let run_frames t c session =
  try
    let rec go () =
      (* Backpressure: leave complete frames buffered while this client's
         responses are backed up or a request is already in flight (strict
         in-order replies, one request at a time per connection). *)
      if pending c.ep < out_cap && (not c.closing) && not c.inflight then
        match Protocol.next_frame c.ep.rd with
        | None -> ()
        | Some body ->
            let rq = Protocol.decode_request body in
            let server_reply =
              match rq.rq_op with Protocol.Dot line -> server_dot t line | _ -> None
            in
            (match server_reply with
            | Some reply ->
                Protocol.encode_response c.ep.out
                  { Protocol.rs_id = rq.rq_id; rs_lsn = Db.lsn t.db; rs_reply = reply }
            | None ->
                if
                  t.nreaders > 0
                  && dispatchable session rq
                  && Chan.try_push t.jobs
                       (Job
                          {
                            rj_conn = c;
                            rj_session = session;
                            rj_rq = rq;
                            rj_enq_ns = Ode_util.Trace.now_ns ();
                          })
                then
                  (* A reader domain will answer; the completion resumes
                     this connection's frame processing. When the job queue
                     is full the push fails and the request simply runs
                     inline below — natural backpressure, no starvation. *)
                  c.inflight <- true
                else begin
                  exec_on_writer t c session rq;
                  match rq.rq_op with Close -> c.closing <- true | _ -> ()
                end);
            go ()
    in
    go ()
  with Ode_util.Codec.Corrupt msg ->
    Protocol.encode_response c.ep.out
      { rs_id = 0; rs_lsn = Db.lsn t.db; rs_reply = Error ("protocol error: " ^ msg) };
    c.closing <- true

let process t c =
  (match c.state with `Hello -> try_handshake t c | `Active _ -> ());
  match c.state with `Active s -> run_frames t c s | `Hello -> ()

(* -- endpoint I/O --------------------------------------------------------- *)

(* Bytes arrived; they are already in the endpoint's reader. *)
let arrived t = function
  | Conn c ->
      c.last <- Unix.gettimeofday ();
      process t c
  | Down d -> process_downstream t d
  | Up u -> process_upstream t u
  | Scrape m -> metrics_arrived t m

(* The output buffer drained. A client's backlog drained: execute any
   requests that backpressure left buffered. *)
let drained t = function
  | Conn c -> if c.closing then drop t c else process t c
  | Scrape m -> if m.m_done then drop_mconn t m
  | Down _ | Up _ -> ()

(* The peer hung up, or its socket failed. *)
let gone t peer reason =
  match peer with
  | Conn c -> drop t c
  | Down d -> drop_downstream t d
  | Up u -> upstream_fault u reason
  | Scrape m -> drop_mconn t m

(* Metrics scrapes are not server traffic: they stay out of
   [server.bytes_in]/[server.bytes_out]. *)
let count_bytes peer c n = match peer with Scrape _ -> () | _ -> Stats.add c n

let read_ep t peer =
  let ep = ep_of peer in
  let busy = match peer with Conn c -> c.inflight | _ -> false in
  if ep.live && not busy then
    match Unix.read ep.fd t.read_buf 0 (Bytes.length t.read_buf) with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> gone t peer (Unix.error_message e)
    | 0 -> gone t peer "peer closed the connection"
    | n ->
        count_bytes peer c_bytes_in n;
        Protocol.feed ep.rd t.read_buf n;
        arrived t peer

let write_ep t peer =
  let ep = ep_of peer in
  let data = Buffer.contents ep.out in
  match Unix.write_substring ep.fd data ep.out_pos (String.length data - ep.out_pos) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> gone t peer (Unix.error_message e)
  | n ->
      count_bytes peer c_bytes_out n;
      ep.out_pos <- ep.out_pos + n;
      if ep.out_pos = Buffer.length ep.out then begin
        Buffer.clear ep.out;
        ep.out_pos <- 0;
        drained t peer
      end

(* Every live endpoint: clients, standbys, the upstream link, scrapers. *)
let peers t =
  let up = match t.upstream with Some u when u.u_ep.live -> [ Up u ] | _ -> [] in
  List.map (fun c -> Conn c) t.conns
  @ List.map (fun d -> Down d) t.downstreams
  @ up
  @ List.map (fun m -> Scrape m) t.mconns

(* Whether [peer] has output to send now. A doomed client's replies go
   nowhere; with [gate], replies the semi-sync gate holds wait. *)
let can_write t ~gate peer =
  let ep = ep_of peer in
  ep.live
  && pending ep > 0
  && match peer with Conn c -> (not c.doomed) && not (gate && gated t c) | _ -> true

let want_read c =
  (not c.closing) && (not c.inflight) && (not c.doomed) && pending c.ep < out_cap

let want_read_peer = function Conn c -> want_read c | Scrape m -> not m.m_done | _ -> true

(* -- completions ---------------------------------------------------------- *)

let finish_completion t (cm : completion) =
  let c = cm.cm_job.rj_conn in
  c.inflight <- false;
  if c.doomed then real_drop t c
  else begin
    (match cm.cm_resp with
    | Some resp -> Protocol.encode_response c.ep.out resp
    | None ->
        (* The query tried to write (a method with side effects): replay it
           on the writer under the exclusive lock, where writes are legal.
           Already counted once by the reader's [handle_read]. *)
        Stats.incr c_reroutes;
        exec_on_writer ~count:false t c cm.cm_job.rj_session cm.cm_job.rj_rq);
    (* Resume frames that arrived while the request was in flight. *)
    process t c
  end

let drain_completions t =
  let rec go () =
    match Chan.try_pop t.dones with
    | None -> ()
    | Some cm ->
        finish_completion t cm;
        go ()
  in
  go ()

let any_inflight t = List.exists (fun c -> c.inflight) t.conns

(* -- idle eviction -------------------------------------------------------- *)

(* Monotonic last-activity queue: every live connection has exactly one
   entry, (re)queued with the wall-clock push time, so entries leave the
   head in push order and each tick pays O(ripe), not O(connections). An
   entry is inspected half a timeout after it was queued: connections that
   were active meanwhile are requeued, stale ones evicted — so eviction
   lands between [idle_timeout] and 1.5x after the last byte. Dead
   connections' entries are dropped lazily ([live]). *)
let evict_idle t =
  if t.idle_timeout > 0. then begin
    let now = Unix.gettimeofday () in
    let ripe = now -. (t.idle_timeout /. 2.) in
    let rec go () =
      match Queue.peek_opt t.idle_q with
      | Some (enq, c) when enq <= ripe ->
          ignore (Queue.pop t.idle_q);
          if c.ep.live then
            if (not c.inflight) && now -. c.last > t.idle_timeout then begin
              Stats.incr c_timeouts;
              drop t c
            end
            else Queue.push (now, c) t.idle_q;
          go ()
      | _ -> ()
    in
    go ()
  end

(* -- the loop ------------------------------------------------------------- *)

(* The ack point. Under [Group] durability every commit prepared this tick
   becomes durable here, before any reply reaches a socket. [Full] commits
   synced eagerly (nothing pends); [Async] chose to reply without waiting,
   its window bounded by [group_window] in [run_frames] and by checkpoints. *)
let ack_deferred t =
  match Db.durability t.db with
  | Db.Group -> Db.sync_commits t.db
  | Db.Full | Db.Async -> ()

(* Zero-timeout re-polls after the first read pass: requests that arrived
   while this tick was executing earlier ones join the same batch (and the
   same shared fsync) instead of waiting out a full poll round trip.
   Costless for latency — only what has already arrived is taken — and
   bounded so a firehose of pipelined clients cannot starve the ack and
   write phases. *)
let gather_rounds = 8

let rec gather t rounds =
  if rounds > 0 then begin
    Poll.clear t.pset;
    List.iter (fun c -> if want_read c then add_peer t (Conn c) ~read:true ~write:false) t.conns;
    if Poll.length t.pset > 0 && Poll.wait t.pset ~timeout_ms:0 > 0 then begin
      each_ready t Poll.is_readable (function S_peer p -> read_ep t p | _ -> ());
      gather t (rounds - 1)
    end
  end

let one_iteration t =
  let now = Unix.gettimeofday () in
  if t.promote_flag then begin
    t.promote_flag <- false;
    match promote t with
    | Ok msg -> Printf.eprintf "replication: %s\n%!" msg
    | Error _ -> ()
  end;
  (match t.upstream with Some u -> try_reconnect t u | None -> ());
  manage_gate t now;
  (* Register interest. Slot indices are dense and index-aligned with
     [t.slots], rebuilt every tick. *)
  Poll.clear t.pset;
  if now >= t.accept_pause then slot_add t S_listen t.listen_fd ~read:true ~write:false;
  (match t.repl_listen_fd with
  | Some fd -> slot_add t S_repl_listen fd ~read:true ~write:false
  | None -> ());
  (match t.metrics_fd with
  | Some fd -> slot_add t S_metrics_listen fd ~read:true ~write:false
  | None -> ());
  if t.nreaders > 0 then slot_add t S_wake t.wake_r ~read:true ~write:false;
  List.iter
    (fun p ->
      let read = want_read_peer p and write = can_write t ~gate:true p in
      if read || write then add_peer t p ~read ~write)
    (peers t);
  (* Completions already queued (or an accept backoff about to lapse) mean
     work is waiting — don't sleep a full tick on it. *)
  let timeout_ms =
    if t.nreaders > 0 && Chan.length t.dones > 0 then 0
    else if t.accept_pause > now then 50
    else 250
  in
  ignore (Poll.wait t.pset ~timeout_ms);
  (* Listeners, the wake pipe, scrapers and the upstream first: accepts and
     shipped batches applied this tick are visible to everything below.
     Clients and standbys are read in their own phases after it. *)
  let clients = ref [] and standbys = ref [] in
  each_ready t Poll.is_readable (function
    | S_listen -> accept_pending t
    | S_repl_listen -> Option.iter (accept_repl t) t.repl_listen_fd
    | S_metrics_listen -> Option.iter (accept_metrics t) t.metrics_fd
    | S_wake -> drain_wake t
    | S_peer (Conn _ as p) -> clients := p :: !clients
    | S_peer (Down _ as p) -> standbys := p :: !standbys
    | S_peer p -> read_ep t p
    | S_none -> ());
  (* Client reads: feed frame readers, execute writer requests inline,
     dispatch read-only ones to the reader domains. *)
  List.iter (read_ep t) (List.rev !clients);
  gather t gather_rounds;
  (* Reader completions: buffer their replies (and replay any re-routed
     writes) so they join this tick's write phase. *)
  if t.nreaders > 0 then drain_completions t;
  (* Standby acks — read before the write phase so the semi-sync gate sees
     them this tick. *)
  List.iter (read_ep t) (List.rev !standbys);
  (* Read phase done: everything executed this tick shares one fsync.
     Replies buffered above only hit the sockets below, after it — and the
     fsync fed the observer, so the batches covering this tick's commits
     are already queued on the downstreams. *)
  ack_deferred t;
  (* Write phase, opportunistic: attempt every pending buffer rather than
     only poll's writable set — sockets are rarely full, EAGAIN costs one
     syscall, and batches/acks/replies produced *this* tick get out without
     waiting a poll round. Gated replies stay put. *)
  List.iter
    (fun p ->
      if can_write t ~gate:true p then
        match p with
        | Down d when pending d.d_ep > downstream_out_cap -> drop_downstream t d
        | _ -> write_ep t p)
    (peers t);
  sweep_mconns t now;
  update_gauges t

(* Graceful shutdown: stop accepting, collect outstanding reader
   completions, stop the reader domains, flush what's already encoded
   (bounded by [drain_deadline]), abort every session's open transaction,
   release the sockets. Requests still sitting unparsed in input buffers
   are dropped — "in-flight" means a response exists. Semi-sync gating is
   not applied here: a graceful shutdown loses nothing, so holding replies
   hostage to a standby would only strand clients. *)
let drain t =
  close_fd t.listen_fd;
  (match t.repl_listen_fd with Some fd -> close_fd fd | None -> ());
  (match t.metrics_fd with Some fd -> close_fd fd | None -> ());
  List.iter (fun m -> drop_mconn t m) t.mconns;
  (match t.upstream with Some u -> close_ep u.u_ep | None -> ());
  let deadline = Unix.gettimeofday () +. drain_deadline in
  (* Every dispatched request completes (readers never abandon a job);
     collecting one may execute further frames that connection had
     buffered, which can dispatch again — hence the loop. *)
  let rec settle () =
    drain_completions t;
    if any_inflight t && Unix.gettimeofday () < deadline then begin
      Unix.sleepf 0.005;
      settle ()
    end
  in
  if t.nreaders > 0 then settle ();
  stop_readers t;
  let rec flush () =
    (* Buffers may hold replies whose commits are still pending — both from
       the final serve tick and from backpressured frames that a drained
       write just executed ([drained] → [process]). Newly encoded replies
       only reach a socket on the {e next} round, so acking at the top of
       every round keeps the reply-after-fsync guarantee through
       shutdown. *)
    ack_deferred t;
    let waiting = List.filter (can_write t ~gate:false) (peers t) in
    if waiting <> [] && Unix.gettimeofday () < deadline then begin
      Poll.clear t.pset;
      List.iter (fun p -> add_peer t p ~read:false ~write:true) waiting;
      if Poll.wait t.pset ~timeout_ms:250 > 0 then
        each_ready t Poll.is_writable (function
          | S_peer p when (ep_of p).live -> write_ep t p
          | _ -> ());
      flush ()
    end
  in
  flush ();
  List.iter (fun c -> real_drop t c) t.conns;
  List.iter (fun d -> drop_downstream t d) t.downstreams;
  close_fd t.wake_r;
  close_fd t.wake_w

let serve t =
  while not t.stop do
    one_iteration t;
    evict_idle t
  done;
  drain t

(* -- construction --------------------------------------------------------- *)

let bind_listener ~host ~port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 256;
  Unix.set_nonblock fd;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> (fd, p)
  | _ -> assert false

let create ?(host = "127.0.0.1") ?(max_conns = 64) ?(idle_timeout = 300.) ?durability
    ?(group_window = 64) ?repl_port ?metrics_port ?(sync_repl = false) ?replica
    ?(domains = 1) ~db ~port () =
  if domains < 1 then invalid_arg "Server.create: domains must be >= 1";
  Option.iter (Db.set_durability db) durability;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let nreaders = domains - 1 in
  let listen_fd, lport = bind_listener ~host ~port in
  let repl_listen_fd, rport =
    match repl_port with
    | None -> (None, 0)
    | Some p ->
        let fd, p = bind_listener ~host ~port:p in
        (Some fd, p)
  in
  let metrics_fd, mport =
    match metrics_port with
    | None -> (None, 0)
    | Some p ->
        let fd, p = bind_listener ~host ~port:p in
        (Some fd, p)
  in
  let upstream =
    Option.map
      (fun (u_host, u_port, link) ->
        { u_host; u_port; u_ep = link_endpoint link; u_retry_at = 0. })
      replica
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let job_cap = max 1 (4 * nreaders) in
  let t =
    {
      db;
      listen_fd;
      lport;
      repl_listen_fd;
      rport;
      metrics_fd;
      mport;
      sync_repl;
      max_conns;
      idle_timeout;
      group_window = max 1 group_window;
      read_buf = Bytes.create 65536;
      nreaders;
      engine_lock = Db.latch db;
      jobs = Chan.create job_cap;
      (* Sized past the maximum in-flight count so reader pushes never
         block. *)
      dones = Chan.create (job_cap + nreaders + 8);
      wake_r;
      wake_w;
      pset = Poll.create ();
      slots = Array.make 64 S_none;
      readers = [];
      idle_q = Queue.create ();
      accept_pause = 0.;
      conns = [];
      mconns = [];
      downstreams = [];
      upstream;
      degraded = false;
      gate_since = None;
      promote_flag = false;
      next_session = 0;
      stop = false;
    }
  in
  (match t.repl_listen_fd with
  | Some _ ->
      Db.set_wal_observer db
        (Some (fun ~data ~from_lsn ~to_lsn -> feed t ~data ~from_lsn ~to_lsn))
  | None -> ());
  (* Health gauges, sampled at scrape time. Registration replaces any prior
     server's sampler of the same name (one live server per process is the
     rule), and a sampler that raises — e.g. over an already-closed
     database in tests — reads as 0 rather than failing the scrape. *)
  Stats.register_gauge "server.connections" (fun () -> List.length t.conns);
  Stats.register_gauge "server.read_queue_depth" (fun () -> Chan.length t.jobs);
  Stats.register_gauge "wal.pending_commits" (fun () -> Db.pending_commits db);
  Stats.register_gauge "store.pool_resident" (fun () -> Db.pool_resident db);
  Stats.register_gauge "store.ocache_resident" (fun () -> Db.ocache_resident db);
  (* MVCC health: open write txns, registered snapshots, the GC horizon
     (0 when no snapshot pins one) and the dead-version backlog. *)
  Stats.register_gauge "mvcc.active_txns" (fun () -> List.length (Db.open_txns db));
  Stats.register_gauge "mvcc.snapshots" (fun () -> Db.live_snapshots db);
  Stats.register_gauge "mvcc.oldest_snapshot" (fun () ->
      match Db.oldest_snapshot db with Some ts -> ts | None -> 0);
  Stats.register_gauge "mvcc.chains" (fun () -> Db.mvcc_chains db);
  Stats.register_gauge "mvcc.dead_versions" (fun () -> Db.mvcc_dead_versions db);
  Stats.register_gauge "mvcc.reclaimed" (fun () -> Db.mvcc_reclaimed db);
  (* A replica announces its position and drains whatever the primary
     pipelined behind the bootstrap handshake. *)
  (match t.upstream with
  | Some u ->
      queue_ack t u;
      process_upstream t u
  | None -> ());
  if nreaders > 0 then
    t.readers <- List.init nreaders (fun _ -> Domain.spawn (fun () -> reader_loop t));
  t

(* -- fork helper for tests and benchmarks --------------------------------- *)

let spawn_full ?max_conns ?idle_timeout ?durability ?group_window ?repl_port ?metrics_port
    ?slow_query_ms ?sync_repl ?replica_of ?domains ~db_dir () =
  let r, w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> (
      Unix.close r;
      let rc =
        try
          (* The forked image inherits the parent's process-global counters
             and histograms (a test or bench harness may have accumulated
             thousands of WAL syncs by now). Zero them before opening the
             database so this server's /metrics and .stats describe this
             server — recovery counters bumped by the open below survive. *)
          Ode_util.Stats.reset ();
          ignore (Ode_util.Histogram.rows ~reset:true ());
          let db, replica =
            match replica_of with
            | None -> (Ode.Database.open_ db_dir, None)
            | Some (host, port) ->
                let db, up = Replication.bootstrap ~db_dir ~host ~port () in
                (db, Some (host, port, up))
          in
          Option.iter
            (fun ms ->
              Ode_util.Slowlog.configure
                ~log_path:(Filename.concat db_dir "slow_query.log")
                ~threshold_ms:ms ())
            slow_query_ms;
          (* Role label for trace dumps: a primary's and a standby's dump
             stay distinguishable when merged (same as bin/ode_server). *)
          Ode_util.Trace.set_process_label
            (match replica_of with
            | Some _ -> "ode_server (replica)"
            | None -> "ode_server");
          (* Reader domains spawn here, in the child — [create] runs after
             the fork, so the forked image never contains running domains. *)
          let t =
            create ?max_conns ?idle_timeout ?durability ?group_window ?repl_port
              ?metrics_port ?sync_repl ?replica ?domains ~db ~port:0 ()
          in
          handle_signals t;
          let msg = Printf.sprintf "%d %d %d\n" t.lport t.rport t.mport in
          ignore (Unix.write_substring w msg 0 (String.length msg));
          Unix.close w;
          serve t;
          Ode.Database.close db;
          0
        with _ -> 1
      in
      (* _exit: never run the parent's at_exit handlers in the child. *)
      Unix._exit rc)
  | pid ->
      Unix.close w;
      let buf = Bytes.create 64 in
      let n = Unix.read r buf 0 64 in
      Unix.close r;
      if n <= 0 then failwith "Server.spawn: child died before reporting its ports";
      (match String.split_on_char ' ' (String.trim (Bytes.sub_string buf 0 n)) with
      | [ cp; rp; mp ] -> (pid, int_of_string cp, int_of_string rp, int_of_string mp)
      | _ -> failwith "Server.spawn: malformed port report")

let spawn ?max_conns ?idle_timeout ?durability ?group_window ?repl_port ?sync_repl
    ?replica_of ?domains ~db_dir () =
  let pid, port, _, _ =
    spawn_full ?max_conns ?idle_timeout ?durability ?group_window ?repl_port ?sync_repl
      ?replica_of ?domains ~db_dir ()
  in
  (pid, port)
