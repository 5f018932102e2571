(* End-to-end serving tests over loopback: a forked ode-served event loop
   on a temp database, driven by real protocol clients. Covers concurrent
   sessions (interleaved autocommit + concurrent MVCC explicit transactions
   with first-committer-wins conflicts), idle-timeout eviction, max-conns
   rejection, and graceful shutdown leaving the store recoverable. *)

module Server = Ode_served.Server
module Client = Ode_served.Client
module Db = Ode.Database

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Parse "name 123" out of a [.stats]-style dump. *)
let counter_value dump name =
  match String.index_from_opt dump 0 ' ' with
  | _ -> (
      let re_prefix = name ^ " " in
      let rec find i =
        if i + String.length re_prefix > String.length dump then None
        else if String.sub dump i (String.length re_prefix) = re_prefix then Some (i + String.length re_prefix)
        else find (i + 1)
      in
      match find 0 with
      | None -> None
      | Some p ->
          let e = ref p in
          while !e < String.length dump && dump.[!e] >= '0' && dump.[!e] <= '9' do incr e done;
          if !e = p then None else Some (int_of_string (String.sub dump p (!e - p))))

(* Run [f client...] against a freshly spawned server; always reap the
   child, even on test failure. Returns the db dir for post-mortems. *)
let with_server ?max_conns ?idle_timeout ?durability ?group_window ?domains f =
  let dir = Tutil.temp_dir "ode-served" in
  let pid, port =
    Server.spawn ?max_conns ?idle_timeout ?durability ?group_window ?domains ~db_dir:dir ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () -> f port);
  dir

let connect port = Client.connect ~timeout:10. ~host:"127.0.0.1" ~port ()

let schema = "class acct { owner: string; bal: int; }; create cluster acct;"

(* -- basic round trips ---------------------------------------------------- *)

let basic () =
  ignore
    (with_server (fun port ->
         let c = connect port in
         Client.ping c;
         Tutil.check_string "ddl output" "" (Client.exec c schema);
         Tutil.check_string "exec output" "opened 10\n"
           (Client.exec c
              "a := pnew acct { owner = \"ada\", bal = 10 }; print \"opened\", a.bal;");
         (* Query rows render oid + fields. *)
         (match Client.query c "forall x in acct" with
         | [ row ] ->
             Tutil.check_bool "row has owner" true (contains row "owner = \"ada\"");
             Tutil.check_bool "row has bal" true (contains row "bal = 10")
         | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows));
         (* Errors come back rendered, connection stays usable. *)
         (match Client.exec c "forall x in nope { print x; };" with
         | _ -> Alcotest.fail "expected Server_error"
         | exception Client.Server_error msg ->
             Tutil.check_bool "rendered error" true (contains msg "nope"));
         Client.ping c;
         (* Dot commands run remotely; serving counters are visible. *)
         let stats = Client.dot c ".stats" in
         Tutil.check_bool "server.requests counted" true
           (match counter_value stats "server.requests" with Some n -> n >= 5 | None -> false);
         let hist = Client.dot c ".hist server.request" in
         Tutil.check_bool "request histogram" true (contains hist "server.request count");
         Client.close c))

(* -- 4 concurrent sessions ------------------------------------------------ *)

let concurrent_sessions () =
  ignore
    (with_server (fun port ->
         let cs = Array.init 4 (fun _ -> connect port) in
         Tutil.check_string "schema" "" (Client.exec cs.(0) schema);
         (* Interleaved autocommit writes: each statement is its own
            transaction, sessions take turns round-robin. *)
         for round = 0 to 4 do
           Array.iteri
             (fun i c ->
               ignore
                 (Client.exec c
                    (Printf.sprintf "pnew acct { owner = \"c%d\", bal = %d };" i round)))
             cs
         done;
         (match Client.query cs.(3) "forall x in acct" with
         | rows -> Tutil.check_int "20 interleaved objects" 20 (List.length rows));
         (* Session variables are per-connection. *)
         ignore (Client.exec cs.(0) "secret := 41;");
         Tutil.check_string "own vars visible" "42\n" (Client.exec cs.(0) "print secret + 1;");
         (match Client.exec cs.(1) "print secret;" with
         | _ -> Alcotest.fail "sessions must not share variables"
         | exception Client.Server_error _ -> ());
         (* MVCC: sessions hold explicit transactions concurrently, each on
            its own snapshot, while other sessions keep autocommitting. *)
         ignore (Client.exec cs.(0) "begin; pnew acct { owner = \"uncommitted\", bal = 0 };");
         ignore (Client.exec cs.(1) "begin; pnew acct { owner = \"second\", bal = 0 };");
         ignore (Client.exec cs.(2) "pnew acct { owner = \"not_blocked\", bal = 0 };");
         (* Each holder sees its own uncommitted write plus the autocommit,
            not the other's; snapshots were taken at [begin], before the
            autocommit, so neither sees "not_blocked". *)
         Tutil.check_int "holder 0 sees own write" 21
           (List.length (Client.query cs.(0) "forall x in acct"));
         Tutil.check_int "holder 1 sees own write" 21
           (List.length (Client.query cs.(1) "forall x in acct"));
         ignore (Client.exec cs.(0) "abort;");
         ignore (Client.exec cs.(1) "commit;");
         (* After the dust settles: 20 + autocommit + session 1's commit. *)
         Tutil.check_int "abort rolled back, commit kept" 22
           (List.length (Client.query cs.(3) "forall x in acct"));
         (* The .txns introspection reflects open transactions. *)
         ignore (Client.exec cs.(0) "begin;");
         Tutil.check_bool ".txns reports the open txn" true
           (contains (Client.dot cs.(1) ".txns") "open txns 1");
         ignore (Client.exec cs.(0) "abort;");
         (* Write-write conflict: two explicit transactions race on the
            same object. The loser's commit comes back as the retryable
            conflict; spread over several requests the client's automatic
            replay (of the commit request alone) cannot win, so it
            surfaces as [Client.Conflict] — and a whole-transaction replay
            in one request then lands. *)
         ignore (Client.exec cs.(2) "t := pnew acct { owner = \"hot\", bal = 0 };");
         ignore (Client.exec cs.(0) "forall x in acct suchthat x.owner = \"hot\" { r := x; };");
         ignore (Client.exec cs.(1) "forall x in acct suchthat x.owner = \"hot\" { r := x; };");
         ignore (Client.exec cs.(1) "begin;");
         ignore (Client.exec cs.(1) "r.bal := r.bal + 10;");
         (* Session 0 commits the same object first, in one request. *)
         ignore (Client.exec cs.(0) "begin; r.bal := r.bal + 100; commit;");
         (match Client.exec cs.(1) "commit;" with
         | _ -> Alcotest.fail "losing commit must conflict"
         | exception Client.Conflict msg ->
             Tutil.check_bool "conflict names the object" true (contains msg "conflict"));
         (* Replayed as one self-contained request, the transaction reads
            the winner's state and applies cleanly. *)
         ignore (Client.exec cs.(1) "begin; r.bal := r.bal + 10; commit;");
         Tutil.check_string "both increments landed" "110\n"
           (Client.exec cs.(2)
              "forall x in acct suchthat x.owner = \"hot\" { print x.bal; };");
         Array.iter Client.close cs))

(* -- idle-timeout eviction ------------------------------------------------ *)

let idle_eviction () =
  ignore
    (with_server ~idle_timeout:0.4 (fun port ->
         let c = connect port in
         ignore (Client.exec c schema);
         (* Park an open explicit transaction and go idle past the limit. *)
         ignore (Client.exec c "begin; pnew acct { owner = \"ghost\", bal = 1 };");
         Unix.sleepf 1.2;
         (* The server hung up; the client reconnects once, transparently,
            into a fresh session. *)
         Client.ping c;
         (* Eviction rolled the parked transaction back and was counted. *)
         Tutil.check_int "evicted txn rolled back" 0
           (List.length (Client.query c "forall x in acct"));
         let stats = Client.dot c ".stats" in
         Tutil.check_bool "timeout counted" true
           (match counter_value stats "server.timeouts" with Some n -> n >= 1 | None -> false);
         Client.close c))

(* -- max-conns rejection -------------------------------------------------- *)

let busy_rejection () =
  ignore
    (with_server ~max_conns:2 (fun port ->
         let c1 = connect port in
         let c2 = connect port in
         Client.ping c1;
         Client.ping c2;
         (match connect port with
         | _ -> Alcotest.fail "third client must be rejected"
         | exception Client.Rejected msg ->
             Tutil.check_bool "friendly busy message" true (contains msg "busy"));
         (* Rejection is counted, and the slot frees once a client leaves. *)
         let stats = Client.dot c1 ".stats" in
         Tutil.check_bool "reject counted" true
           (match counter_value stats "server.rejects" with Some n -> n >= 1 | None -> false);
         Client.close c2;
         let rec retry_connect n =
           match connect port with
           | c -> c
           | exception Client.Rejected _ when n > 0 ->
               Unix.sleepf 0.1;
               retry_connect (n - 1)
         in
         let c4 = retry_connect 20 in
         Client.ping c4;
         Client.close c4;
         Client.close c1))

(* -- graceful shutdown leaves the store recoverable ----------------------- *)

let graceful_shutdown () =
  let dir = Tutil.temp_dir "ode-served" in
  let pid, port = Server.spawn ~db_dir:dir () in
  let c = connect port in
  ignore (Client.exec c schema);
  ignore (Client.exec c "pnew acct { owner = \"durable\", bal = 100 };");
  (* Leave an explicit transaction open across the shutdown. *)
  ignore (Client.exec c "begin; pnew acct { owner = \"doomed\", bal = -1 };");
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  Tutil.check_bool "clean exit" true (status = Unix.WEXITED 0);
  (* Reopen the directory: the open transaction was aborted, the committed
     state survived, and the integrity checker is happy. *)
  let db = Db.open_ dir in
  (match Ode.Verify.run db with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "verify after shutdown: %s" (String.concat "; " ps));
  Tutil.check_int "only the committed object survives" 1
    (Ode.Query.count db ~var:"x" ~cls:"acct" ());
  Db.close db;
  (try Client.close c with _ -> ())

(* -- group commit: shared fsync across concurrent autocommits ------------- *)

(* 4 client processes hammer autocommit writes at a [Group]-durability
   server. Every reply is a durable commit (acked after the batch fsync),
   yet the server must have paid far fewer than one fsync per commit: the
   scheduler batches whatever arrived in a tick under one [Wal.sync], and
   [wal_sync_saved] counts exactly the fsyncs the batching avoided. *)
let group_commit_batching () =
  let clients = 4 and per_client = 40 in
  ignore
    (with_server ~durability:Db.Group (fun port ->
         let control = connect port in
         Tutil.check_string "schema" "" (Client.exec control schema);
         let spawn_writer i =
           flush stdout;
           flush stderr;
           match Unix.fork () with
           | 0 ->
               let errors = ref 0 in
               (try
                  let c = connect port in
                  for n = 0 to per_client - 1 do
                    try
                      ignore
                        (Client.exec c
                           (Printf.sprintf "pnew acct { owner = \"w%d\", bal = %d };" i n))
                    with _ -> incr errors
                  done;
                  Client.close c
                with _ -> errors := 100);
               Unix._exit (min 100 !errors)
           | pid -> pid
         in
         let pids = List.init clients spawn_writer in
         List.iter
           (fun pid ->
             match Unix.waitpid [] pid with
             | _, Unix.WEXITED 0 -> ()
             | _, Unix.WEXITED n -> Alcotest.failf "writer reported %d errors" n
             | _ -> Alcotest.fail "writer died abnormally")
           pids;
         let commits = clients * per_client in
         Tutil.check_int "every autocommit visible" commits
           (List.length (Client.query control "forall x in acct"));
         let stats = Client.dot control ".stats" in
         let counter name =
           match counter_value stats name with
           | Some n -> n
           | None -> Alcotest.failf "no %s in stats dump" name
         in
         (* Batching happened: at least one tick held 2+ commits under one
            fsync, and the sync total stayed below one-per-commit. *)
         Tutil.check_bool "some shared fsyncs" true (counter "wal_sync_saved" >= 1);
         Tutil.check_bool "syncs sublinear in commits" true (counter "wal_syncs" < commits);
         let hist = Client.dot control ".hist wal.group_size" in
         Tutil.check_bool "group size histogram populated" true
           (contains hist "wal.group_size count");
         Client.close control))

(* -- acked means durable: SIGKILL after replies, nothing may be lost ------ *)

let group_kill9_durability () =
  let n = 30 in
  let dir = Tutil.temp_dir "ode-served" in
  let pid, port = Server.spawn ~durability:Db.Group ~db_dir:dir () in
  let c = connect port in
  ignore (Client.exec c schema);
  for i = 0 to n - 1 do
    ignore (Client.exec c (Printf.sprintf "pnew acct { owner = \"k%d\", bal = %d };" i i))
  done;
  (* Every exec above was replied to, so its commit must already be on disk:
     the scheduler fsyncs before flushing replies. SIGKILL — no shutdown
     path, no drain, no checkpoint. *)
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  (try Client.close c with _ -> ());
  let db = Db.open_ dir in
  (match Ode.Verify.run db with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "verify after kill -9: %s" (String.concat "; " ps));
  Tutil.check_int "all acked commits survive kill -9" n
    (Ode.Query.count db ~var:"x" ~cls:"acct" ());
  Db.close db

(* -- beyond select's FD_SETSIZE: >1024 live connections ------------------- *)

(* The poll-based loop has no 1024-descriptor ceiling: hold 1100 sessions
   open at once, serve them all, and see the accept counter agree. *)
let thousand_plus_connections () =
  let n = 1100 in
  ignore
    (with_server ~max_conns:1500 ~idle_timeout:120. (fun port ->
         let cs = Array.init n (fun _ -> connect port) in
         Tutil.check_string "schema over conn 0" "" (Client.exec cs.(0) schema);
         ignore (Client.exec cs.(0) "pnew acct { owner = \"many\", bal = 1 };");
         (* Every one of the 1100 concurrently-open sessions is live. *)
         Array.iter Client.ping cs;
         Tutil.check_int "query over the last conn" 1
           (List.length (Client.query cs.(n - 1) "forall x in acct"));
         let stats = Client.dot cs.(0) ".stats" in
         Tutil.check_bool "accepts counted past 1024" true
           (match counter_value stats "server.accepts" with
           | Some v -> v >= n
           | None -> false);
         Array.iter Client.close cs))

(* -- reader domains: parallel queries, funneled writes -------------------- *)

(* A --domains 3 server (1 writer + 2 readers): concurrent reader processes
   stream queries while the parent keeps writing. Every query reply must be
   a consistent snapshot (row count only ever grows), writes all land,
   explicit transactions from several sessions coexist on stable snapshots,
   and a query that turns out to write is re-routed to the writer and still
   answered correctly. *)
let reader_domains_e2e () =
  let readers = 3 and queries_per_reader = 120 in
  ignore
    (with_server ~domains:3 (fun port ->
         let control = connect port in
         Tutil.check_string "schema" "" (Client.exec control schema);
         for i = 0 to 19 do
           ignore
             (Client.exec control
                (Printf.sprintf "pnew acct { owner = \"pre%d\", bal = %d };" i i))
         done;
         let spawn_reader id =
           flush stdout;
           flush stderr;
           match Unix.fork () with
           | 0 ->
               let errors = ref 0 in
               (try
                  let c = connect port in
                  let last = ref 20 in
                  for _ = 1 to queries_per_reader do
                    Client.ping c;
                    let rows = List.length (Client.query c "forall x in acct") in
                    (* Snapshots are consistent and monotone: never torn
                       mid-write, never going backwards. *)
                    if rows < !last || rows > 40 then incr errors;
                    last := max !last rows
                  done;
                  Client.close c
                with _ -> errors := 100 + id);
               Unix._exit (min 120 !errors)
           | pid -> pid
         in
         let pids = List.init readers spawn_reader in
         for i = 20 to 39 do
           ignore
             (Client.exec control
                (Printf.sprintf "pnew acct { owner = \"mid%d\", bal = %d };" i i))
         done;
         List.iter
           (fun pid ->
             match Unix.waitpid [] pid with
             | _, Unix.WEXITED 0 -> ()
             | _, Unix.WEXITED e -> Alcotest.failf "reader process reported %d errors" e
             | _ -> Alcotest.fail "reader process died abnormally")
           pids;
         Tutil.check_int "all writes landed" 40
           (List.length (Client.query control "forall x in acct"));
         (* Explicit transactions from several sessions coexist across
            domains: while [control] holds one open, another session's
            begin succeeds and reader-domain queries see a stable snapshot
            that excludes both sessions' uncommitted writes. *)
         let c2 = connect port in
         let c3 = connect port in
         ignore (Client.exec control "begin; pnew acct { owner = \"held\", bal = 0 };");
         ignore (Client.exec c2 "begin; pnew acct { owner = \"held2\", bal = 0 };");
         Tutil.check_int "reader sees neither uncommitted write" 40
           (List.length (Client.query c3 "forall x in acct"));
         ignore (Client.exec control "abort;");
         (* Queries inside an explicit transaction stay on the writer (they
            must see the transaction's own uncommitted writes). *)
         Tutil.check_int "txn query sees own write" 41
           (List.length (Client.query c2 "forall x in acct"));
         ignore (Client.exec c2 "abort;");
         (* A transaction's snapshot is stable mid-write: a commit from
            another session after [begin] stays invisible until the
            transaction ends (the committed row is undone through the
            version chains on read). *)
         ignore (Client.exec c2 "begin;");
         Tutil.check_int "snapshot taken at begin" 40
           (List.length (Client.query c2 "forall x in acct"));
         ignore (Client.exec control "pnew acct { owner = \"leak\", bal = 1 };");
         Tutil.check_int "foreign commit invisible mid-txn" 40
           (List.length (Client.query c2 "forall x in acct"));
         ignore (Client.exec c2 "commit;");
         Tutil.check_int "visible once the txn ends" 41
           (List.length (Client.query c2 "forall x in acct"));
         Client.close c3;
         let stats = Client.dot control ".stats" in
         Tutil.check_bool "requests counted" true
           (match counter_value stats "server.requests" with
           | Some v -> v >= readers * 2 * queries_per_reader
           | None -> false);
         Client.close c2;
         Client.close control))

(* -- observability: /metrics endpoint, /health, slow-query log ------------ *)

(* One-shot HTTP GET against the metrics listener: write the request line,
   read to EOF (the server answers exactly one request and closes). *)
let http_get port path =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let rq = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      let rec send pos =
        if pos < String.length rq then
          send (pos + Unix.write_substring fd rq pos (String.length rq - pos))
      in
      send 0;
      let b = Buffer.create 4096 in
      let buf = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes b buf 0 n;
            drain ()
        | exception Unix.Unix_error (EINTR, _, _) -> drain ()
      in
      drain ();
      Buffer.contents b)

(* The body of an HTTP response: everything after the header separator. *)
let http_body resp =
  let rec find i =
    if i + 4 > String.length resp then String.length resp
    else if String.sub resp i 4 = "\r\n\r\n" then i + 4
    else find (i + 1)
  in
  let p = find 0 in
  String.sub resp p (String.length resp - p)

(* A --domains 2 server with the metrics endpoint bound and the slow-query
   log armed at 0 ms (every request logs). Drive real load, then assert the
   whole observability surface: a parseable Prometheus scrape with counters,
   gauges and latency quantiles; the health document; 404s; the JSON twin;
   and a slow-query log whose entries carry trace ids, the queue-wait /
   execute split and per-plan-node profiles — also visible via [.slow]. *)
let observability_endpoint () =
  let dir = Tutil.temp_dir "ode-served" in
  let pid, port, _, mport =
    Server.spawn_full ~domains:2 ~metrics_port:0 ~slow_query_ms:0 ~db_dir:dir ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      let c = connect port in
      Tutil.check_string "schema" "" (Client.exec c schema);
      for i = 0 to 9 do
        ignore (Client.exec c (Printf.sprintf "pnew acct { owner = \"m%d\", bal = %d };" i i))
      done;
      for _ = 1 to 5 do
        ignore (Client.query c "forall x in acct")
      done;
      let resp = http_get mport "/metrics" in
      Tutil.check_bool "scrape is 200" true (contains resp "200 OK");
      Tutil.check_bool "prometheus content type" true
        (contains resp "text/plain; version=0.0.4");
      let body = http_body resp in
      Tutil.check_bool "requests counter exposed" true (contains body "ode_server_requests");
      Tutil.check_bool "counter TYPE line" true
        (contains body "# TYPE ode_server_requests counter");
      Tutil.check_bool "repl lag gauge exposed" true (contains body "ode_repl_lag_commits");
      Tutil.check_bool "queue depth gauge exposed" true
        (contains body "ode_server_read_queue_depth");
      Tutil.check_bool "connections gauge exposed" true (contains body "ode_server_connections");
      Tutil.check_bool "latency quantiles exposed" true (contains body "quantile=\"0.5\"");
      (* Every sample line must end in a number a scraper can parse. *)
      List.iter
        (fun line ->
          if line <> "" && line.[0] <> '#' then
            match String.rindex_opt line ' ' with
            | None -> Alcotest.failf "unparseable sample line: %s" line
            | Some i -> (
                match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
                | Some _ -> ()
                | None -> Alcotest.failf "non-numeric sample value in: %s" line))
        (String.split_on_char '\n' body);
      let h = http_body (http_get mport "/health") in
      Tutil.check_bool "health: primary role" true (contains h "\"role\":\"primary\"");
      Tutil.check_bool "health: nonzero lsn" false (contains h "\"lsn\":0,");
      Tutil.check_bool "health: domain count" true (contains h "\"domains\":2");
      Tutil.check_bool "health: slow log armed" true (contains h "\"slow_log_armed\":true");
      Tutil.check_bool "unknown path 404s" true (contains (http_get mport "/nope") "404");
      let j = http_body (http_get mport "/metrics.json") in
      Tutil.check_bool "json scrape has counters" true (contains j "\"counters\"");
      Tutil.check_bool "json scrape has histograms" true (contains j "\"histograms\"");
      let log =
        In_channel.with_open_text (Filename.concat dir "slow_query.log") In_channel.input_all
      in
      Tutil.check_bool "slow log carries trace ids" true (contains log "\"trace\":");
      Tutil.check_bool "slow log splits queue wait" true (contains log "\"queue_wait_ns\":");
      Tutil.check_bool "slow log has plan profiles" true (contains log "\"profile\":");
      Tutil.check_bool "slow log names the statement" true (contains log "forall x in acct");
      let slow = Client.dot c ".slow 3" in
      Tutil.check_bool ".slow shows retained entries" true (contains slow "\"exec_ns\":");
      let mj = Client.dot c ".metrics json" in
      Tutil.check_bool ".metrics json over the wire" true (contains mj "\"gauges\"");
      Client.close c)

(* -- flow control on raw sockets ------------------------------------------ *)

module P = Ode_served.Protocol

let raw_socket port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* A small receive window keeps the kernel's share of an unread backlog
     small, so the server's own reply buffer fills quickly. *)
  Unix.setsockopt_int fd Unix.SO_RCVBUF 65536;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* A client that pipelines queries with large replies and reads none of
   them: once a MiB of replies is backed up, the server stops reading that
   socket, so [server.bytes_in] freezes (only the control session's own
   [.stats] requests still count) and the client's writes stall. Once the
   client reads, every reply arrives, in request order. *)
let backpressure_pipeline () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  ignore
    (with_server (fun port ->
         let control = connect port in
         let big = String.make (128 * 1024) 'x' in
         ignore
           (Client.exec control
              (Printf.sprintf "class blob { s: string; }; create cluster blob; pnew blob { s = %S };"
                 big));
         let fd = raw_socket port in
         Fun.protect
           ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
           (fun () ->
             ignore (Unix.write_substring fd P.hello 0 P.hello_len);
             let reply = Bytes.create P.hello_reply_len in
             Tutil.check_int "hello reply" P.hello_reply_len
               (Unix.read fd reply 0 P.hello_reply_len);
             Tutil.check_bool "accepted" true
               (P.parse_hello_reply (Bytes.to_string reply) = Ok P.version);
             Unix.set_nonblock fd;
             let q = "forall x in blob" ^ String.make (64 * 1024) ' ' in
             let frame id =
               let b = Buffer.create (70 * 1024) in
               P.encode_request b { P.rq_id = id; rq_trace = 0; rq_op = Query q };
               Buffer.contents b
             in
             (* Write whole frames until the socket stays full for a second;
                a frame cut short by the stall is never counted. *)
             let max_frames = 1024 in
             let sent = ref 0 and stalled = ref false in
             while not !stalled do
               if !sent >= max_frames then
                 Alcotest.fail "server kept reading past its reply backlog cap";
               let f = frame (!sent + 1) in
               let rec go pos =
                 if pos < String.length f then
                   match Unix.write_substring fd f pos (String.length f - pos) with
                   | n -> go (pos + n)
                   | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> (
                       match Unix.select [] [ fd ] [] 1.0 with
                       | _, [], _ -> stalled := true
                       | _ -> go pos)
               in
               go 0;
               if not !stalled then incr sent
             done;
             Tutil.check_bool "some requests went out" true (!sent > 0);
             let bytes_in () =
               match counter_value (Client.dot control ".stats") "server.bytes_in" with
               | Some n -> n
               | None -> Alcotest.fail "no server.bytes_in counter"
             in
             let stats_frame =
               let b = Buffer.create 32 in
               P.encode_request b { P.rq_id = 1; rq_trace = 1; rq_op = Dot ".stats" };
               Buffer.length b
             in
             let b1 = bytes_in () in
             Unix.sleepf 0.5;
             let b2 = bytes_in () in
             Tutil.check_int "only the control session is read" stats_frame (b2 - b1);
             Unix.clear_nonblock fd;
             Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
             let rd = P.reader () in
             let buf = Bytes.create 65536 in
             let rec next () =
               match P.next_frame rd with
               | Some body -> P.decode_response body
               | None ->
                   let n = Unix.read fd buf 0 (Bytes.length buf) in
                   if n = 0 then Alcotest.fail "server hung up mid-drain";
                   P.feed rd buf n;
                   next ()
             in
             for id = 1 to !sent do
               let r = next () in
               Tutil.check_int "reply order" id r.P.rs_id;
               match r.P.rs_reply with
               | Rows [ row ] ->
                   Tutil.check_bool "whole row" true (String.length row > String.length big)
               | _ -> Alcotest.failf "reply %d is not the one blob row" id
             done);
         Client.close control))

(* A metrics request longer than the HTTP cap is dropped without an
   answer; the endpoint keeps serving the next scrape. *)
let metrics_request_cap () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Tutil.temp_dir "ode-served" in
  let pid, _, _, mport = Server.spawn_full ~metrics_port:0 ~db_dir:dir () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      let fd = raw_socket mport in
      let got =
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let rq = "GET /" ^ String.make 9000 'a' ^ " HTTP/1.0\r\n\r\n" in
            (try ignore (Unix.write_substring fd rq 0 (String.length rq))
             with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ());
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
            let buf = Bytes.create 4096 in
            let rec drain acc =
              match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 -> acc
              | n -> drain (acc + n)
              | exception Unix.Unix_error (EINTR, _, _) -> drain acc
              | exception Unix.Unix_error (ECONNRESET, _, _) -> acc
            in
            drain 0)
      in
      Tutil.check_int "oversized request unanswered" 0 got;
      Tutil.check_bool "next scrape answered" true
        (contains (http_get mport "/health") "\"role\":\"primary\""))

let suite =
  [
    ( "server",
      [
        Alcotest.test_case "exec/query/dot round trips" `Quick basic;
        Alcotest.test_case "4 concurrent sessions, interleaved txns" `Quick concurrent_sessions;
        Alcotest.test_case "idle timeout evicts and rolls back" `Quick idle_eviction;
        Alcotest.test_case "max-conns busy rejection" `Quick busy_rejection;
        Alcotest.test_case "graceful shutdown recoverable" `Quick graceful_shutdown;
        Alcotest.test_case "group commit shares fsyncs across clients" `Quick
          group_commit_batching;
        Alcotest.test_case "group commit: acked survives kill -9" `Quick group_kill9_durability;
        Alcotest.test_case "poll loop serves >1024 concurrent connections" `Slow
          thousand_plus_connections;
        Alcotest.test_case "reader domains: parallel queries, funneled writes" `Quick
          reader_domains_e2e;
        Alcotest.test_case "metrics endpoint, health, slow-query log" `Quick
          observability_endpoint;
        Alcotest.test_case "unread replies stop reads at the backlog cap" `Quick
          backpressure_pipeline;
        Alcotest.test_case "oversized metrics request dropped" `Quick metrics_request_cap;
      ] );
  ]
