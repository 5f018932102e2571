(* WAL-shipping replication: commit-LSN accounting across checkpoints and
   crashes, the replica's batch-apply discipline, checkpoint-bounded
   recovery, and end-to-end primary/standby serving — streaming, read-only
   rejection, promotion, client failover — over real forked servers. *)

module Db = Ode.Database
module Query = Ode.Query
module Verify = Ode.Verify
module Value = Ode_model.Value
module Failpoint = Ode_util.Failpoint
module Stats = Ode_util.Stats
module Repl = Ode_served.Replication
module Server = Ode_served.Server
module Client = Ode_served.Client
module P = Ode_served.Protocol

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let schema = "class t { tag: int; v: string; }; create cluster t;"

let setup db =
  ignore (Db.define db "class t { tag: int; v: string; };");
  Db.create_cluster db "t"

let put db tag =
  Db.with_txn db (fun txn ->
      ignore (Db.pnew txn "t" [ ("tag", Value.Int tag); ("v", Value.Str "payload") ]))

(* Sorted tags of every live object — the state oracle. *)
let tags db =
  Db.with_txn db (fun txn ->
      List.sort compare
        (List.map
           (fun oid ->
             match Db.get_field txn oid "tag" with
             | Value.Int i -> i
             | _ -> Alcotest.fail "non-int tag")
           (Query.to_list db ~txn ~var:"x" ~cls:"t" ())))

let check_verified name db =
  match Verify.run db with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "%s: integrity check failed: %s" name (String.concat "; " ps)

(* -- commit LSNs across checkpoints and reopens --------------------------- *)

let lsn_counting () =
  let dir = Tutil.temp_dir "repl-lsn" in
  let db = Db.open_ dir in
  setup db;
  let l0 = Db.lsn db in
  for i = 0 to 4 do put db i done;
  Tutil.check_int "5 commits advance the lsn by 5" (l0 + 5) (Db.lsn db);
  Tutil.check_int "eager durability keeps durable in step" (Db.lsn db) (Db.durable_lsn db);
  (* The log still reaches back: a replica at l0 can resume. *)
  (match Db.wal_tail db ~lsn:l0 with
  | Some s -> Tutil.check_bool "resume tail non-empty" true (String.length s > 0)
  | None -> Alcotest.fail "tail should reach back to l0");
  (* A checkpoint truncates the log but not the count. *)
  Db.checkpoint db;
  Tutil.check_int "checkpoint keeps the lsn" (l0 + 5) (Db.lsn db);
  Tutil.check_bool "pre-checkpoint positions are gone" true (Db.wal_tail db ~lsn:l0 = None);
  Tutil.check_bool "current position resumes empty" true
    (Db.wal_tail db ~lsn:(Db.lsn db) = Some "");
  Tutil.check_bool "future positions are refused" true
    (Db.wal_tail db ~lsn:(Db.lsn db + 1) = None);
  for i = 5 to 7 do put db i done;
  Db.close db;
  let db2 = Db.open_ dir in
  Tutil.check_int "lsn exact after clean reopen" (l0 + 8) (Db.lsn db2);
  check_verified "lsn_counting" db2;
  Db.close db2

(* The [wal.lsn] failpoint sits between the sidecar write and the log
   truncation. A crash there leaves a sidecar claiming commits the log still
   physically holds; the checkpoint record's LSN must reconcile the double
   count on replay. *)
let lsn_sidecar_crash () =
  Failpoint.clear ();
  let dir = Tutil.temp_dir "repl-lsn-crash" in
  let db = Db.open_ dir in
  setup db;
  for i = 0 to 5 do put db i done;
  let l = Db.lsn db in
  Failpoint.arm "wal.lsn" ~policy:Failpoint.One_shot ~action:Failpoint.Crash_site;
  (match Db.checkpoint db with
  | () -> Alcotest.fail "expected simulated crash in checkpoint"
  | exception Failpoint.Crash _ -> ());
  Failpoint.clear ();
  Db.crash db;
  let db2 = Db.open_ dir in
  Tutil.check_int "lsn exact after sidecar/truncate crash" l (Db.lsn db2);
  Tutil.check_int "state intact" 6 (List.length (tags db2));
  put db2 6;
  Tutil.check_int "lsn keeps counting" (l + 1) (Db.lsn db2);
  check_verified "lsn_sidecar_crash" db2;
  Db.close db2

(* [Skip_effect] models a truncation that silently never happened (the
   sidecar advanced, the frames stayed). Replay must not double-count the
   retained commits. *)
let lsn_lost_truncation () =
  Failpoint.clear ();
  let dir = Tutil.temp_dir "repl-lsn-skip" in
  let db = Db.open_ dir in
  setup db;
  for i = 0 to 5 do put db i done;
  let l = Db.lsn db in
  Failpoint.arm "wal.lsn" ~policy:Failpoint.One_shot ~action:Failpoint.Skip_effect;
  Db.checkpoint db;
  Failpoint.clear ();
  Tutil.check_int "lsn unchanged by checkpoint" l (Db.lsn db);
  put db 6;
  Db.crash db;
  let db2 = Db.open_ dir in
  Tutil.check_int "lsn exact despite lost truncation" (l + 1) (Db.lsn db2);
  Tutil.check_int "state intact" 7 (List.length (tags db2));
  check_verified "lsn_lost_truncation" db2;
  Db.close db2

(* -- the replica's batch-apply discipline --------------------------------- *)

let apply_discipline () =
  let pdir = Tutil.temp_dir "repl-apply-p" in
  let rdir = Filename.concat (Tutil.temp_dir "repl-apply-r") "db" in
  (* Build the primary, checkpoint it closed, and clone the files: a
     byte-faithful standby at the same position (what a snapshot installs). *)
  let db = Db.open_ pdir in
  setup db;
  put db 0;
  Db.close db;
  Tutil.copy_dir pdir rdir;
  let pri = Db.open_ pdir and rep = Db.open_ rdir in
  Db.set_read_only rep true;
  let r0 = Db.lsn rep in
  Tutil.check_int "clone opens at the primary's lsn" (Db.lsn pri) r0;
  (* Local writes are refused — only shipped batches may move a standby. *)
  (match put rep 99 with
  | () -> Alcotest.fail "replica accepted a local write"
  | exception Ode.Types.Read_only_store -> ());
  put pri 1;
  put pri 2;
  let batch = Option.get (Db.wal_tail pri ~lsn:r0) in
  Tutil.check_bool "batch applies" true
    (Repl.apply_batch rep ~from_lsn:r0 ~to_lsn:(r0 + 2) ~data:batch = `Applied);
  Tutil.check_int "apply advances the lsn" (r0 + 2) (Db.lsn rep);
  Tutil.check_bool "replica state matches" true (tags rep = [ 0; 1; 2 ]);
  (* Redelivery after a resync: skipped, not an error. *)
  Tutil.check_bool "duplicate batch skipped" true
    (Repl.apply_batch rep ~from_lsn:r0 ~to_lsn:(r0 + 2) ~data:batch = `Duplicate);
  Tutil.check_int "duplicate does not move the lsn" (r0 + 2) (Db.lsn rep);
  put pri 3;
  put pri 4;
  (* A gap (stream skipped a batch) must force a resync... *)
  let gap = Option.get (Db.wal_tail pri ~lsn:(r0 + 3)) in
  (match Repl.apply_batch rep ~from_lsn:(r0 + 3) ~to_lsn:(r0 + 4) ~data:gap with
  | _ -> Alcotest.fail "gap must raise Resync"
  | exception Repl.Resync _ -> ());
  (* ... and so must a torn batch ... *)
  let full = Option.get (Db.wal_tail pri ~lsn:(r0 + 2)) in
  (match
     Repl.apply_batch rep ~from_lsn:(r0 + 2) ~to_lsn:(r0 + 4)
       ~data:(String.sub full 0 (String.length full - 1))
   with
  | _ -> Alcotest.fail "torn batch must raise Resync"
  | exception Repl.Resync _ -> ());
  (* ... and a corrupt one (checksummed frames catch the flip). *)
  let corrupt = Bytes.of_string full in
  Bytes.set corrupt
    (Bytes.length corrupt / 2)
    (Char.chr (Char.code (Bytes.get corrupt (Bytes.length corrupt / 2)) lxor 0xff));
  (match Repl.apply_batch rep ~from_lsn:(r0 + 2) ~to_lsn:(r0 + 4) ~data:(Bytes.to_string corrupt) with
  | _ -> Alcotest.fail "corrupt batch must raise Resync"
  | exception Repl.Resync _ -> ());
  Tutil.check_int "failed applies do not move the lsn" (r0 + 2) (Db.lsn rep);
  (* After the faults, the correct batch still applies — the resync path
     re-ships from the exact position. *)
  Tutil.check_bool "clean batch applies after faults" true
    (Repl.apply_batch rep ~from_lsn:(r0 + 2) ~to_lsn:(r0 + 4) ~data:full = `Applied);
  Tutil.check_bool "converged" true (tags rep = tags pri);
  (* Physical replication preserves oids, so the logical dumps are
     byte-identical — the strongest equivalence we can ask for. *)
  Tutil.check_string "dumps identical" (Ode.Dump.export pri) (Ode.Dump.export rep);
  check_verified "apply_discipline primary" pri;
  check_verified "apply_discipline replica" rep;
  Db.close pri;
  (* A read-only close must not write; promote first. *)
  Db.set_read_only rep false;
  Db.close rep

(* answer_hello picks resume vs snapshot correctly. *)
let hello_answers () =
  let dir = Tutil.temp_dir "repl-hello" in
  let db = Db.open_ dir in
  setup db;
  for i = 0 to 3 do put db i done;
  let l = Db.lsn db in
  (* In reach: resume with the exact suffix. *)
  (match Repl.answer_hello db ~replica_lsn:(l - 2) with
  | Repl.Resume { from_lsn; to_lsn; backlog } ->
      Tutil.check_int "resume from" (l - 2) from_lsn;
      Tutil.check_int "resume to" l to_lsn;
      Tutil.check_bool "backlog non-empty" true (String.length backlog > 0)
  | Repl.Snapshot _ -> Alcotest.fail "reachable position must resume");
  (* Checkpointed past: a snapshot of all five store files, at the lsn. *)
  Db.checkpoint db;
  put db 4;
  (match Repl.answer_hello db ~replica_lsn:(l - 2) with
  | Repl.Snapshot { lsn; files } ->
      Tutil.check_int "snapshot lsn" (Db.lsn db) lsn;
      List.iter
        (fun name ->
          Tutil.check_bool (name ^ " shipped") true (List.mem_assoc name files))
        Repl.snapshot_files
  | Repl.Resume _ -> Alcotest.fail "truncated position must snapshot");
  (* A replica claiming commits we never made durable has diverged:
     snapshot, never resume. *)
  (match Repl.answer_hello db ~replica_lsn:(Db.lsn db + 5) with
  | Repl.Snapshot _ -> ()
  | Repl.Resume _ -> Alcotest.fail "a diverged replica must get a snapshot");
  Db.close db

(* -- checkpoint-bounded recovery ------------------------------------------ *)

(* Recovery work is bounded by the checkpoint interval, not by history:
   after 400 transactions against a log that auto-checkpoints every few KB,
   reopening replays only the post-checkpoint tail. *)
let recovery_bounded () =
  let dir = Tutil.temp_dir "repl-bounded" in
  let db = Db.open_ ~wal_checkpoint_bytes:4096 dir in
  setup db;
  let n = 400 in
  for i = 0 to n - 1 do put db i done;
  let l = Db.lsn db in
  Db.crash db;
  let s0 = Stats.snapshot () in
  let db2 = Db.open_ ~wal_checkpoint_bytes:4096 dir in
  let replayed = Stats.(get (snapshot ()) "recovery_replayed" - get s0 "recovery_replayed") in
  Tutil.check_int "no commit lost" n (List.length (tags db2));
  Tutil.check_int "lsn exact" l (Db.lsn db2);
  Tutil.check_bool
    (Printf.sprintf "recovery bounded by the checkpoint interval (replayed %d of %d txns)"
       replayed n)
    true
    (replayed < n / 2);
  check_verified "recovery_bounded" db2;
  Db.close db2

(* -- end-to-end: forked primary + standby over loopback ------------------- *)

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | v -> v
  | exception Unix.Unix_error (EINTR, _, _) -> waitpid_retry pid

let kill_wait pid signal =
  (try Unix.kill pid signal with Unix.Unix_error _ -> ());
  ignore (waitpid_retry pid)

(* Spawn a primary (replication on an ephemeral port) and a standby of it;
   always reap both. *)
let with_cluster ?(sync_repl = false) f =
  let pdir = Tutil.temp_dir "repl-e2e-p" and rdir = Tutil.temp_dir "repl-e2e-r" in
  let ppid, pport, prepl, _ =
    Server.spawn_full ~repl_port:0 ~sync_repl ~durability:Db.Group ~db_dir:pdir ()
  in
  let killed_primary = ref false in
  Fun.protect
    ~finally:(fun () -> if not !killed_primary then kill_wait ppid Sys.sigterm)
    (fun () ->
      let rpid, rport = Server.spawn ~replica_of:("127.0.0.1", prepl) ~db_dir:rdir () in
      Fun.protect
        ~finally:(fun () -> kill_wait rpid Sys.sigterm)
        (fun () ->
          f ~pport ~rport ~kill_primary:(fun () ->
              killed_primary := true;
              kill_wait ppid Sys.sigkill)
            ~promote_replica:(fun () -> Unix.kill rpid Sys.sigusr1)))

let connect ?retries ?replicas port =
  Client.connect ~timeout:10. ?retries ?replicas ~host:"127.0.0.1" ~port ()

(* Poll until [cond ()]; replication is asynchronous, promotion is
   signal-driven — both need a beat. *)
let eventually ?(timeout = 10.) name cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if (try cond () with _ -> false) then ()
    else if Unix.gettimeofday () > deadline then Alcotest.failf "timed out waiting: %s" name
    else begin
      Unix.sleepf 0.05;
      go ()
    end
  in
  go ()

let e2e_streaming () =
  with_cluster (fun ~pport ~rport ~kill_primary:_ ~promote_replica:_ ->
      let c = connect pport in
      Tutil.check_string "ddl" "" (Client.exec c schema);
      for i = 0 to 4 do
        ignore (Client.exec c (Printf.sprintf "pnew t { tag = %d, v = \"row\" };" i))
      done;
      (* The standby converges without any further primary traffic. *)
      let rc = connect rport in
      eventually "replica caught up" (fun () ->
          List.length (Client.query rc "forall x in t") = 5);
      (* Reads serve; writes are refused with the retryable redirect. *)
      (match Client.exec rc "pnew t { tag = 99, v = \"nope\" };" with
      | _ -> Alcotest.fail "replica accepted a write"
      | exception Client.Server_error msg ->
          Tutil.check_bool "redirect error names the primary" true
            (contains msg "read-only replica"));
      (* Roles and lag are observable. *)
      let pr = Client.dot c ".replication" in
      Tutil.check_bool "primary role" true (contains pr "role           primary");
      Tutil.check_bool "primary sees a standby" true (contains pr "streaming");
      let rr = Client.dot rc ".replication" in
      Tutil.check_bool "replica role" true (contains rr "replica of");
      Tutil.check_bool "replica connected" true (contains rr "connected");
      (* .promote over the wire is refused on a primary. *)
      (match Client.dot c ".promote" with
      | _ -> Alcotest.fail ".promote on a primary must fail"
      | exception Client.Server_error msg ->
          Tutil.check_bool "already primary" true (contains msg "already primary"));
      (* Replication counters made it to the stats surface. *)
      eventually "lag gauges settle" (fun () ->
          let stats = Client.dot c ".stats" in
          contains stats "repl.batches_sent" && contains stats "repl.acks");
      Client.close rc;
      Client.close c)

(* Kill the primary mid-service, promote the standby with SIGUSR1, and let
   the client's retry/failover machinery find it. Semi-sync replication on
   the primary makes the oracle exact: every acknowledged write must be on
   the promoted standby. *)
let e2e_promotion_failover () =
  with_cluster ~sync_repl:true (fun ~pport ~rport ~kill_primary ~promote_replica ->
      let c = connect ~retries:10 ~replicas:[ ("127.0.0.1", rport) ] pport in
      Tutil.check_string "ddl" "" (Client.exec c schema);
      let acked = ref [] in
      for i = 0 to 9 do
        ignore (Client.exec c (Printf.sprintf "pnew t { tag = %d, v = \"row\" };" i));
        acked := i :: !acked
      done;
      (* Read routing: queries hit the standby but never travel back in
         time past the client's own acknowledged writes. *)
      Tutil.check_int "read-your-writes through the replica pool" 10
        (List.length (Client.query c "forall x in t"));
      Tutil.check_bool "client tracked an lsn watermark" true (Client.last_seen_lsn c > 0);
      kill_primary ();
      promote_replica ();
      (* The next write bounces off the dead primary (connection refused)
         and the standby (read-only redirect) until promotion lands, then
         sticks to the new primary. *)
      ignore (Client.exec c "pnew t { tag = 10, v = \"after failover\" };");
      acked := 10 :: !acked;
      let rows = Client.query c "forall x in t" in
      Tutil.check_int "every acked write survived failover" (List.length !acked)
        (List.length rows);
      List.iter
        (fun tag ->
          Tutil.check_bool
            (Printf.sprintf "acked tag %d present after promotion" tag)
            true
            (List.exists (fun r -> contains r (Printf.sprintf "tag = %d" tag)) rows))
        !acked;
      (* The promoted store passes a full integrity check, and reports as
         primary now. *)
      Tutil.check_bool "promoted store verifies" true (contains (Client.dot c ".verify") "ok");
      Tutil.check_bool "promoted role" true
        (contains (Client.dot c ".replication") "role           primary");
      Client.close c)

(* -- distributed tracing: one trace id across primary and standby ---------- *)

(* Turn the span tracer on in both server processes, do one traced write on
   the primary, and dump both rings: the client-assigned trace id must
   appear in the primary's dump (the server.request span) AND in the
   standby's (the repl.apply span for the shipped batch) — the id rode the
   wire protocol into the WAL commit record and out through replication. *)
let e2e_trace_correlation () =
  with_cluster (fun ~pport ~rport ~kill_primary:_ ~promote_replica:_ ->
      let c = connect pport in
      let rc = connect rport in
      Tutil.check_bool "tracer on (primary)" true
        (contains (Client.dot c ".trace on") "on");
      Tutil.check_bool "tracer on (standby)" true
        (contains (Client.dot rc ".trace on") "on");
      Tutil.check_string "ddl" "" (Client.exec c schema);
      ignore (Client.exec c "pnew t { tag = 7, v = \"traced\" };");
      let tid = Client.last_trace_id c in
      Tutil.check_bool "client assigned a trace id" true (tid <> 0);
      let needle = Ode_util.Trace.id_to_string tid in
      eventually "standby applied the traced write" (fun () ->
          List.length (Client.query rc "forall x in t") = 1);
      let pdump = Filename.temp_file "ode-trace-p" ".json" in
      let rdump = Filename.temp_file "ode-trace-r" ".json" in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ pdump; rdump ])
        (fun () ->
          Tutil.check_bool "primary dump written" true
            (contains (Client.dot c (".trace dump " ^ pdump)) "wrote");
          Tutil.check_bool "standby dump written" true
            (contains (Client.dot rc (".trace dump " ^ rdump)) "wrote");
          let read f = In_channel.with_open_text f In_channel.input_all in
          let pj = read pdump and rj = read rdump in
          Tutil.check_bool "primary recorded the request span" true
            (contains pj "server.request");
          Tutil.check_bool "primary span carries the client's trace id" true
            (contains pj needle);
          Tutil.check_bool "standby recorded the apply span" true (contains rj "repl.apply");
          Tutil.check_bool "standby apply carries the same trace id" true (contains rj needle);
          (* The two processes keep distinct identities in a merged view. *)
          Tutil.check_bool "standby labeled as replica" true (contains rj "replica"));
      Client.close rc;
      Client.close c)

(* -- exec_many partial-failure reporting ---------------------------------- *)

let rec read_exact fd buf pos len =
  if len > 0 then
    match Unix.read fd buf pos len with
    | 0 -> failwith "peer closed"
    | n -> read_exact fd buf (pos + n) (len - n)
    | exception Unix.Unix_error (EINTR, _, _) -> read_exact fd buf pos len

let rec write_all fd s pos len =
  if len > 0 then
    match Unix.write_substring fd s pos len with
    | n -> write_all fd s (pos + n) (len - n)
    | exception Unix.Unix_error (EINTR, _, _) -> write_all fd s pos len

(* A server that dies mid-batch: accepts one connection, answers the first
   [k] requests, drains the rest and hangs up. The client's pipelined
   exec_many must surface exactly which requests were acknowledged. *)
let half_answering_server k =
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  match Unix.fork () with
  | 0 ->
      let ok = ref false in
      (try
         let c, _ = Unix.accept lfd in
         Unix.close lfd;
         let hello = Bytes.create P.hello_len in
         read_exact c hello 0 P.hello_len;
         write_all c (P.hello_reply P.Accepted) 0 P.hello_reply_len;
         let rd = P.reader () in
         let buf = Bytes.create 65536 in
         let answered = ref 0 in
         while !answered < k do
           (match P.next_frame rd with
           | Some body ->
               let rq = P.decode_request body in
               let b = Buffer.create 64 in
               P.encode_response b
                 { P.rs_id = rq.P.rq_id; rs_lsn = 7; rs_reply = P.Output "ok" };
               let s = Buffer.contents b in
               write_all c s 0 (String.length s);
               incr answered
           | None ->
               let n = Unix.read c buf 0 (Bytes.length buf) in
               if n = 0 then failwith "client closed early" else P.feed rd buf n)
         done;
         (* Drain whatever else the batch carried so closing sends FIN, not
            RST (an RST could discard the responses above in flight). *)
         Unix.setsockopt_float c Unix.SO_RCVTIMEO 0.3;
         (try
            while Unix.read c buf 0 (Bytes.length buf) > 0 do
              ()
            done
          with Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ());
         Unix.close c;
         ok := true
       with _ -> ());
      Unix._exit (if !ok then 0 else 1)
  | pid -> (pid, port, lfd)

let exec_many_broken_pipeline () =
  let k = 3 and n = 5 in
  let pid, port, lfd = half_answering_server k in
  Fun.protect
    ~finally:(fun () ->
      Unix.close lfd;
      kill_wait pid Sys.sigkill)
    (fun () ->
      let c = connect port in
      let progs = List.init n (fun i -> Printf.sprintf "print %d;" i) in
      match Client.exec_many c progs with
      | _ -> Alcotest.fail "expected Pipeline_broken"
      | exception Client.Pipeline_broken { acked; pending } ->
          Tutil.check_int "acked prefix length" k (List.length acked);
          List.iter
            (fun r -> Tutil.check_bool "acked entries are Ok" true (r = Ok "ok"))
            acked;
          Tutil.check_int "unacknowledged suffix counted" (n - k) pending;
          Tutil.check_int "watermark from acked responses" 7 (Client.last_seen_lsn c))

let suite =
  [
    ( "replication",
      [
        Alcotest.test_case "commit lsns survive checkpoints and reopens" `Quick lsn_counting;
        Alcotest.test_case "crash between sidecar and truncation" `Quick lsn_sidecar_crash;
        Alcotest.test_case "lost truncation reconciled on replay" `Quick lsn_lost_truncation;
        Alcotest.test_case "batch apply discipline" `Quick apply_discipline;
        Alcotest.test_case "handshake picks resume vs snapshot" `Quick hello_answers;
        Alcotest.test_case "recovery bounded by checkpoint interval" `Quick recovery_bounded;
        Alcotest.test_case "primary streams to a read-only standby" `Quick e2e_streaming;
        Alcotest.test_case "kill, promote, client failover" `Quick e2e_promotion_failover;
        Alcotest.test_case "trace id correlates primary and standby" `Quick
          e2e_trace_correlation;
        Alcotest.test_case "exec_many reports the acked prefix" `Quick exec_many_broken_pipeline;
      ] );
  ]
