module Shell = Ode.Shell
module Stats = Ode_util.Stats
module Trace = Ode_util.Trace
module Histogram = Ode_util.Histogram

type t = {
  sid : int;
  db : Ode.Database.t;
  shell : Shell.t;
  out : Buffer.t; (* print output of the request being handled *)
}

let request_hist = Histogram.create "server.request"
let c_requests = Stats.counter "server.requests"

let create ?(id = 0) db =
  let out = Buffer.create 256 in
  { sid = id; db; shell = Shell.create ~print:(Buffer.add_string out) db; out }

let id t = t.sid
let in_transaction t = Shell.in_transaction t.shell

let op_name : Protocol.op -> string = function
  | Ping -> "ping"
  | Exec _ -> "exec"
  | Query _ -> "query"
  | Dot _ -> "dot"
  | Close -> "close"

let statement_of : Protocol.op -> string = function
  | Ping -> "ping"
  | Exec src -> src
  | Query src -> src
  | Dot line -> line
  | Close -> "close"

(* The shell renders a first-committer-wins abort with the load-bearing
   "conflict: " prefix; the wire protocol has a distinct retryable tag for
   it, which clients auto-retry. *)
let conflict_prefix = "conflict: "

let reply_error msg : Protocol.reply =
  if String.starts_with ~prefix:conflict_prefix msg then
    Err_conflict (String.sub msg (String.length conflict_prefix)
                    (String.length msg - String.length conflict_prefix))
  else Error msg

(* [detached] picks how a [Query] runs: in a detached read-only transaction
   (reader domains — a write attempt raises {!Ode.Types.Read_only_txn} out
   of here) or in an ordinary write transaction (the writer, where queries
   whose methods write are legal). *)
let run ~detached t : Protocol.op -> Protocol.reply = function
  | Ping -> Pong
  | Exec src -> (
      Buffer.clear t.out;
      match Shell.exec_catching t.shell src with
      | Ok () -> Output (Buffer.contents t.out)
      | Error msg -> reply_error msg)
  | Query src -> (
      match Shell.query_rows ~detached t.shell src with
      | Ok rows -> Rows rows
      | Error msg -> reply_error msg)
  | Dot line -> (
      Buffer.clear t.out;
      match Shell.dot_command t.shell line with
      | Some out ->
          (* [.read] prints through the shell printer as it executes; fold
             that output in front of the command's own result. *)
          let printed = Buffer.contents t.out in
          Output (if printed = "" then out else printed ^ out)
      | None -> Error "not a dot command")
  | Close -> Output "bye"

(* One slow-query log line: everything an operator needs to find the
   request again — trace id, statement, queue-wait vs execute split, the
   executing domain, and (for queries) the per-plan-node profile that
   [Query.run] stashes domain-locally while the log is armed. *)
let log_slow t (rq : Protocol.request) ~queue_wait_ns ~exec_ns profile =
  let b = Buffer.create 256 in
  Printf.bprintf b "{\"ts\":%.6f,\"trace\":\"%s\",\"session\":%d,\"domain\":%d"
    (Unix.gettimeofday ())
    (Trace.id_to_string rq.rq_trace)
    t.sid
    (Domain.self () :> int);
  Printf.bprintf b ",\"op\":\"%s\",\"statement\":\"%s\"" (op_name rq.rq_op)
    (Ode_util.Metrics.json_escape (statement_of rq.rq_op));
  Printf.bprintf b ",\"queue_wait_ns\":%d,\"exec_ns\":%d" queue_wait_ns exec_ns;
  (match profile with
  | Some pf -> Printf.bprintf b ",\"profile\":%s" (Ode.Query.profile_to_json pf)
  | None -> ());
  Buffer.add_char b '}';
  Ode_util.Slowlog.record ~dur_ns:(queue_wait_ns + exec_ns) (Buffer.contents b)

(* The request's trace id is installed as the domain's ambient id for the
   duration, so the span below, every nested engine span, and the WAL
   commit record all carry the client-assigned id. *)
let timed t (rq : Protocol.request) ~queue_wait_ns f =
  Trace.with_trace_id rq.rq_trace (fun () ->
      Trace.with_span ~cat:"server"
        ~args:[ ("session", string_of_int t.sid); ("op", op_name rq.rq_op) ]
        "server.request"
        (fun () ->
          let t0 = Trace.now_ns () in
          let reply = Histogram.time request_hist f in
          let exec_ns = Trace.now_ns () - t0 in
          (* Always drain the profile stash: a fast armed request must not
             leave its profile behind for a later slow one to claim. *)
          let profile = Ode.Query.take_last_profile () in
          if queue_wait_ns + exec_ns >= Ode_util.Slowlog.threshold_ns () then
            (try log_slow t rq ~queue_wait_ns ~exec_ns profile with _ -> ());
          reply))

let finish t (rq : Protocol.request) reply =
  (* The LSN after handling: a write's ack names the commit it covers, a
     read names the position its answer reflects. *)
  { Protocol.rs_id = rq.rq_id; rs_lsn = Ode.Database.lsn t.db; rs_reply = reply }

let handle ?(count = true) ?(queue_wait_ns = 0) t (rq : Protocol.request) : Protocol.response =
  if count then Stats.incr c_requests;
  (* Trigger actions fired by this request's commits print through the
     requesting session, not whichever session was created last. Installed
     only here, on the writer path: reader-domain requests cannot fire
     triggers, and a concurrent install would race the writer's. *)
  Ode.Database.set_action_printer t.db (Buffer.add_string t.out);
  finish t rq (timed t rq ~queue_wait_ns (fun () -> run ~detached:false t rq.rq_op))

let handle_read ?(queue_wait_ns = 0) t (rq : Protocol.request) : Protocol.response =
  Stats.incr c_requests;
  finish t rq (timed t rq ~queue_wait_ns (fun () -> run ~detached:true t rq.rq_op))

let close t = Shell.rollback t.shell
