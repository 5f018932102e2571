module Ast = Ode_lang.Ast
module Value = Ode_model.Value
module Schema = Ode_model.Schema
module Catalog = Ode_model.Catalog
open Types

type t = {
  db : Database.t;
  env : Interp.env;
  mutable txn : txn option; (* explicit transaction opened with [begin;] *)
  mutable conflicted : string option;
      (* the last explicit transaction died of a write-write conflict (it
         was auto-aborted server-side). A later bare [commit;] re-reports
         the conflict instead of "no open transaction", so a client that
         retries a commit request keeps seeing the retryable error until
         it replays the transaction ([begin] clears the flag). *)
  mutable quit : bool;      (* set by the [.quit] dot command *)
  print : string -> unit;
}

let create ?(print = print_string) db =
  Database.set_action_printer db print;
  { db; env = Interp.env ~print (); txn = None; conflicted = None; quit = false; print }

let database t = t.db
let in_transaction t = t.txn <> None
let wants_quit t = t.quit

let rollback t =
  match t.txn with
  | None -> ()
  | Some txn ->
      t.txn <- None;
      Database.abort txn

(* Run [f] in the explicit transaction if one is open, else autocommit. *)
let in_txn t f =
  match t.txn with
  | Some txn -> f txn
  | None -> Database.with_txn t.db f

let rec exec_top t (top : Ast.top) =
  match top with
  | TClass decl -> ignore (Database.define_class t.db decl)
  | TCreateCluster c -> Database.create_cluster t.db c
  | TCreateIndex (c, f) -> Database.create_index t.db ~cls:c ~field:f
  | TBegin -> (
      match t.txn with
      | Some _ -> failwith "a transaction is already open"
      | None ->
          t.conflicted <- None;
          t.txn <- Some (Database.begin_txn t.db))
  | TCommit -> (
      match t.txn with
      | None -> (
          match t.conflicted with
          | Some msg -> raise (Txn_conflict msg)
          | None -> failwith "no open transaction")
      | Some txn ->
          t.txn <- None;
          Database.commit txn)
  | TAbort -> (
      match t.txn with
      | None ->
          (* Acknowledging a conflict-aborted transaction is not an error:
             the server already rolled it back. *)
          if t.conflicted <> None then t.conflicted <- None
          else failwith "no open transaction"
      | Some txn ->
          t.txn <- None;
          Database.abort txn)
  | TShowClasses ->
      List.iter
        (fun (c : Schema.cls) ->
          let parents =
            match c.parents with [] -> "" | ps -> " : " ^ String.concat ", " ps
          in
          let cluster = if c.cluster_created then "  [cluster]" else "" in
          t.print (Printf.sprintf "class %s%s%s\n" c.name parents cluster))
        (Catalog.all (Database.catalog t.db))
  | TShowStats ->
      t.print (Fmt.str "%a\n" Ode_util.Stats.pp (Ode_util.Stats.snapshot ()))
  | TVerify -> (
      if t.txn <> None then failwith "verify requires no open transaction"
      else
        match Verify.run t.db with
        | Ok () -> t.print "ok\n"
        | Error ps ->
            List.iter (fun p -> t.print ("problem: " ^ p ^ "\n")) ps;
            failwith (Printf.sprintf "integrity check found %d problems" (List.length ps)))
  | TDump ->
      if t.txn <> None then failwith "dump requires no open transaction"
      else t.print (Dump.export t.db)
  | TLoad path ->
      let source =
        try In_channel.with_open_text path In_channel.input_all
        with Sys_error msg -> failwith ("load: " ^ msg)
      in
      List.iter (exec_top t) (Ode_lang.Parser.program source)
  | TExplain q ->
      let text =
        in_txn t (fun _txn ->
            Query.explain t.db ~var:q.q_var ~cls:q.q_cls ~deep:q.q_deep ?suchthat:q.q_suchthat ())
      in
      t.print (text ^ "\n")
  | TAnalyze ->
      if t.txn <> None then failwith "analyze requires no open transaction"
      else t.print (Database.analyze t.db ^ "\n")
  | TAdvance e -> (
      let v = in_txn t (fun txn -> Interp.eval_expr txn t.env e) in
      match v with
      | Value.Int n ->
          if t.txn <> None then failwith "advance time requires no open transaction"
          else Database.advance_time t.db n
      | v -> failwith (Fmt.str "advance time expects an int, got %a" Value.pp v))
  | TStmt s -> in_txn t (fun txn -> Interp.exec_stmt txn t.env s)

let exec t source =
  let tops = Ode_lang.Parser.program source in
  List.iter (exec_top t) tops

let render_error = function
  | Ode_lang.Parser.Parse_error (msg, off) -> Printf.sprintf "parse error at %d: %s" off msg
  | Ode_lang.Lexer.Lex_error (msg, off) -> Printf.sprintf "lex error at %d: %s" off msg
  | Catalog.Schema_error msg -> "schema error: " ^ msg
  | Ode_model.Typecheck.Error msg -> "type error: " ^ msg
  (* No prefix: whoever prints the rendered error (the shell locally, the
     client over the wire) puts "error: " in front exactly once. *)
  | Ode_model.Eval.Error msg -> msg
  | Store.Type_error msg -> "type error: " ^ msg
  | Store.No_cluster c -> Printf.sprintf "no cluster exists for class %s (use: create cluster %s;)" c c
  | Triggers.Trigger_error msg -> "trigger error: " ^ msg
  (* The prefix is load-bearing: clients recognize it as a retryable
     redirect and fail over to the primary. *)
  | Read_only_store -> "read-only replica: writes must go to the primary"
  (* This prefix is load-bearing too: the session layer upgrades it to the
     protocol's distinct retryable conflict reply. *)
  | Txn_conflict msg -> "conflict: " ^ msg
  | Constraint_violation { cls; cname; oid } ->
      Fmt.str "constraint %s.%s violated by object %a (transaction aborted)" cls cname
        Ode_model.Oid.pp oid
  | Failure msg -> msg
  (* e.g. "define_class cannot run inside a transaction" — DDL refused
     while any write transaction is open. *)
  | Invalid_argument msg -> msg
  | e -> Printexc.to_string e

let exec_catching t source =
  match exec t source with
  | () -> Ok ()
  | exception (Constraint_violation _ as e) ->
      (* The commit already aborted the transaction. *)
      t.txn <- None;
      Error (render_error e)
  | exception (Txn_conflict msg as e) ->
      (* First-committer-wins loser: the commit auto-aborted it. Remember
         the conflict so a retried bare [commit;] re-reports it. *)
      t.txn <- None;
      t.conflicted <- Some msg;
      Error (render_error e)
  | exception e -> Error (render_error e)

let vars t = Interp.all_vars t.env

(* Render one qualifying object as a row: its oid plus every field, the
   wire-protocol [Query] opcode's result shape. *)
let render_row txn oid =
  let fields = match Database.get txn oid with Some fs -> fs | None -> [] in
  Fmt.str "%a {%s}" Ode_model.Oid.pp oid
    (String.concat ", "
       (List.map (fun (f, v) -> f ^ " = " ^ Value.to_string v) fields))

(* -- sqlite3-style dot commands -------------------------------------------- *)

let dot_help =
  "dot commands:\n\
  \  .stats [reset]        engine counters (reset: zero them)\n\
  \  .recovery             durability/recovery counters\n\
  \  .durability [MODE]    show or set commit durability (full|group|async)\n\
  \  .sync                 fsync any pending deferred commits now\n\
  \  .metrics [reset]      latency histograms (p50/p95/p99/max per operation)\n\
  \  .metrics json         counters + gauges + histograms as one JSON object\n\
  \  .slow [K]             worst K retained slow-query entries (JSON lines)\n\
  \  .hist NAME            one histogram, machine-readable (raw ns)\n\
  \  .txns                 open transactions, snapshots and MVCC version backlog\n\
  \  .trace on|off         toggle the span tracer\n\
  \  .trace dump FILE      write buffered spans as Chrome trace-event JSON\n\
  \  .explain QUERY        access plan + cost estimates for a forall query\n\
  \  .profile QUERY        EXPLAIN ANALYZE: run QUERY, per-plan-node costs\n\
  \  .analyze              collect planner statistics (cardinalities, histograms)\n\
  \  .verify               run the structural integrity checker\n\
  \  .read FILE            execute a script file\n\
  \  .quit                 leave the shell"

(* [.explain]/[.profile] take a forall query with or without a body. *)
let parse_forall rest =
  let rest = String.trim rest in
  if rest = "" then failwith "expected a forall query (see .help)";
  match Ode_lang.Parser.forall_query rest with
  | f -> f
  | exception _ -> failwith "expected: forall x in C [suchthat e] [by e [desc]] [{ body }]"

(* A row-returning query (the server's [Query] opcode): a bodiless forall,
   each qualifying object rendered as one row. Runs inside the open explicit
   transaction if any, so a remote session sees its own uncommitted writes;
   with no explicit transaction it runs in a *detached* read-only txn
   ({!Database.with_read_txn}), which registers only an MVCC snapshot —
   that is what lets the server execute queries on reader domains in
   parallel with open write transactions. A predicate that turns out to
   write raises
   {!Types.Read_only_txn}, re-raised (not rendered) so the server can
   re-execute the request on the writer domain in a write transaction. *)
let query_rows ?(detached = true) t source =
  let run txn =
    let f = parse_forall source in
    if f.q_body <> [] then failwith "query takes a bodiless forall (use exec for loops)";
    List.rev
      (Query.fold t.db ~txn
         ~env:(Interp.all_vars t.env)
         ~var:f.q_var ~cls:f.q_cls ~deep:f.q_deep ?suchthat:f.q_suchthat ?by:f.q_by
         ~init:[]
         (fun acc oid -> render_row txn oid :: acc))
  in
  match
    match t.txn with
    | Some txn -> run txn
    | None -> if detached then Database.with_read_txn t.db run else Database.with_txn t.db run
  with
  | rows -> Ok rows
  | exception (Types.Read_only_txn as e) -> raise e
  | exception e -> Error (render_error e)

(* Run the profiled query with the forall body (if any) as the output node,
   mirroring Interp's SForall binding discipline. *)
let profile_query t (f : Ast.forall) =
  in_txn t (fun txn ->
      let outer = Interp.lookup_var t.env f.q_var in
      let body =
        if f.q_body = [] then fun _ -> ()
        else
          fun oid ->
            Interp.define_var t.env f.q_var (Value.Ref oid);
            Interp.exec_stmts txn t.env f.q_body
      in
      let pf =
        Query.profile t.db ~txn
          ~env:(Interp.all_vars t.env)
          ~var:f.q_var ~cls:f.q_cls ~deep:f.q_deep ?suchthat:f.q_suchthat ?by:f.q_by ~body ()
      in
      if f.q_body <> [] then begin
        Interp.undefine_var t.env f.q_var;
        match outer with Some v -> Interp.define_var t.env f.q_var v | None -> ()
      end;
      Query.profile_to_string pf)

let dot_command t line =
  let line = String.trim line in
  if String.length line = 0 || line.[0] <> '.' then None
  else
    let cmd, rest =
      match String.index_opt line ' ' with
      | None -> (line, "")
      | Some i ->
          (String.sub line 0 i, String.trim (String.sub line i (String.length line - i)))
    in
    let run () =
      match (cmd, rest) with
      | ".help", _ -> dot_help
      | ".stats", "" -> Fmt.str "%a" Ode_util.Stats.pp (Ode_util.Stats.snapshot ())
      | ".stats", "reset" ->
          Ode_util.Stats.reset ();
          "counters reset"
      | ".recovery", "" -> Fmt.str "%a" Ode_util.Stats.pp_recovery (Ode_util.Stats.snapshot ())
      | ".durability", "" ->
          Printf.sprintf "%s (%d pending commits)"
            (Database.durability_name (Database.durability t.db))
            (Database.pending_commits t.db)
      | ".durability", mode -> (
          match Database.durability_of_string mode with
          | Some d ->
              (* Leaving a deferred mode must not strand pending commits. *)
              if d = Database.Full then Database.sync_commits t.db;
              Database.set_durability t.db d;
              "durability " ^ mode
          | None -> Printf.sprintf "unknown durability %S (full|group|async)" mode)
      | ".sync", _ ->
          let n = Database.pending_commits t.db in
          Database.sync_commits t.db;
          Printf.sprintf "synced (%d commits acknowledged)" n
      | ".metrics", "" -> String.trim (Ode_util.Histogram.summary ())
      | ".metrics", "reset" ->
          (* Atomic per histogram: each snapshot+zero happens under that
             histogram's mutex, so an observe racing the reset from a
             reader domain is never lost or double-counted. *)
          let drained = Ode_util.Histogram.rows ~reset:true () in
          let n = List.fold_left (fun a (r : Ode_util.Histogram.row) -> a + r.r_count) 0 drained in
          Printf.sprintf "histograms reset (%d observations drained)" n
      | ".metrics", "json" -> Ode_util.Metrics.json ()
      | ".slow", rest -> (
          let k =
            if rest = "" then 10 else match int_of_string_opt rest with Some k -> max 1 k | None -> -1
          in
          if k < 0 then ".slow takes an entry count"
          else if not (Ode_util.Slowlog.armed ()) then
            "slow-query log disarmed (start the server with --slow-query-ms, or arm embedded via Slowlog.configure)"
          else
            match Ode_util.Slowlog.worst k with
            | [] -> "no slow queries retained"
            | lines -> String.concat "\n" lines)
      | ".txns", _ ->
          let txns = Database.open_txns t.db in
          let b = Buffer.create 128 in
          Printf.bprintf b "open txns %d  snapshots %d  oldest_snapshot %s"
            (List.length txns)
            (Database.live_snapshots t.db)
            (match Database.oldest_snapshot t.db with
            | Some ts -> string_of_int ts
            | None -> "-");
          List.iter
            (fun (xid, read_ts) -> Printf.bprintf b "\n  xid %d read_ts %d" xid read_ts)
            txns;
          Printf.bprintf b "\nchains %d  dead_versions %d  reclaimed %d"
            (Database.mvcc_chains t.db)
            (Database.mvcc_dead_versions t.db)
            (Database.mvcc_reclaimed t.db);
          Buffer.contents b
      | ".trace", "on" ->
          Ode_util.Trace.set_enabled true;
          "tracing on"
      | ".trace", "off" ->
          Ode_util.Trace.set_enabled false;
          "tracing off"
      | ".trace", "" ->
          Printf.sprintf "tracing %s; %d spans buffered (%d recorded)"
            (if Ode_util.Trace.enabled () then "on" else "off")
            (List.length (Ode_util.Trace.spans ()))
            (Ode_util.Trace.total_recorded ())
      | ".trace", r when String.length r >= 4 && String.sub r 0 4 = "dump" ->
          let file = String.trim (String.sub r 4 (String.length r - 4)) in
          if file = "" then ".trace dump needs a file name"
          else begin
            Ode_util.Trace.dump file;
            Printf.sprintf "wrote %d spans to %s" (List.length (Ode_util.Trace.spans ())) file
          end
      | ".quit", _ ->
          t.quit <- true;
          ""
      | ".read", "" -> ".read needs a file name"
      | ".read", path -> (
          let source =
            try In_channel.with_open_text path In_channel.input_all
            with Sys_error msg -> failwith ("read: " ^ msg)
          in
          match exec_catching t source with Ok () -> "" | Error msg -> "error: " ^ msg)
      | ".hist", "" -> ".hist needs a histogram name (see .metrics)"
      | ".hist", name -> (
          let module H = Ode_util.Histogram in
          match H.find name with
          | None -> Printf.sprintf "no histogram %S" name
          | Some h ->
              Printf.sprintf "%s count %d p50 %d p95 %d p99 %d max %d mean %d" name
                (H.count h) (H.percentile h 50.) (H.percentile h 95.) (H.percentile h 99.)
                (H.max_ns h)
                (int_of_float (H.mean_ns h)))
      | ".verify", "" -> (
          match Verify.run t.db with
          | Ok () -> "ok"
          | Error ps -> "verify failed: " ^ String.concat "; " ps)
      | ".explain", q -> (
          let f = parse_forall q in
          match Interp.fusable_join f with
          | Some iq ->
              in_txn t (fun _txn ->
                  Query.explain_join t.db
                    ~env:(Interp.all_vars t.env)
                    ~outer:(f.q_var, f.q_cls, f.q_deep)
                    ~inner:(iq.q_var, iq.q_cls, iq.q_deep)
                    ?outer_suchthat:f.q_suchthat ?inner_suchthat:iq.q_suchthat ())
          | None ->
              in_txn t (fun _txn ->
                  Query.explain t.db
                    ~env:(Interp.all_vars t.env)
                    ~var:f.q_var ~cls:f.q_cls ~deep:f.q_deep ?suchthat:f.q_suchthat ()))
      | ".profile", q -> profile_query t (parse_forall q)
      | ".analyze", "" ->
          if t.txn <> None then failwith "analyze requires no open transaction"
          else Database.analyze t.db
      | ".analyze", "status" -> Database.stats_summary t.db
      | _ -> Printf.sprintf "unknown command %s\n%s" cmd dot_help
    in
    Some (match run () with out -> out | exception e -> render_error e)
