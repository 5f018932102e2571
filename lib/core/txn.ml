module Wal = Ode_storage.Wal
module Heap = Ode_storage.Heap
module Bptree = Ode_index.Bptree
module Oid = Ode_model.Oid
open Types

let h_commit = Ode_util.Histogram.create "txn.commit"
let c_begins = Ode_util.Stats.counter "txn.begins"
let c_conflicts = Ode_util.Stats.counter "txn.conflicts"

(* The engine latch. Readers hold the shared side for the duration of a
   request (scans walk B+tree leaf chains that must stay structurally
   quiescent); the mutating paths — commit apply, checkpoint, DDL,
   replication apply — take the exclusive side only around the mutation
   itself, so a long-running writer statement no longer blocks readers:
   its writes build up in the private overlay and only the (short) apply
   holds readers out. [in_excl] makes the exclusive side re-entrant for
   the single mutating domain (a DDL's internal commit, a commit's
   auto-checkpoint): only that domain ever sets it, readers never take
   the exclusive side, so the unlatched read of the flag is safe. *)
let with_excl db f =
  if db.in_excl then f ()
  else
    Ode_util.Rwlock.write db.latch (fun () ->
        db.in_excl <- true;
        Fun.protect ~finally:(fun () -> db.in_excl <- false) f)

let release_snap txn =
  if txn.snap <> 0 then begin
    Mvcc.release txn.tdb.mvcc txn.snap;
    txn.snap <- 0
  end

(* Drop a finished write txn from the registry; [db.active] keeps pointing
   at the most recently begun still-open write txn only as a default for
   embedded callers that pass no transaction. *)
let unregister txn =
  if not txn.tro then begin
    let db = txn.tdb in
    Hashtbl.remove db.wtxns txn.xid;
    match db.active with Some t when t == txn -> db.active <- None | _ -> ()
  end

let begin_ db =
  if db.closed then raise Db_closed;
  let read_ts = Wal.last_lsn db.wal in
  let txn =
    {
      xid = db.next_xid;
      tdb = db;
      tro = false;
      read_ts;
      snap = Mvcc.snapshot db.mvcc ~read_ts;
      writes = Hashtbl.create 64;
      created = [];
      touched = Hashtbl.create 32;
      tstate = `Active;
      catalog_dirty = false;
      meta_dirty = false;
    }
  in
  db.next_xid <- db.next_xid + 1;
  Hashtbl.replace db.wtxns txn.xid txn;
  db.active <- Some txn;
  Ode_util.Stats.incr c_begins;
  Ode_util.Trace.instant ~cat:"txn" "txn.begin";
  txn

(* A detached read-only transaction: never registers as a writer and never
   allocates an xid, so any number can run concurrently (on reader domains)
   alongside the write transactions. The write choke points in {!Store}
   raise {!Read_only_txn} against it before touching any shared state. Its
   snapshot is registered like any other so the MVCC garbage collector
   keeps the versions it can still see. *)
let begin_read db =
  if db.closed then raise Db_closed;
  let read_ts = Wal.last_lsn db.wal in
  {
    xid = 0;
    tdb = db;
    tro = true;
    read_ts;
    snap = Mvcc.snapshot db.mvcc ~read_ts;
    writes = Hashtbl.create 1;
    created = [];
    touched = Hashtbl.create 1;
    tstate = `Active;
    catalog_dirty = false;
    meta_dirty = false;
  }

let active db = db.active

let active_exn db =
  match db.active with Some t -> t | None -> raise No_active_txn

let open_writers db = Hashtbl.fold (fun _ t acc -> t :: acc) db.wtxns []

let require_active txn =
  match txn.tstate with
  | `Active -> ()
  | `Committed -> raise (Txn_aborted "transaction already committed")
  | `Aborted -> raise (Txn_aborted "transaction already aborted")

let abort txn =
  require_active txn;
  txn.tstate <- `Aborted;
  release_snap txn;
  unregister txn;
  Ode_util.Trace.instant ~cat:"txn" "txn.abort"

let checkpoint db =
  Ode_util.Trace.with_span ~cat:"txn" "txn.checkpoint" (fun () ->
      with_excl db (fun () ->
          Heap.flush db.kv_heap;
          Bptree.flush db.kv_dir;
          Bptree.flush db.idx;
          (* The record carries the durable LSN so replay over a lost truncation
             can reconcile the commit count (see wal.mli). Appending bumps no
             LSN itself; after the sync every prior commit is durable, so the
             value logged is exact. *)
          Wal.append db.wal (Wal.Checkpoint (Wal.last_lsn db.wal));
          Wal.sync db.wal;
          Wal.reset db.wal))

let wal_bytes db = Wal.size_bytes db.wal

let encode_meta (m : meta) =
  let b = Buffer.create 16 in
  Ode_util.Codec.put_int b m.next_tid;
  Ode_util.Codec.put_int b m.clock;
  Buffer.contents b

let decode_meta s =
  let c = Ode_util.Codec.cursor s in
  let next_tid = Ode_util.Codec.get_int c in
  let clock = Ode_util.Codec.get_int c in
  { next_tid; clock }

(* The catalog, meta and stats singletons are excluded from conflict
   detection and version chains: catalog/meta are re-encoded from the
   in-memory mirrors at every commit (so two concurrent creators both
   writing 'C' is not a logical conflict — the mirrors already merged
   their oid allocations), snapshot reads of schema go through the
   mirrors, not the KV, and the stats snapshot is advisory planner input
   that always supersedes wholesale. *)
let versioned key = key <> Keys.catalog && key <> Keys.meta && key <> Keys.stats

let describe_key key =
  if key = "" then "a key"
  else
    match key.[0] with
    | 'H' | 'V' -> (
        match Keys.oid_of_header_key key with
        | oid -> Format.asprintf "object %a" Oid.pp oid
        | exception _ -> "an object")
    | 'R' -> Printf.sprintf "root %s" (String.sub key 1 (String.length key - 1))
    | 'I' -> "an index entry"
    | 'T' -> "a trigger activation"
    | _ -> "a key"

(* The commit body, split into prepare and ack phases. Prepare runs the
   integrity checks, evaluates trigger conditions, detects write-write
   conflicts (first-committer-wins against the transaction's snapshot),
   logs the write set and applies it to the committed structures. The
   commit timestamp is the commit's own LSN, embedded in the WAL commit
   record so recovery and standbys reconstruct the same version order.
   [durable] decides the ack: under eager (Full) durability the WAL fsync
   sits between logging and applying — the classic sync-before-apply.
   Deferred commits skip it; the records stay pending in the WAL until a
   shared {!ack} (or a checkpoint, or the buffer pool's write-ahead hook)
   makes the whole batch durable with one fsync.

   Only the apply itself (version-chain recording, store mutation, trigger
   mirror sync) runs under the exclusive latch — constraint checking,
   logging and even the fsync happen with readers running. That is safe
   because commits are serialized on one domain and readers never look at
   the WAL; it is what keeps snapshot readers from stalling behind a
   writer's fsync. *)
let commit_slot ~durable txn =
  let db = txn.tdb in
  (* 0. A replica rejects local writes before any effect: read-only
        transactions (empty write set, no DDL) still commit, so remote
        sessions can use begin/commit around queries. *)
  if
    db.read_only
    && (Hashtbl.length txn.writes > 0 || txn.catalog_dirty || txn.meta_dirty)
  then begin
    abort txn;
    raise Read_only_store
  end;
  (* 1. Integrity: a violation aborts and rolls back (trivially, since
        nothing was applied). *)
  (match Constraints.check_txn txn with
  | () -> ()
  | exception e ->
      abort txn;
      raise e);
  (* 2. Trigger conditions over the post-state; bookkeeping writes (once-only
        deactivations etc.) join this transaction. *)
  let firings = Triggers.evaluate txn in
  (* 3. Engine metadata modified by this transaction. *)
  if txn.catalog_dirty then
    Hashtbl.replace txn.writes Keys.catalog (Put (Ode_model.Catalog.encode db.catalog));
  if txn.meta_dirty then Hashtbl.replace txn.writes Keys.meta (Put (encode_meta db.meta));
  if Hashtbl.length txn.writes > 0 then begin
    (* 4. First-committer-wins: if any key this transaction wrote was
          committed past its snapshot, abort with a retryable conflict.
          The check runs while this transaction's snapshot is still
          registered, so the GC horizon cannot have reclaimed a chain the
          check needs (any conflicting head is newer than our read_ts,
          which bounds the horizon). *)
    let keys = Hashtbl.fold (fun k _ acc -> if versioned k then k :: acc else acc) txn.writes [] in
    (match Mvcc.conflict db.mvcc ~read_ts:txn.read_ts keys with
    | Some key ->
        abort txn;
        Ode_util.Stats.incr c_conflicts;
        Ode_util.Trace.instant ~cat:"txn" "txn.conflict";
        raise
          (Txn_conflict
             (Printf.sprintf "write-write conflict on %s: a concurrent transaction committed first"
                (describe_key key)))
    | None -> ());
    (* 5. Log and make durable. The commit timestamp is the LSN this very
          commit record receives when appended. *)
    let cts = Wal.last_lsn db.wal + 1 in
    Wal.append db.wal (Wal.Begin txn.xid);
    Hashtbl.iter
      (fun key op ->
        match op with
        | Put payload -> Wal.append db.wal (Wal.Put (txn.xid, key, payload))
        | Del -> Wal.append db.wal (Wal.Delete (txn.xid, key)))
      txn.writes;
    (* The commit record carries the ambient trace id of the request that
       drove this transaction, so a standby replaying the shipped batch
       can stamp its apply spans with the originating client's id. *)
    Wal.append db.wal (Wal.Commit (txn.xid, Ode_util.Trace.current_trace_id (), cts));
    if durable then Wal.sync db.wal;
    (* 6. Apply to the committed structures under the exclusive latch:
          pre-images go into the version chains first (while the KV still
          holds them), then the writes land. *)
    with_excl db (fun () ->
        Mvcc.commit db.mvcc ~ts:cts ~except:txn.snap ~pre:(Store.committed_image db)
          (Hashtbl.fold
             (fun key op acc ->
               if versioned key then
                 (key, match op with Put s -> Some s | Del -> None) :: acc
               else acc)
             txn.writes []);
        Hashtbl.iter (fun key op -> Store.apply_op db key op) txn.writes;
        Triggers.sync_after_commit db txn)
  end;
  txn.tstate <- `Committed;
  release_snap txn;
  unregister txn;
  (* 7. Bound recovery time. *)
  if Wal.size_bytes db.wal > db.wal_auto_checkpoint then checkpoint db;
  firings

(* Detached read txns commit trivially: the Store guards kept the write set
   empty, there is nothing to log and no checkpoint to consider — only the
   snapshot registration to drop. *)
let commit_active ~durable txn =
  if txn.tro then begin
    if Hashtbl.length txn.writes > 0 || txn.catalog_dirty || txn.meta_dirty then begin
      txn.tstate <- `Aborted;
      release_snap txn;
      raise Read_only_txn
    end;
    txn.tstate <- `Committed;
    release_snap txn;
    []
  end
  else commit_slot ~durable txn

let timed_commit txn ~durable =
  require_active txn;
  Ode_util.Histogram.time h_commit (fun () ->
      Ode_util.Trace.with_span ~cat:"txn" "txn.commit" (fun () -> commit_active ~durable txn))

let commit txn = timed_commit txn ~durable:(txn.tdb.durability = Full)
let commit_deferred txn = timed_commit txn ~durable:false

let pending_commits db = Wal.pending_commits db.wal

let ack db =
  if Wal.pending_commits db.wal > 0 then Wal.sync db.wal
