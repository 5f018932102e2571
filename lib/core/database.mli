(** The ODE database: the top-level façade.

    A database lives in a directory (four files: object heap, key directory,
    secondary indexes, write-ahead log) or entirely in memory. Opening a
    directory replays the committed tail of the WAL, so a crash at any point
    loses at most the uncommitted transaction (see DESIGN.md).

    Typical EDSL use:
    {[
      let db = Database.open_ "mydb" in
      ignore (Database.define db "class item { name: string; qty: int; };");
      Database.create_cluster db "item";
      Database.with_txn db (fun txn ->
          let oid = Database.pnew txn "item" [ ("name", Str "bolt"); ("qty", Int 40) ] in
          Database.set_root txn "first" (Ref oid));
      Database.close db
    ]} *)

open Types

type t = db
(** Schema errors are reported as {!Ode_model.Catalog.Schema_error}. *)

(** {1 Lifecycle} *)

val open_ :
  ?pool_pages:int ->
  ?wal_checkpoint_bytes:int ->
  ?object_cache:int ->
  ?durability:Types.durability ->
  string ->
  t
(** Open (creating if needed) the database stored in a directory.
    [object_cache] sizes the decoded-object cache in entries (decoded
    headers and version field lists); 0 disables it. Default 4096.
    [durability] (default [Full]) picks when commits fsync — see
    {!durability} below. Raises [Sys_error] when [dir] exists but is not
    a directory, or cannot be created. *)

val open_in_memory : ?pool_pages:int -> ?object_cache:int -> ?durability:Types.durability -> unit -> t
(** A volatile database: same engine, same WAL protocol, no files. *)

val close : t -> unit
(** Checkpoint and release. Aborts every open write transaction. *)

val crash : t -> unit
(** Simulate process death: release the file descriptors without
    checkpointing or flushing anything. Whatever reached the files is what
    recovery sees on the next {!open_}. For crash tests. *)

val checkpoint : t -> unit

(** {1 Schema (DDL — outside transactions, autocommitted)} *)

val define_class : t -> Ode_lang.Ast.class_decl -> Ode_model.Schema.cls
(** Typechecks the declaration (constraints, trigger conditions, method
    bodies), rewrites bare member names to [this.f], registers and persists
    it. *)

val define : t -> string -> Ode_model.Schema.cls list
(** Parse and define class declarations from source text. *)

val create_cluster : t -> string -> unit
(** Create the type extent; required before [pnew] (paper §2.5). *)

val create_index : t -> cls:string -> field:string -> unit
(** Create a secondary index and backfill it from existing objects. *)

val catalog : t -> Ode_model.Catalog.t

(** {1 Planner statistics} *)

val analyze : t -> string
(** Collect planner statistics: one full committed-state scan producing
    per-extent cardinalities and per-index equi-depth key histograms,
    persisted under the ['S'] key through an ordinary transaction (WAL,
    recovery, replication and dump all carry it). DDL-like: must run
    outside transactions. Returns a one-line human summary. *)

val stats_summary : t -> string
val stats_analyzed : t -> bool
val stats_stale : t -> bool
(** Whether the planner currently distrusts the histograms (no analyze
    yet, or too many header creates/deletes since the last one). *)

(** {1 Transactions} *)

val with_txn : t -> (txn -> 'a) -> 'a
(** Run, commit, then execute any trigger actions fired by the commit, each
    as its own transaction (weak coupling, paper §6). On exception the
    transaction is aborted and the exception re-raised. *)

val with_read_txn : t -> (txn -> 'a) -> 'a
(** Run [f] inside a detached read-only transaction ({!Txn.begin_read}):
    it registers an MVCC snapshot but never a write set or an xid, so any
    number run concurrently on reader domains alongside open write
    transactions, each observing a stable snapshot. A write attempt inside
    [f] raises {!Types.Read_only_txn} before touching shared state. *)

val begin_txn : t -> txn
(** Open an explicit read-write transaction. Any number may be open at
    once (MVCC snapshot isolation); a commit that loses first-committer-wins
    conflict detection raises the retryable {!Types.Txn_conflict} after
    auto-aborting. *)

val commit : txn -> unit
(** Commit and drain trigger actions. Under [Group]/[Async] durability the
    commit is prepared (logged, applied) but its fsync is deferred to the
    next {!sync_commits} / checkpoint — see {!durability}. *)

val commit_deferred : txn -> unit
(** Commit with durability deferred regardless of mode: logged and applied,
    pending until {!sync_commits}. Callers that acknowledge commits to the
    outside world (the network server) must call {!sync_commits} first. *)

val abort : txn -> unit

(** {1 Durability}

    When a commit's WAL records are fsynced: [Full] — at every commit,
    before it returns (eager, the default); [Group] — deferred until a
    shared {!sync_commits}, so one fsync acknowledges a whole batch of
    commits (the serving layer syncs once per scheduler tick); [Async] —
    deferred with nobody waiting: durability arrives at the next
    checkpoint, dirty-page write-back, or explicit {!sync_commits}.

    Every mode is equally crash-{e consistent}: recovery replays exactly the
    transactions whose commit records reached the log, and the buffer pool
    forces the log before writing any dirty page (write-ahead), so applied
    effects can never outrun their records. The modes differ only in
    whether an {e acknowledged} commit can be lost: never under [Full] and
    [Group] (acks wait for the fsync), bounded by the deferred window under
    [Async]. *)

type durability = Types.durability = Full | Group | Async

val durability : t -> durability
val set_durability : t -> durability -> unit

val sync_commits : t -> unit
(** One [Wal.sync] acknowledging every pending deferred commit. No-op when
    nothing is pending. *)

val pending_commits : t -> int
(** Commits prepared but not yet made durable by a sync. *)

val pool_resident : t -> int
(** Pages currently cached across the three buffer pools (heap, directory
    B+tree, index B+tree) — a monitoring gauge. *)

val ocache_resident : t -> int
(** Decoded objects currently held by the object cache. *)

(** {1 Concurrency and MVCC introspection} *)

val latch : t -> Ode_util.Rwlock.t
(** The engine latch. Reader domains hold the shared side for the duration
    of a request; the engine itself takes the exclusive side around commit
    apply, checkpoints, DDL and replication apply ({!Txn.with_excl}). *)

val open_txns : t -> (int * int) list
(** Open read-write transactions as [(xid, read_ts)] pairs, oldest xid
    first — the shell's [.txns] report. *)

val oldest_snapshot : t -> int option
(** Read timestamp of the oldest live snapshot (the MVCC GC horizon), or
    [None] when no snapshot is registered. *)

val live_snapshots : t -> int
(** Registered snapshots: open write transactions plus in-flight detached
    read transactions. *)

val mvcc_chains : t -> int
(** Keys currently carrying a version chain. *)

val mvcc_dead_versions : t -> int
(** Superseded versions retained for live snapshots — the GC backlog. *)

val mvcc_reclaimed : t -> int
(** Versions reclaimed by the GC since open (monotonic). *)

val durability_name : durability -> string
val durability_of_string : string -> durability option
(** ["full"] / ["group"] / ["async"]. *)

(** {1 Replication}

    Commit LSNs number the database's committed transactions from the
    beginning of time (see [Wal]); the serving layer tags every response
    with one, ships post-fsync WAL batches to standbys, and a standby
    replays them here. *)

val lsn : t -> int
(** LSN of the last committed (applied) transaction. On a standby this is
    the replication apply position. *)

val durable_lsn : t -> int
(** LSN covered by the last WAL fsync ([lsn] minus any pending deferred
    commits). *)

val read_only : t -> bool

val set_read_only : t -> bool -> unit
(** A read-only database (a replication standby) rejects local writes with
    {!Types.Read_only_store} — DDL and clock advancement immediately,
    writing transactions at commit; read-only transactions still commit.
    Promotion flips it back. *)

val dir : t -> string option
(** The backing directory ([None] for in-memory databases). *)

val wal_tail : t -> lsn:int -> string option
(** The raw WAL frames a replica at [lsn] still needs ([Wal.tail_from]);
    [None] when the log was checkpointed past that point — ship a snapshot
    instead. *)

val set_wal_observer :
  t -> (data:string -> from_lsn:int -> to_lsn:int -> unit) option -> unit
(** Install the post-fsync batch observer ([Wal.set_on_sync]): the serving
    layer's replication feeder. The callback runs inside commit paths and
    must only enqueue. *)

val apply_replicated : t -> Ode_storage.Wal.record list -> unit
(** Standby redo: append a shipped batch to the local WAL, fsync it
    (write-ahead — a standby crash mid-apply replays on reopen), apply the
    committed operations through the same path recovery uses (recording
    pre-images into the MVCC version chains under the primary's commit
    timestamps, so snapshots held on this standby stay stable), refresh the
    decoded schema/trigger/clock mirrors if the batch touched them, and
    checkpoint when the primary's checkpoint record says to (or the local
    log outgrows its bound). The local commit LSN advances through the
    appended records exactly as the primary's did. *)

(** {1 Objects (within a transaction)} *)

val pnew : txn -> string -> (string * Ode_model.Value.t) list -> Ode_model.Oid.t
val pdelete : txn -> Ode_model.Oid.t -> unit
val get : txn -> Ode_model.Oid.t -> (string * Ode_model.Value.t) list option
val get_field : txn -> Ode_model.Oid.t -> string -> Ode_model.Value.t
(** Raises [Not_found] on a dead object or unknown field. *)

val set_field : txn -> Ode_model.Oid.t -> string -> Ode_model.Value.t -> unit
val update : txn -> Ode_model.Oid.t -> (string * Ode_model.Value.t) list -> unit

val exists : t -> ?txn:txn -> Ode_model.Oid.t -> bool
val class_name_of : t -> Ode_model.Oid.t -> string option
val is_instance : t -> Ode_model.Oid.t -> string -> bool
(** Subclass-aware dynamic type test: the paper's [p is persistent C*]. *)

val call : txn -> Ode_model.Oid.t -> string -> Ode_model.Value.t list -> Ode_model.Value.t
(** Invoke a method with dynamic dispatch. *)

val eval : txn -> ?vars:(string * Ode_model.Value.t) list -> Ode_lang.Ast.expr -> Ode_model.Value.t

(** {1 Versions (paper §4)} *)

val newversion : txn -> Ode_model.Oid.t -> int
val versions : txn -> Ode_model.Oid.t -> int list
(** Version numbers in ascending (creation) order. *)

val current_version : txn -> Ode_model.Oid.t -> int
val get_version : txn -> Ode_model.Oid.vref -> (string * Ode_model.Value.t) list option
val pdelete_version : txn -> Ode_model.Oid.vref -> unit

(** {1 Triggers (paper §6)} *)

val activate : txn -> Ode_model.Oid.t -> string -> Ode_model.Value.t list -> int
(** Returns the trigger id. *)

val deactivate : txn -> int -> unit

val advance_time : t -> int -> unit
(** Advance the logical clock; timed triggers whose deadline passed fire
    their timeout actions (each as its own transaction). Must be called
    outside a transaction. *)

val now : t -> int

val set_action_printer : t -> (string -> unit) -> unit
(** Where [print] statements in trigger actions write (default stdout). *)

(** {1 Named roots} *)

val set_root : txn -> string -> Ode_model.Value.t -> unit
val root : txn -> string -> Ode_model.Value.t option
val root_exn : txn -> string -> Ode_model.Value.t
