(** The serving event loop: a poll(2) multiplexer on the writer domain,
    with optional reader domains executing read-only requests in parallel.

    One server owns one open {!Ode.Database} and any number of client
    connections, each with its own {!Session}. All I/O is non-blocking and
    handled by the {e writer} domain, which also executes every request
    that can write — [Exec], [Dot], anything inside an explicit
    transaction — one at a time, so transaction semantics are exactly the
    embedded ones. With [domains = n > 1], [n - 1] {e reader} domains drain
    a bounded job queue of [Ping]s and autocommitted [Query]s, each running
    in a detached read-only transaction against the lock-striped storage
    layer. A writer-preferring RW lock interleaves the two kinds: readers
    hold it shared per request, the writer exclusively per writing request,
    so queries always see a structurally quiescent engine while scaling
    across cores. A query that turns out to write is re-routed and replayed
    on the writer (counted in [server.reroutes]). Per connection at most
    one request is in flight at a time, so replies stay in request order.
    With [domains = 1] (the default) everything runs inline on one domain —
    the classic model, no lock, no queues.

    Handshake: the server speaks exactly one protocol version,
    {!Protocol.version}. A client hello at any other version is answered
    with a [Bad_version] reply (which {!Client.connect} reports as
    [Rejected], naming both versions) and the connection is closed; a
    standby whose replication hello carries another version is hung up
    on. Every peer is built from this tree, so there is nothing to
    negotiate.

    Flow control: a connection whose response backlog exceeds an internal
    cap is not read from until the backlog drains, so a client that stops
    reading cannot balloon server memory. Connections idle longer than
    [idle_timeout] are evicted via a monotonic last-activity queue (cost
    proportional to connections actually due for inspection, not to the
    connection count); their open transaction is rolled back. When
    [max_conns] sessions are connected, new arrivals get a "server busy"
    handshake reply and are closed. There is no descriptor ceiling beyond
    the process rlimit (poll, unlike select, has no FD_SETSIZE): thousands
    of concurrent connections are fine, and descriptor exhaustion
    (EMFILE/ENFILE) pauses accepting briefly — counted in
    [server.accept_backoffs] — instead of failing. A socket that reaches
    EOF or fails with any error other than EAGAIN/EINTR — client, standby,
    upstream link or scraper alike — drops just that peer; it never stops
    the loop.

    {2 Group commit and the reply-after-fsync guarantee}

    The event loop is also the group-commit batch scheduler. Each iteration
    runs in strict phases: read — every readable connection's complete
    requests are executed (or dispatched and their completions collected)
    and their replies {e buffered}; ack — one [Database.sync_commits] makes
    every commit prepared this tick durable; write — buffered replies go to
    the sockets. Replies are never written during the read phase, and
    graceful shutdown acks before each flush round, so under [Full] and
    [Group] durability {b no client ever receives a success reply for a
    commit that could be lost in a crash}. [Group] simply amortizes: a tick
    that executed N autocommits from any number of connections pays one
    fsync instead of N. [Async] drops the wait — replies may precede
    durability, with the exposure bounded by [group_window]. Explicit
    transactions and single-request ticks degrade to the eager behavior (a
    batch of one). Reader-executed requests commit nothing and owe no
    fsync; re-routed ones are replayed on the writer before the ack point.

    {2 Replication}

    A server created with [repl_port] is a {e primary}: it listens for
    standbys on a second port, answers each handshake with the WAL suffix
    the standby is missing (or a snapshot of the store when the log was
    checkpointed past it), and thereafter streams every post-fsync commit
    batch — the WAL sync hook fires strictly after the barrier, so a standby
    can never hold a commit the primary could still lose. A server created
    with [replica] is a {e standby}: read-only to clients (writes get a
    retryable "read-only replica" error), it applies shipped batches through
    the engine's redo path under the exclusive lock (its reader domains
    serve stale-but-consistent queries between batches), acknowledges each
    one, reconnects with an exact resume position after stream faults, and
    becomes a primary on [.promote] or SIGUSR1 ({!promote}). With
    [sync_repl] a primary additionally holds each reply until some
    streaming standby has acknowledged the commit it covers (semi-sync),
    degrading — counted in [repl.sync_degraded] — rather than blocking
    forever when no standby keeps up. [.replication] reports role,
    positions, the domain split and per-standby lag. *)

type t

val create :
  ?host:string ->
  ?max_conns:int ->
  ?idle_timeout:float ->
  ?durability:Ode.Database.durability ->
  ?group_window:int ->
  ?repl_port:int ->
  ?metrics_port:int ->
  ?sync_repl:bool ->
  ?replica:string * int * Replication.upstream ->
  ?domains:int ->
  db:Ode.Database.t ->
  port:int ->
  unit ->
  t
(** Bind and listen. [host] defaults to ["127.0.0.1"]; [port] 0 picks an
    ephemeral port (read it back with {!port}). [max_conns] defaults to 64;
    [idle_timeout] to 300 seconds, [<= 0.] disables eviction. [durability],
    when given, is installed on [db] ([Database.set_durability]); omitted,
    the database keeps its current mode. [group_window] (default 64, min 1)
    bounds commits deferred within one batch: a long tick syncs every
    [group_window] commits rather than once at the end.

    [domains] (default 1, min 1) is the total serving domain count: 1 means
    the classic single-domain loop; [n > 1] spawns [n - 1] reader domains
    at creation (joined again on shutdown). The database must not be shared
    with other servers or threads while reader domains exist.

    [repl_port] (0 = ephemeral, see {!repl_port}) additionally serves the
    replication stream. [replica] is [(host, port, upstream)] from
    {!Replication.bootstrap}: serve [db] as a standby of that primary.
    [sync_repl] turns on semi-sync reply gating (primaries only).

    [metrics_port] (0 = ephemeral, see {!metrics_port}) additionally serves
    a minimal HTTP observability endpoint on the same poll loop (no extra
    threads): [GET /metrics] is Prometheus text exposition
    ({!Ode_util.Metrics.prometheus}), [GET /metrics.json] the same data as
    JSON, [GET /health] a one-line JSON liveness document (role, commit and
    durable LSN — a standby's commit LSN is its replication apply
    position — connection and domain counts). One request per connection,
    [Connection: close]. *)

val port : t -> int
(** The bound client port (useful after binding port 0). *)

val repl_port : t -> int
(** The bound replication port; 0 when the server does not serve one. *)

val metrics_port : t -> int
(** The bound metrics HTTP port; 0 when the server does not serve one. *)

val connections : t -> int

val domains : t -> int
(** Total serving domains (1 writer + N readers). *)

val promote : t -> (string, string) result
(** Standby → primary: drop the upstream link, clear the read-only flag,
    start accepting writes (and standbys, if a replication port is bound).
    [Error] on a server that is already primary. Also triggered by the
    [.promote] dot command and SIGUSR1 (via {!handle_signals}). *)

val shutdown : t -> unit
(** Request a graceful stop: async-signal-safe (it only sets a flag), so it
    can be called from a SIGINT handler. {!serve} then stops accepting,
    collects outstanding reader completions and joins the reader domains,
    flushes pending responses (bounded drain), rolls back every session's
    open transaction and returns. *)

val handle_signals : t -> unit
(** Route SIGINT and SIGTERM to {!shutdown}, SIGUSR1 to {!promote}. *)

val serve : t -> unit
(** Run the event loop until {!shutdown}. The caller still owns the
    database and should [Database.close] it after this returns. *)

val spawn :
  ?max_conns:int ->
  ?idle_timeout:float ->
  ?durability:Ode.Database.durability ->
  ?group_window:int ->
  ?repl_port:int ->
  ?sync_repl:bool ->
  ?replica_of:string * int ->
  ?domains:int ->
  db_dir:string ->
  unit ->
  int * int
(** Fork a child process that opens [db_dir], serves it on an ephemeral
    loopback port (SIGINT/SIGTERM trigger graceful shutdown) and exits.
    Returns [(pid, port)] once the child reports its port. Reader domains
    (with [?domains]) are spawned in the child, after the fork. With
    [replica_of:(host, port)] the child bootstraps as a standby of that
    primary instead of opening [db_dir] directly. For tests and benchmarks;
    production deployments run [bin/ode_server]. *)

val spawn_full :
  ?max_conns:int ->
  ?idle_timeout:float ->
  ?durability:Ode.Database.durability ->
  ?group_window:int ->
  ?repl_port:int ->
  ?metrics_port:int ->
  ?slow_query_ms:int ->
  ?sync_repl:bool ->
  ?replica_of:string * int ->
  ?domains:int ->
  db_dir:string ->
  unit ->
  int * int * int * int
(** {!spawn}, but returns [(pid, client_port, repl_port, metrics_port)] —
    the latter two are 0 unless the child was given [?repl_port] /
    [?metrics_port]. [slow_query_ms] arms the child's slow-query log
    ({!Ode_util.Slowlog.configure}) writing to [db_dir/slow_query.log]. *)
