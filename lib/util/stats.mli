(** Global operation counters.

    Every layer of the system bumps these counters; benchmarks snapshot them
    around a workload to report how much physical and logical work each
    strategy performed (pages touched, index probes, objects scanned, ...).

    A counter is declared by the module that owns it, at module
    initialization: [let c_evictions = Stats.counter "cache.evictions"] at
    top level, then [Stats.incr c_evictions] on the hot path. Declaring a
    name that is already registered returns the same slot, so two modules
    that bump one counter (the B+tree and the hash index both count index
    probes) both declare it. snapshot/diff/[to_list]/[pp] and the metrics
    endpoint pick every slot up with no further edits. Code outside the
    owner reads a counter by name: [Stats.get snap "cache.evictions"].

    A slot exists only in a binary that links its owner: a process that
    does not link the serving layer has none of its counters.

    Counters are process-global [Atomic.t] cells, so bumps are domain-safe:
    the network server executes read-only requests on reader domains in
    parallel with the writer domain, and every layer's counters stay exact
    under that concurrency. [snapshot] reads each cell atomically (the
    array as a whole is not one atomic cut, which is fine for monotonic
    counters). Registration itself happens at module initialization,
    before any domain is spawned. *)

type group =
  | Workload  (** reported by [pp] / the shell's [.stats] *)
  | Recovery  (** reported by [pp_recovery] / the shell's [.recovery] *)

type kind =
  | Counter  (** monotonically increasing; resets only via [reset] *)
  | Gauge  (** overwritten with a current level (replication lag) *)

type snapshot
(** Counter values at the moment [snapshot] was taken; read with
    [get]/[to_list]. *)

type counter
(** A handle on one registered slot. *)

val counter : ?group:group -> ?kind:kind -> string -> counter
(** [counter ?group ?kind name] registers [name] (default [Workload],
    [Counter]) and returns its handle. Called again with a registered name
    it returns the same slot.
    @raise Invalid_argument if [name] is registered with another group or
    kind. *)

val incr : counter -> unit
val add : counter -> int -> unit

val set : counter -> int -> unit
(** Overwrite the value, for [Gauge] slots. *)

val kind_of : string -> kind
(** Exposition kind of a registered slot ([Counter] if unknown) — lets the
    metrics renderer emit [# TYPE ... gauge] for set-style slots. *)

val register_gauge : string -> (unit -> int) -> unit
(** Register (or replace — same name wins) a live sampled gauge: current
    connections, read-queue depth, cache residency, pending group-commit
    batch size. The callback runs on whichever domain renders metrics, so
    it must be domain-safe; a raising sampler reads as 0. *)

val unregister_gauge : string -> unit

val gauges : unit -> (string * int) list
(** All registered sampled gauges, read now, sorted by name. *)

val snapshot : unit -> snapshot
val reset : unit -> unit

val zero : unit -> snapshot
(** An all-zero snapshot (e.g. an accumulator for [accum]). *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] is the slot-wise difference. *)

val combine : snapshot -> snapshot -> snapshot

val accum : into:snapshot -> snapshot -> snapshot -> unit
(** [accum ~into a b] adds [a - b] into [into], slot-wise, in place —
    allocation-free delta accumulation for the query profiler. *)

val registered : unit -> string list
(** All counter names, in registration order. *)

val to_list : snapshot -> (string * int) list
(** [(name, value)] pairs in registration order. *)

val get : snapshot -> string -> int
(** Value of a counter by name; 0 if unknown. *)

val pp : Format.formatter -> snapshot -> unit
(** Workload counters (pages, pool, WAL, probes, ...), derived from the
    registry: every [Workload] counter as [name value], sorted by name so
    the output diffs stably regardless of module-initialization order. *)

val pp_recovery : Format.formatter -> snapshot -> unit
(** Durability counters (replays, torn bytes, checksum failures, ...). *)
