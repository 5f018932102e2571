(** Disk-backed B+tree mapping byte-string keys to byte-string values.

    Keys are unique (inserting an existing key replaces its value); callers
    needing duplicates append a discriminator to the key (see {!Key}).
    Deletion is lazy: entries are removed but nodes are not rebalanced,
    which is fine for the workloads this engine targets and keeps rids of
    sibling entries stable during scans.

    The tree owns its pager: page 0 is a header holding the root page number
    and the entry count. *)

type t

val attach : Ode_storage.Buffer_pool.t -> t
(** Open the tree stored in the pool's disk, formatting an empty tree on an
    empty disk. *)

val insert : t -> string -> string -> unit
(** [insert t key value]. Raises [Invalid_argument] if [key]+[value] exceed
    {!max_entry} bytes or the key is empty. *)

val find : t -> string -> string option
val mem : t -> string -> bool

val delete : t -> string -> bool
(** Remove a key; false if absent. *)

type cursor
(** A streaming scan position: one seek, then leaf-chain walks on demand.
    O(1) memory — the cursor holds a single leaf's entries at a time — and
    abandoning it early reads no further pages. The cursor snapshots each
    leaf's entry array (arrays are copied on mutation, never updated in
    place), so interleaved writes cannot corrupt an in-flight scan; entries
    committed behind the cursor's position may or may not be observed. *)

val cursor : t -> ?lo:string -> ?hi:string -> ?inclusive_hi:bool -> unit -> cursor
(** Seek to the first entry [>= lo] (tree start when omitted). The scan
    yields entries while [key < hi] ([<= hi] when [inclusive_hi]). *)

val cursor_prefix : t -> string -> cursor
(** Cursor over all keys starting with the given prefix. *)

val cursor_next : cursor -> (string * string) option
(** Next entry in key order, or [None] when the range is exhausted. *)

val iter_range :
  t -> ?lo:string -> ?hi:string -> ?inclusive_hi:bool -> (string -> string -> bool) -> unit
(** [iter_range t ~lo ~hi f] visits entries with [lo <= key < hi] (or
    [<= hi] when [inclusive_hi] is true) in key order; [f] returns [false]
    to stop early. Omitted bounds are open. *)

val iter_prefix : t -> string -> (string -> string -> bool) -> unit
(** Visit all entries whose key starts with the given prefix. *)

val iter_range_rev :
  t -> ?lo:string -> ?hi:string -> ?inclusive_hi:bool -> (string -> string -> bool) -> unit
(** Like {!iter_range} but in descending key order (top-down right-to-left
    walk; leaves carry no back pointers). *)

val iter_prefix_rev : t -> string -> (string -> string -> bool) -> unit

val count : t -> int
val height : t -> int
val page_count : t -> int

val pool : t -> Ode_storage.Buffer_pool.t
(** The buffer pool the tree lives in (tests and recovery tooling). *)

val flush : t -> unit
val max_entry : int

val node_capacity : int
(** Largest encoded node, in bytes; a node that would grow past it splits.
    A page holds [u16 size][node], and the page checksum trailer starts
    right after the largest such frame. *)

val check : t -> (unit, string) result
(** Structural check: key order within and across nodes, separator
    consistency, leaf chain completeness. For tests. *)
