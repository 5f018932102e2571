(** Page-granular storage backends.

    Two implementations: a Unix file (random access, fsync-able) and an
    in-memory store (for tests and throwaway databases). Pages are numbered
    from 0 and are always {!Page.size} bytes.

    The file backend stamps a checksum ({!Ode_util.Codec.page_sum}) into
    each page's trailer on write and verifies it on read
    ({!Ode_util.Codec.Corrupt} on mismatch), and routes {!write_batch}
    through a double-write journal ([<path>.journal]) so a crash mid-flush
    never leaves a mix of old and new pages. *)

type t

val open_file : string -> t
(** [open_file path] opens (creating if absent) a page file. Replays or
    discards a leftover double-write journal, then drops any torn trailing
    pages (sub-page tails and trailing checksum failures). Raises
    {!Ode_util.Codec.Corrupt}, changing nothing on disk, when page 0 of a
    file of more than one page fails its checksum, or when the journal is
    in the older ["ODEDWJ01"] format: files written with the older FNV-1a
    page checksum are refused, never trimmed, and must be reloaded from a
    dump. *)

val in_memory : unit -> t
(** A volatile backend backed by a growable array. *)

val is_memory : t -> bool

val page_count : t -> int
(** Number of allocated pages. *)

val read : t -> int -> bytes
(** [read t n] returns a fresh buffer with page [n]'s contents. Raises
    [Invalid_argument] when [n] is out of range. *)

val read_into : t -> int -> bytes -> unit
(** Like {!read} but fills the caller's buffer. *)

val write : t -> int -> bytes -> unit
(** [write t n page] persists [page] at index [n]. [n] may be at most
    [page_count t] (writing at [page_count] extends the file). On the file
    backend the page's checksum trailer is stamped in place. *)

val write_batch : t -> (int * bytes) list -> unit
(** Crash-atomically persist a set of existing pages and fsync: on the file
    backend the batch goes to the double-write journal first, so after a
    crash either every page or no page of the batch is visible. Pages must
    already be allocated. *)

val allocate : t -> int
(** Extend by one zeroed page, returning its index. *)

val sync : t -> unit
(** Flush OS buffers (no-op in memory). *)

val truncate : t -> int -> unit
(** [truncate t n] drops pages at index [n] and beyond. *)

val close : t -> unit
