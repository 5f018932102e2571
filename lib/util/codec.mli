(** Binary encoding and decoding of primitive values.

    All multi-byte quantities are little-endian. Encoders append to a
    {!Buffer.t}; decoders read from a string through a mutable cursor.
    Decoding past the end of the input, or reading malformed data, raises
    {!Corrupt}. *)

exception Corrupt of string
(** Raised when decoding encounters truncated or malformed input. *)

(** {1 Encoding} *)

val put_u8 : Buffer.t -> int -> unit
(** [put_u8 b n] appends the low byte of [n]. *)

val put_u16 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit

val put_i64 : Buffer.t -> int64 -> unit

val put_int : Buffer.t -> int -> unit
(** [put_int b n] appends a native OCaml int as a signed 64-bit value. *)

val put_float : Buffer.t -> float -> unit
(** IEEE-754 bit pattern, 8 bytes. *)

val put_bool : Buffer.t -> bool -> unit

val put_string : Buffer.t -> string -> unit
(** Length-prefixed (u32) byte string. *)

val put_raw : Buffer.t -> string -> unit
(** Appends the bytes with no length prefix. *)

(** {1 Decoding} *)

type cursor
(** A read position within an immutable string. *)

val cursor : ?pos:int -> ?len:int -> string -> cursor
(** [cursor ~pos ~len src] reads [src] from [pos] (default 0); with [len]
    it stops [len] bytes later, as if the string ended there. Raises
    {!Corrupt} when that window runs past the end of [src]. *)

val pos : cursor -> int
val remaining : cursor -> int
val at_end : cursor -> bool

val get_u8 : cursor -> int
val get_u16 : cursor -> int
val get_u32 : cursor -> int
val get_i64 : cursor -> int64
val get_int : cursor -> int
val get_float : cursor -> float
val get_bool : cursor -> bool
val get_string : cursor -> string
val get_raw : cursor -> int -> string

(** {1 Checksums} *)

val fnv64 : string -> int64
(** FNV-1a 64-bit hash, used as a WAL record checksum and by the hash
    index. Allocates nothing. *)

val fnv64_bytes : bytes -> pos:int -> len:int -> int64
(** Same hash over a byte-buffer slice, hashed in place. Used for WAL
    frames, whose images live in [bytes]. *)

val page_sum : bytes -> pos:int -> len:int -> int64
(** XXH64 (seed 0) of a byte-buffer slice, hashed in place a 64-bit
    little-endian word at a time, so the value does not depend on the
    host's byte order. The page and double-write journal checksum; with
    four independent lanes it is several times faster than
    {!fnv64_bytes}, whose every step waits on the last. Allocates only
    its result. Raises [Invalid_argument] when the slice is out of
    bounds. *)
