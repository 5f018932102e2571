exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

(* -- encoding ---------------------------------------------------------- *)

let put_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))

let put_u16 b n =
  put_u8 b n;
  put_u8 b (n lsr 8)

let put_u32 b n =
  put_u16 b n;
  put_u16 b (n lsr 16)

let put_i64 b n = Buffer.add_int64_le b n
let put_int b n = put_i64 b (Int64.of_int n)
let put_float b f = put_i64 b (Int64.bits_of_float f)
let put_bool b v = put_u8 b (if v then 1 else 0)

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_raw b s = Buffer.add_string b s

(* -- decoding ---------------------------------------------------------- *)

type cursor = { src : string; mutable p : int; stop : int }

let cursor ?(pos = 0) ?len src =
  match len with
  | None -> { src; p = pos; stop = String.length src }
  | Some n ->
      if n < 0 || pos + n > String.length src then
        corrupt "codec: %d-byte window at %d overruns %d bytes" n pos (String.length src);
      { src; p = pos; stop = pos + n }

let pos c = c.p
let remaining c = c.stop - c.p
let at_end c = remaining c <= 0

let need c n =
  if remaining c < n then
    corrupt "codec: need %d bytes at %d, have %d" n c.p (remaining c)

let get_u8 c =
  need c 1;
  let v = Char.code c.src.[c.p] in
  c.p <- c.p + 1;
  v

let get_u16 c =
  let lo = get_u8 c in
  let hi = get_u8 c in
  lo lor (hi lsl 8)

let get_u32 c =
  let lo = get_u16 c in
  let hi = get_u16 c in
  lo lor (hi lsl 16)

let get_i64 c =
  need c 8;
  let v = String.get_int64_le c.src c.p in
  c.p <- c.p + 8;
  v

let get_int c = Int64.to_int (get_i64 c)
let get_float c = Int64.float_of_bits (get_i64 c)

let get_bool c =
  match get_u8 c with
  | 0 -> false
  | 1 -> true
  | n -> corrupt "codec: invalid bool byte %d" n

let get_raw c n =
  need c n;
  let s = String.sub c.src c.p n in
  c.p <- c.p + n;
  s

let get_string c =
  let n = get_u32 c in
  get_raw c n

(* -- checksums --------------------------------------------------------- *)

(* An index loop: the [int64 ref] never escapes, so the native compiler
   keeps it unboxed and hashing allocates nothing per byte. A closure
   capturing it (as [String.iter] needs) would box every intermediate
   value. *)
let fnv64_bytes b ~pos ~len =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  for i = pos to pos + len - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)));
    h := Int64.mul !h prime
  done;
  !h

let fnv64 s = fnv64_bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* XXH64 with seed 0: four independent multiply/rotate lanes over 32-byte
   stripes, then the tail a word, a half-word and a byte at a time, then a
   final xor-shift-multiply avalanche. Words are loaded little-endian on
   every host, so a page checksums the same wherever it was written. One
   bounds check up front covers the unchecked loads; every intermediate is
   an unboxed local, so hashing allocates only the boxed result. *)
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external bswap32 : int32 -> int32 = "%bswap_int32"

let[@inline] word b i = if Sys.big_endian then bswap64 (get64u b i) else get64u b i

let[@inline] half b i =
  let w = if Sys.big_endian then bswap32 (get32u b i) else get32u b i in
  Int64.logand (Int64.of_int32 w) 0xffffffffL

let p1 = 0x9E3779B185EBCA87L
let p2 = 0xC2B2AE3D27D4EB4FL
let p3 = 0x165667B19E3779F9L
let p4 = 0x85EBCA77C2B2AE63L
let p5 = 0x27D4EB2F165667C5L
let[@inline] rotl x r = Int64.(logor (shift_left x r) (shift_right_logical x (64 - r)))
let[@inline] round acc w = Int64.(mul (rotl (add acc (mul w p2)) 31) p1)
let[@inline] merge acc v = Int64.(add (mul (logxor acc (round 0L v)) p1) p4)

let page_sum b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Codec.page_sum: slice out of bounds";
  let stop = pos + len in
  let i = ref pos in
  let h = ref 0L in
  if len >= 32 then begin
    let v1 = ref (Int64.add p1 p2) and v2 = ref p2 and v3 = ref 0L and v4 = ref (Int64.neg p1) in
    while !i <= stop - 32 do
      let j = !i in
      v1 := round !v1 (word b j);
      v2 := round !v2 (word b (j + 8));
      v3 := round !v3 (word b (j + 16));
      v4 := round !v4 (word b (j + 24));
      i := j + 32
    done;
    let acc = Int64.(add (add (rotl !v1 1) (rotl !v2 7)) (add (rotl !v3 12) (rotl !v4 18))) in
    h := merge (merge (merge (merge acc !v1) !v2) !v3) !v4
  end
  else h := p5;
  h := Int64.add !h (Int64.of_int len);
  while !i <= stop - 8 do
    h := Int64.(add (mul (rotl (logxor !h (round 0L (word b !i))) 27) p1) p4);
    i := !i + 8
  done;
  if !i <= stop - 4 then begin
    h := Int64.(add (mul (rotl (logxor !h (mul (half b !i) p1)) 23) p2) p3);
    i := !i + 4
  end;
  while !i < stop do
    let byte = Int64.of_int (Char.code (Bytes.unsafe_get b !i)) in
    h := Int64.(mul (rotl (logxor !h (mul byte p5)) 11) p1);
    incr i
  done;
  let h = !h in
  let h = Int64.(mul (logxor h (shift_right_logical h 33)) p2) in
  let h = Int64.(mul (logxor h (shift_right_logical h 29)) p3) in
  Int64.logxor h (Int64.shift_right_logical h 32)
