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
