module Codec = Ode_util.Codec

let roundtrip_unit () =
  let b = Buffer.create 64 in
  Codec.put_u8 b 0xab;
  Codec.put_u16 b 0xbeef;
  Codec.put_u32 b 0xdeadbeef;
  Codec.put_int b (-42);
  Codec.put_int b max_int;
  Codec.put_float b 3.25;
  Codec.put_bool b true;
  Codec.put_bool b false;
  Codec.put_string b "hello\000world";
  Codec.put_raw b "tail";
  let c = Codec.cursor (Buffer.contents b) in
  Tutil.check_int "u8" 0xab (Codec.get_u8 c);
  Tutil.check_int "u16" 0xbeef (Codec.get_u16 c);
  Tutil.check_int "u32" 0xdeadbeef (Codec.get_u32 c);
  Tutil.check_int "int neg" (-42) (Codec.get_int c);
  Tutil.check_int "int max" max_int (Codec.get_int c);
  Alcotest.(check (float 0.0)) "float" 3.25 (Codec.get_float c);
  Tutil.check_bool "bool t" true (Codec.get_bool c);
  Tutil.check_bool "bool f" false (Codec.get_bool c);
  Tutil.check_string "string" "hello\000world" (Codec.get_string c);
  Tutil.check_string "raw" "tail" (Codec.get_raw c 4);
  Tutil.check_bool "at end" true (Codec.at_end c)

let truncated () =
  let c = Codec.cursor "ab" in
  match
    ignore (Codec.get_u16 c);
    Codec.get_u16 c
  with
  | _ -> Alcotest.fail "expected Corrupt on truncated input"
  | exception Codec.Corrupt _ -> ()

let bad_bool () =
  let c = Codec.cursor "\007" in
  (match Codec.get_bool c with
  | _ -> Alcotest.fail "expected Corrupt"
  | exception Codec.Corrupt _ -> ())

let string_prefix_independent () =
  (* Two strings encoded back to back decode independently. *)
  let b = Buffer.create 16 in
  Codec.put_string b "";
  Codec.put_string b "x";
  let c = Codec.cursor (Buffer.contents b) in
  Tutil.check_string "empty" "" (Codec.get_string c);
  Tutil.check_string "x" "x" (Codec.get_string c)

let fnv_distinct () =
  Tutil.check_bool "hash differs" true (Codec.fnv64 "abc" <> Codec.fnv64 "abd");
  Tutil.check_bool "hash stable" true (Codec.fnv64 "abc" = Codec.fnv64 "abc")

(* Published FNV-1a 64-bit test vectors; the slice variant must give the
   same values at a nonzero offset. *)
let fnv_vectors () =
  let vectors = [ ("", 0xcbf29ce484222325L); ("a", 0xaf63dc4c8601ec8cL); ("foobar", 0x85944171f73967e8L) ] in
  List.iter
    (fun (s, h) ->
      Alcotest.(check int64) (Printf.sprintf "fnv64 %S" s) h (Codec.fnv64 s);
      let b = Bytes.of_string ("<<<" ^ s ^ ">>>") in
      Alcotest.(check int64)
        (Printf.sprintf "fnv64_bytes %S at pos 3" s)
        h
        (Codec.fnv64_bytes b ~pos:3 ~len:(String.length s)))
    vectors

(* Hashing is on every WAL append, page write and journal flush: it must
   not allocate per byte. The bound covers the boxed result and the
   measurement's own float. *)
let fnv_allocation () =
  let s = String.init 65536 (fun i -> Char.chr (i land 0xff)) in
  let b = Bytes.of_string s in
  let words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  let string_words = words (fun () -> Codec.fnv64 s) in
  let bytes_words = words (fun () -> Codec.fnv64_bytes b ~pos:1 ~len:65535) in
  if string_words > 8. then Alcotest.failf "fnv64 allocated %.0f words over 64 KiB" string_words;
  if bytes_words > 8. then Alcotest.failf "fnv64_bytes allocated %.0f words over 64 KiB" bytes_words

(* Reference XXH64 values (seed 0); "" and "abc" are the published
   vectors. The lengths cover every tail step (word, half-word, byte) after
   the four-lane stripes, and each slice is also hashed at an odd offset,
   where no word load is aligned. *)
let page_sum_vectors () =
  let pattern n = String.init n (fun i -> Char.chr (i land 0xff)) in
  let vectors =
    [
      ("", 0xef46db3751d8e999L);
      ("a", 0xd24ec4f1a98c6e5bL);
      ("abc", 0x44bc2cf5ad770999L);
      (pattern 47, 0x0d9883a03e7bfbb8L);
      (pattern 4088, 0xa0b098c6b23bb3fcL);
    ]
  in
  List.iter
    (fun (s, h) ->
      let n = String.length s in
      Alcotest.(check int64)
        (Printf.sprintf "page_sum of %d bytes" n)
        h
        (Codec.page_sum (Bytes.of_string s) ~pos:0 ~len:n);
      Alcotest.(check int64)
        (Printf.sprintf "page_sum of %d bytes at pos 3" n)
        h
        (Codec.page_sum (Bytes.of_string ("<<<" ^ s ^ ">>>")) ~pos:3 ~len:n))
    vectors;
  match Codec.page_sum (Bytes.create 8) ~pos:1 ~len:8 with
  | _ -> Alcotest.fail "expected Invalid_argument for a slice past the end"
  | exception Invalid_argument _ -> ()

(* A random page as the disk layer checksums it: [data_end] bytes hashed,
   the sum in the trailer after them. *)
let page_size = Ode_storage.Page.size
let data_end = Ode_storage.Page.data_end

let random_page seed =
  let rng = Ode_util.Prng.create seed in
  let page = Bytes.of_string (Ode_util.Prng.string rng page_size) in
  Bytes.set_int64_le page data_end (Codec.page_sum page ~pos:0 ~len:data_end);
  page

let verifies page = Bytes.get_int64_le page data_end = Codec.page_sum page ~pos:0 ~len:data_end

let page_sum_bit_flips () =
  let page = random_page 15 in
  Tutil.check_bool "stamped page verifies" true (verifies page);
  let missed = ref 0 in
  for bit = 0 to (data_end * 8) - 1 do
    let byte = bit / 8 in
    let orig = Bytes.get page byte in
    Bytes.set page byte (Char.chr (Char.code orig lxor (1 lsl (bit mod 8))));
    if verifies page then incr missed;
    Bytes.set page byte orig
  done;
  Tutil.check_int (Printf.sprintf "undetected flips of %d" (data_end * 8)) 0 !missed

(* A zeroed page (a hole, or a write that never landed) must not pass for
   a stamped page, nor may a page with one 512-byte sector lost. *)
let page_sum_zeroed_sectors () =
  Tutil.check_bool "all-zero page rejected" false (verifies (Bytes.make page_size '\000'));
  for sector = 0 to (page_size / 512) - 1 do
    let page = random_page 16 in
    Bytes.fill page (sector * 512) 512 '\000';
    Tutil.check_bool (Printf.sprintf "sector %d zeroed rejected" sector) false (verifies page)
  done

let page_sum_allocation () =
  let b = Bytes.init 65536 (fun i -> Char.chr (i land 0xff)) in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Codec.page_sum b ~pos:1 ~len:65535));
  let words = Gc.minor_words () -. before in
  if words > 8. then Alcotest.failf "page_sum allocated %.0f words over 64 KiB" words

let prop_int_roundtrip =
  QCheck.Test.make ~name:"int roundtrip" ~count:500 QCheck.int (fun n ->
      let b = Buffer.create 8 in
      Codec.put_int b n;
      Codec.get_int (Codec.cursor (Buffer.contents b)) = n)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string roundtrip" ~count:500 QCheck.string (fun s ->
      let b = Buffer.create 8 in
      Codec.put_string b s;
      Codec.get_string (Codec.cursor (Buffer.contents b)) = s)

let prop_float_roundtrip =
  QCheck.Test.make ~name:"float roundtrip" ~count:500 QCheck.float (fun f ->
      let b = Buffer.create 8 in
      Codec.put_float b f;
      let f' = Codec.get_float (Codec.cursor (Buffer.contents b)) in
      Int64.bits_of_float f = Int64.bits_of_float f')

let suite =
  [
    ( "codec",
      [
        Alcotest.test_case "roundtrip all types" `Quick roundtrip_unit;
        Alcotest.test_case "truncated input raises" `Quick truncated;
        Alcotest.test_case "bad bool raises" `Quick bad_bool;
        Alcotest.test_case "strings are framed" `Quick string_prefix_independent;
        Alcotest.test_case "fnv64 behaves" `Quick fnv_distinct;
        Alcotest.test_case "fnv64 published vectors" `Quick fnv_vectors;
        Alcotest.test_case "fnv64 allocates nothing per byte" `Quick fnv_allocation;
        Alcotest.test_case "page_sum reference vectors" `Quick page_sum_vectors;
        Alcotest.test_case "page_sum catches every bit flip" `Quick page_sum_bit_flips;
        Alcotest.test_case "page_sum rejects zeroed sectors" `Quick page_sum_zeroed_sectors;
        Alcotest.test_case "page_sum allocates nothing per word" `Quick page_sum_allocation;
      ] );
    Tutil.qsuite "codec.props" [ prop_int_roundtrip; prop_string_roundtrip; prop_float_roundtrip ];
  ]
