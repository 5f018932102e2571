module Bptree = Ode_index.Bptree
module Disk = Ode_storage.Disk
module Pool = Ode_storage.Buffer_pool

let mk () = Bptree.attach (Pool.create ~capacity:128 (Disk.in_memory ()))
let assert_ok t = match Bptree.check t with Ok () -> () | Error e -> Alcotest.fail e

let basic () =
  let t = mk () in
  Bptree.insert t "b" "2";
  Bptree.insert t "a" "1";
  Bptree.insert t "c" "3";
  Alcotest.(check (option string)) "find a" (Some "1") (Bptree.find t "a");
  Alcotest.(check (option string)) "find c" (Some "3") (Bptree.find t "c");
  Alcotest.(check (option string)) "miss" None (Bptree.find t "zz");
  Tutil.check_int "count" 3 (Bptree.count t);
  assert_ok t

let replace () =
  let t = mk () in
  Bptree.insert t "k" "old";
  Bptree.insert t "k" "new";
  Alcotest.(check (option string)) "replaced" (Some "new") (Bptree.find t "k");
  Tutil.check_int "count unchanged" 1 (Bptree.count t)

let delete () =
  let t = mk () in
  Bptree.insert t "x" "1";
  Tutil.check_bool "delete hit" true (Bptree.delete t "x");
  Tutil.check_bool "delete miss" false (Bptree.delete t "x");
  Alcotest.(check (option string)) "gone" None (Bptree.find t "x");
  Tutil.check_int "count" 0 (Bptree.count t)

let key k = Printf.sprintf "key-%06d" k

let many_keys_split () =
  let t = mk () in
  let n = 5000 in
  for i = 0 to n - 1 do
    Bptree.insert t (key i) (string_of_int (i * 7))
  done;
  Tutil.check_bool "tree grew" true (Bptree.height t >= 2);
  Tutil.check_int "count" n (Bptree.count t);
  for i = 0 to n - 1 do
    if Bptree.find t (key i) <> Some (string_of_int (i * 7)) then
      Alcotest.failf "lost key %d" i
  done;
  assert_ok t

let range_scan () =
  let t = mk () in
  for i = 0 to 99 do
    Bptree.insert t (key i) ""
  done;
  let got = ref [] in
  Bptree.iter_range t ~lo:(key 10) ~hi:(key 20) (fun k _ ->
      got := k :: !got;
      true);
  Alcotest.(check int) "half-open range" 10 (List.length !got);
  Tutil.check_string "first" (key 10) (List.nth (List.rev !got) 0);
  let got2 = ref 0 in
  Bptree.iter_range t ~lo:(key 10) ~hi:(key 20) ~inclusive_hi:true (fun _ _ ->
      incr got2;
      true);
  Tutil.check_int "inclusive range" 11 !got2

let range_early_stop () =
  let t = mk () in
  for i = 0 to 99 do
    Bptree.insert t (key i) ""
  done;
  let n = ref 0 in
  Bptree.iter_range t (fun _ _ ->
      incr n;
      !n < 5);
  Tutil.check_int "stopped early" 5 !n

let prefix_scan () =
  let t = mk () in
  List.iter (fun k -> Bptree.insert t k "") [ "ap"; "apple"; "apricot"; "banana"; "ba" ];
  let got = ref [] in
  Bptree.iter_prefix t "ap" (fun k _ ->
      got := k :: !got;
      true);
  Tutil.check_string_list "ap-prefixed" [ "ap"; "apple"; "apricot" ] (List.rev !got)

let persistence () =
  let dir = Tutil.temp_dir "bpt" in
  let path = Filename.concat dir "t.bpt" in
  let d = Disk.open_file path in
  let t = Bptree.attach (Pool.create ~capacity:64 d) in
  for i = 0 to 999 do
    Bptree.insert t (key i) (string_of_int i)
  done;
  Bptree.flush t;
  Disk.close d;
  let d2 = Disk.open_file path in
  let t2 = Bptree.attach (Pool.create ~capacity:64 d2) in
  Tutil.check_int "count persisted" 1000 (Bptree.count t2);
  Alcotest.(check (option string)) "value persisted" (Some "777") (Bptree.find t2 (key 777));
  assert_ok t2;
  Disk.close d2

(* A leaf whose encoding is exactly [node_capacity] bytes still fits its
   page: it survives a flush and reopen with a valid page checksum, and
   only the next entry splits it. *)
let exact_capacity_leaf () =
  let dir = Tutil.temp_dir "bpt" in
  let path = Filename.concat dir "t.bpt" in
  let d = Disk.open_file path in
  let t = Bptree.attach (Pool.create ~capacity:8 d) in
  (* Leaf header: u8 kind, u16 count, u32 next; each entry u16+key+u16+value. *)
  let n = 4 and budget = Bptree.node_capacity - 7 in
  let entries =
    List.init n (fun i ->
        let k = Printf.sprintf "k%d" i in
        let size = (budget / n) + if i = 0 then budget mod n else 0 in
        (k, String.make (size - 4 - String.length k) (Char.chr (Char.code 'a' + i))))
  in
  List.iter (fun (k, v) -> Bptree.insert t k v) entries;
  Tutil.check_int "one full leaf" 1 (Bptree.height t);
  Bptree.flush t;
  Disk.close d;
  let d2 = Disk.open_file path in
  (* A bad leaf checksum would have trimmed the page at open, or raises here. *)
  Tutil.check_int "no page trimmed" 2 (Disk.page_count d2);
  for page = 0 to Disk.page_count d2 - 1 do
    ignore (Disk.read d2 page)
  done;
  let t2 = Bptree.attach (Pool.create ~capacity:8 d2) in
  Tutil.check_int "still one leaf" 1 (Bptree.height t2);
  let all_found entries =
    List.iter (fun (k, v) -> Alcotest.(check (option string)) k (Some v) (Bptree.find t2 k)) entries
  in
  all_found entries;
  Bptree.insert t2 "k9" "z";
  Tutil.check_int "one more entry splits" 2 (Bptree.height t2);
  all_found (("k9", "z") :: entries);
  assert_ok t2;
  Disk.close d2

let hex b = String.concat "" (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

(* The bytes of page [page] up to the end of its node frame ([u16 size] +
   node), or the first [len] bytes. *)
let page_hex ?len t page =
  Pool.with_page (Bptree.pool t) page (fun f ->
      let data = Pool.data f in
      let len = match len with Some n -> n | None -> 2 + Bytes.get_uint16_le data 0 in
      hex (Bytes.sub data 0 len))

(* The node page format, pinned byte for byte. *)
let node_frames_pinned () =
  let t = mk () in
  Bptree.insert t "bc" "22";
  Bptree.insert t "a" "1";
  Tutil.check_string "leaf frame"
    ("1500" ^ "00" ^ "0200" ^ "00000000" ^ "0100" ^ "61" ^ "0100" ^ "31" ^ "0200" ^ "6263" ^ "0200" ^ "3232")
    (page_hex t 1);
  let t = mk () in
  List.iter (fun k -> Bptree.insert t k (String.make 1000 'v')) [ "k1"; "k2"; "k3"; "k4"; "k5" ];
  Tutil.check_int "split once" 2 (Bptree.height t);
  (* Header: magic, u32 root (page 3, allocated after the right leaf), i64 count. *)
  Tutil.check_string "header" ("4f44454250543031" ^ "03000000" ^ "0500000000000000") (page_hex ~len:20 t 0);
  Tutil.check_string "internal frame"
    ("0f00" ^ "01" ^ "0100" ^ "01000000" ^ "0200" ^ "6b33" ^ "02000000")
    (page_hex t 3)

let large_entries_rejected () =
  let t = mk () in
  match Bptree.insert t (String.make 2000 'k') "v" with
  | () -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let reverse_range () =
  let t = mk () in
  for i = 0 to 99 do
    Bptree.insert t (key i) (string_of_int i)
  done;
  let got = ref [] in
  Bptree.iter_range_rev t ~lo:(key 10) ~hi:(key 20) (fun k _ ->
      got := k :: !got;
      true);
  Alcotest.(check (list string)) "reverse of forward"
    (List.init 10 (fun i -> key (10 + i)))
    !got;
  (* Early stop from the top. *)
  let n = ref 0 in
  Bptree.iter_range_rev t (fun _ _ ->
      incr n;
      !n < 3);
  Tutil.check_int "stopped early" 3 !n

let cursor_basics () =
  let t = mk () in
  for i = 0 to 99 do
    Bptree.insert t (key i) (string_of_int i)
  done;
  (* Seek lands on the first entry >= lo even when lo is absent from the tree. *)
  Bptree.delete t (key 10) |> ignore;
  let cur = Bptree.cursor t ~lo:(key 10) ~hi:(key 14) () in
  let got = ref [] in
  let rec drain () =
    match Bptree.cursor_next cur with
    | Some (k, _) ->
        got := k :: !got;
        drain ()
    | None -> ()
  in
  drain ();
  Tutil.check_string_list "half-open, seek past hole" [ key 11; key 12; key 13 ] (List.rev !got);
  Tutil.check_bool "exhausted stays exhausted" true (Bptree.cursor_next cur = None);
  let cur2 = Bptree.cursor t ~lo:(key 95) () in
  let n = ref 0 in
  while Bptree.cursor_next cur2 <> None do
    incr n
  done;
  Tutil.check_int "open hi runs to the end" 5 !n

let cursor_prefix () =
  let t = mk () in
  List.iter (fun k -> Bptree.insert t k "") [ "ap"; "apple"; "apricot"; "banana"; "ba" ];
  let cur = Bptree.cursor_prefix t "ap" in
  let got = ref [] in
  let rec drain () =
    match Bptree.cursor_next cur with
    | Some (k, _) ->
        got := k :: !got;
        drain ()
    | None -> ()
  in
  drain ();
  Tutil.check_string_list "ap-prefixed" [ "ap"; "apple"; "apricot" ] (List.rev !got)

let cursor_early_exit_pages () =
  let t = mk () in
  let n = 5000 in
  for i = 0 to n - 1 do
    Bptree.insert t (key i) (string_of_int i)
  done;
  Tutil.check_bool "multi-leaf tree" true (Bptree.height t >= 2);
  let pages_during fn =
    let before = Ode_util.Stats.(get (snapshot ()) "cursor_pages_read") in
    fn ();
    Ode_util.Stats.(get (snapshot ()) "cursor_pages_read") - before
  in
  let full =
    pages_during (fun () ->
        let cur = Bptree.cursor t () in
        while Bptree.cursor_next cur <> None do
          ()
        done)
  in
  let early =
    pages_during (fun () ->
        let cur = Bptree.cursor t () in
        ignore (Bptree.cursor_next cur))
  in
  Tutil.check_bool "full scan reads many leaves" true (full > 2);
  Tutil.check_int "abandoned cursor reads one leaf" 1 early

let prop_cursor_matches_iter_range =
  QCheck.Test.make ~name:"cursor = iter_range" ~count:100
    QCheck.(triple (list (int_bound 300)) (int_bound 300) (int_bound 300))
    (fun (ks, a, b) ->
      let lo_i = min a b and hi_i = max a b in
      let t = mk () in
      List.iter (fun k -> Bptree.insert t (key k) (string_of_int k)) ks;
      let lo = key lo_i and hi = key hi_i in
      let via_iter = ref [] in
      Bptree.iter_range t ~lo ~hi (fun k v -> via_iter := (k, v) :: !via_iter; true);
      let cur = Bptree.cursor t ~lo ~hi () in
      let via_cursor = ref [] in
      let rec drain () =
        match Bptree.cursor_next cur with
        | Some kv ->
            via_cursor := kv :: !via_cursor;
            drain ()
        | None -> ()
      in
      drain ();
      !via_cursor = !via_iter)

let prop_reverse_matches_forward =
  QCheck.Test.make ~name:"iter_range_rev = rev iter_range" ~count:100
    QCheck.(triple (list (int_bound 300)) (int_bound 300) (int_bound 300))
    (fun (ks, a, b) ->
      let lo_i = min a b and hi_i = max a b in
      let t = mk () in
      List.iter (fun k -> Bptree.insert t (key k) "") ks;
      let lo = key lo_i and hi = key hi_i in
      let fwd = ref [] and bwd = ref [] in
      Bptree.iter_range t ~lo ~hi (fun k _ -> fwd := k :: !fwd; true);
      Bptree.iter_range_rev t ~lo ~hi (fun k _ -> bwd := k :: !bwd; true);
      !fwd = List.rev !bwd)

let prop_model =
  let ops_gen =
    QCheck.Gen.(
      list_size (int_bound 400)
        (frequency
           [
             (6, map2 (fun k v -> `Insert (k mod 500, v mod 1000)) nat nat);
             (3, map (fun k -> `Delete (k mod 500)) nat);
           ]))
  in
  QCheck.Test.make ~name:"bptree matches Map" ~count:60 (QCheck.make ops_gen) (fun ops ->
      let t = mk () in
      let model = ref [] in
      List.iter
        (fun op ->
          match op with
          | `Insert (k, v) ->
              let ks = key k and vs = string_of_int v in
              Bptree.insert t ks vs;
              model := (ks, vs) :: List.remove_assoc ks !model
          | `Delete k ->
              let ks = key k in
              let present = List.mem_assoc ks !model in
              let deleted = Bptree.delete t ks in
              if present <> deleted then QCheck.Test.fail_report "delete result mismatch";
              model := List.remove_assoc ks !model)
        ops;
      (match Bptree.check t with Ok () -> () | Error e -> QCheck.Test.fail_report e);
      (* Contents and order both match the reference. *)
      let scan = ref [] in
      Bptree.iter_range t (fun k v ->
          scan := (k, v) :: !scan;
          true);
      let expected = List.sort compare !model in
      List.rev !scan = expected && Bptree.count t = List.length expected)

let suite =
  [
    ( "bptree",
      [
        Alcotest.test_case "basic ops" `Quick basic;
        Alcotest.test_case "insert replaces" `Quick replace;
        Alcotest.test_case "delete" `Quick delete;
        Alcotest.test_case "splits under load" `Quick many_keys_split;
        Alcotest.test_case "range scan" `Quick range_scan;
        Alcotest.test_case "range early stop" `Quick range_early_stop;
        Alcotest.test_case "reverse range" `Quick reverse_range;
        Alcotest.test_case "prefix scan" `Quick prefix_scan;
        Alcotest.test_case "cursor basics" `Quick cursor_basics;
        Alcotest.test_case "cursor prefix" `Quick cursor_prefix;
        Alcotest.test_case "cursor early exit stops page reads" `Quick cursor_early_exit_pages;
        Alcotest.test_case "persists across reopen" `Quick persistence;
        Alcotest.test_case "oversized entries rejected" `Quick large_entries_rejected;
        Alcotest.test_case "leaf at exact node capacity" `Quick exact_capacity_leaf;
        Alcotest.test_case "node frames pinned" `Quick node_frames_pinned;
      ] );
    Tutil.qsuite "bptree.props"
      [ prop_model; prop_reverse_matches_forward; prop_cursor_matches_iter_range ];
  ]
