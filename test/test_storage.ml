(* Disk backends, buffer pool, WAL and heap files. *)

module Disk = Ode_storage.Disk
module Pool = Ode_storage.Buffer_pool
module Wal = Ode_storage.Wal
module Heap = Ode_storage.Heap
module Page = Ode_storage.Page

(* -- disk -------------------------------------------------------------- *)

let mem_disk_rw () =
  let d = Disk.in_memory () in
  Tutil.check_int "empty" 0 (Disk.page_count d);
  let n = Disk.allocate d in
  Tutil.check_int "first page" 0 n;
  let page = Bytes.make Page.size 'q' in
  Disk.write d 0 page;
  Alcotest.(check bytes) "read back" page (Disk.read d 0)

let file_disk_rw () =
  let dir = Tutil.temp_dir "disk" in
  let path = Filename.concat dir "pages" in
  let d = Disk.open_file path in
  let n0 = Disk.allocate d in
  let n1 = Disk.allocate d in
  Tutil.check_int "sequential alloc" 1 (n1 - n0);
  let page = Bytes.make Page.size 'z' in
  Disk.write d n1 page;
  Disk.sync d;
  Disk.close d;
  let d2 = Disk.open_file path in
  Tutil.check_int "count persisted" 2 (Disk.page_count d2);
  Alcotest.(check bytes) "data persisted" page (Disk.read d2 n1);
  Disk.close d2

let disk_range_checks () =
  let d = Disk.in_memory () in
  (match Disk.read d 0 with
  | _ -> Alcotest.fail "read past end should raise"
  | exception Invalid_argument _ -> ());
  match Disk.write d 5 (Bytes.make Page.size ' ') with
  | _ -> Alcotest.fail "write past end+1 should raise"
  | exception Invalid_argument _ -> ()

let disk_truncate () =
  let d = Disk.in_memory () in
  ignore (Disk.allocate d);
  ignore (Disk.allocate d);
  Disk.truncate d 1;
  Tutil.check_int "truncated" 1 (Disk.page_count d)

(* -- on-disk format guard ----------------------------------------------- *)

module Codec = Ode_util.Codec

let file_bytes path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* A page as an older build stamped it: FNV-1a over the data area. *)
let fnv_page fill =
  let page = Bytes.make Page.size fill in
  Bytes.set_int64_le page Page.data_end (Codec.fnv64_bytes page ~pos:0 ~len:Page.data_end);
  page

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let refused what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Codec.Corrupt at open" what
  | exception Codec.Corrupt _ -> ()

(* A data file in the older page format is refused, not trimmed to
   nothing as a run of torn trailing pages. *)
let old_page_format_refused () =
  let dir = Tutil.temp_dir "oldfmt" in
  let path = Filename.concat dir "pages" in
  write_file path (String.concat "" (List.map (fun c -> Bytes.to_string (fnv_page c)) [ 'a'; 'b'; 'c' ]));
  let before = file_bytes path in
  (match Disk.open_file path with
  | _ -> Alcotest.fail "expected Codec.Corrupt at open"
  | exception Codec.Corrupt msg ->
      Tutil.check_bool "message names the file" true (contains msg path));
  let after = file_bytes path in
  Tutil.check_int "length unchanged" (String.length before) (String.length after);
  Tutil.check_bool "bytes unchanged" true (before = after)

(* A complete journal in the older "ODEDWJ01" format is refused and left in
   place; the data file is not touched. *)
let old_journal_refused () =
  let dir = Tutil.temp_dir "oldjournal" in
  let path = Filename.concat dir "pages" in
  let d = Disk.open_file path in
  ignore (Disk.allocate d);
  ignore (Disk.allocate d);
  Disk.write d 1 (Bytes.make Page.size 'n');
  Disk.sync d;
  Disk.close d;
  let before = file_bytes path in
  let b = Buffer.create (Page.size + 32) in
  Buffer.add_string b "ODEDWJ01";
  Codec.put_u32 b 1;
  Codec.put_u32 b 1;
  Buffer.add_bytes b (fnv_page 'o');
  Codec.put_i64 b (Codec.fnv64 (Buffer.contents b));
  let journal = path ^ ".journal" in
  write_file journal (Buffer.contents b);
  refused "old journal" (fun () -> Disk.open_file path);
  Tutil.check_bool "data file untouched" true (file_bytes path = before);
  Tutil.check_bool "journal left in place" true (Sys.file_exists journal)

(* A torn page 0 in a one-page file is a torn extension write and is still
   trimmed, as is a torn last page behind a good page 0. *)
let torn_first_page_trimmed () =
  let dir = Tutil.temp_dir "torn0" in
  let path = Filename.concat dir "pages" in
  let failures () = Ode_util.Stats.get (Ode_util.Stats.snapshot ()) "checksum_failures" in
  write_file path (String.make Page.size 't');
  let f0 = failures () in
  let d = Disk.open_file path in
  Tutil.check_int "torn page 0 trimmed" 0 (Disk.page_count d);
  Tutil.check_int "counted" 1 (failures () - f0);
  ignore (Disk.allocate d);
  Disk.close d;
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
      Out_channel.output_string oc (String.make Page.size 't'));
  let d = Disk.open_file path in
  Tutil.check_int "torn page 1 trimmed" 1 (Disk.page_count d);
  Disk.close d;
  Tutil.check_int "file length" Page.size (String.length (file_bytes path))

(* -- buffer pool -------------------------------------------------------- *)

let pool_hit_miss () =
  let d = Disk.in_memory () in
  let p = Pool.create ~capacity:2 d in
  let f = Pool.allocate p in
  Pool.unpin p f;
  let before = Ode_util.Stats.snapshot () in
  Pool.with_page p 0 (fun _ -> ());
  let after = Ode_util.Stats.snapshot () in
  Tutil.check_int "pool hit" 1 Ode_util.Stats.(get (diff after before) "pool_hits")

let pool_eviction_writes_back () =
  let d = Disk.in_memory () in
  let p = Pool.create ~capacity:2 d in
  for _ = 1 to 3 do
    let f = Pool.allocate p in
    Bytes.set (Pool.data f) 0 'D';
    Pool.mark_dirty p f;
    Pool.unpin p f
  done;
  (* Page 0 was evicted to make room; its dirty byte must be on disk. *)
  Tutil.check_bool "written back" true (Bytes.get (Disk.read d 0) 0 = 'D')

let pool_exhaustion () =
  let d = Disk.in_memory () in
  let p = Pool.create ~capacity:1 d in
  let f = Pool.allocate p in
  (match Pool.allocate p with
  | _ -> Alcotest.fail "expected Pool_exhausted"
  | exception Pool.Pool_exhausted -> ());
  Pool.unpin p f

let pool_flush_all () =
  let d = Disk.in_memory () in
  let p = Pool.create ~capacity:4 d in
  let f = Pool.allocate p in
  Bytes.set (Pool.data f) 10 'F';
  Pool.mark_dirty p f;
  Pool.unpin p f;
  Pool.flush_all p;
  Tutil.check_bool "flushed" true (Bytes.get (Disk.read d 0) 10 = 'F')

(* A capacity-2 file-backed pool cycling over 8 pages: every miss reuses an
   evicted frame's buffer, yet every read sees its own page's bytes, and a
   pinned or dirty frame's buffer is never handed to another page. *)
let pool_frame_reuse () =
  let dir = Tutil.temp_dir "pool" in
  let d = Disk.open_file (Filename.concat dir "pages") in
  let p = Pool.create ~capacity:2 d in
  let pages = 8 in
  (* The checksum trailer belongs to the disk layer; patterns stop before it. *)
  let fill buf n = Bytes.fill buf 0 Page.data_end (Char.chr (Char.code 'A' + n)) in
  let holds buf n =
    let c = Char.chr (Char.code 'A' + n) in
    Bytes.get buf 0 = c && Bytes.get buf (Page.data_end / 2) = c && Bytes.get buf (Page.data_end - 1) = c
  in
  for n = 0 to pages - 1 do
    let f = Pool.allocate p in
    Tutil.check_int "allocated in order" n (Pool.page_no f);
    fill (Pool.data f) n;
    Pool.mark_dirty p f;
    Pool.unpin p f
  done;
  let seen = ref [] in
  let read n =
    Pool.with_page p n (fun f ->
        let buf = Pool.data f in
        if not (holds buf n) then Alcotest.failf "page %d read another page's bytes" n;
        if not (List.memq buf !seen) then seen := buf :: !seen;
        buf)
  in
  for _ = 1 to 3 do
    for n = 0 to pages - 1 do
      ignore (read n)
    done
  done;
  Tutil.check_bool "misses reuse the evicted buffers" true (List.length !seen <= Pool.capacity p);
  (* Pin page 0, clean and then dirty: the other pages cycle through the
     one frame left, and never through page 0's buffer. *)
  let f0 = Pool.pin p 0 in
  let buf0 = Pool.data f0 in
  let cycle_around_pinned () =
    for _ = 1 to 2 do
      for n = 1 to pages - 1 do
        if read n == buf0 then Alcotest.failf "page %d got the pinned frame's buffer" n
      done
    done
  in
  cycle_around_pinned ();
  Tutil.check_bool "clean pinned frame untouched" true (holds buf0 0);
  Bytes.set buf0 1 'z';
  Pool.mark_dirty p f0;
  cycle_around_pinned ();
  Tutil.check_bool "dirty pinned frame untouched" true (Bytes.get buf0 0 = 'A' && Bytes.get buf0 1 = 'z');
  Pool.unpin p f0;
  (* Dirty page 1 and unpin it: its buffer may only move on once its bytes
     are on disk. *)
  Pool.with_page p 1 (fun f ->
      Bytes.set (Pool.data f) 1 'y';
      Pool.mark_dirty p f);
  for n = 2 to pages - 1 do
    ignore (read n)
  done;
  Tutil.check_bool "dirty page written back before reuse" true (Bytes.get (Disk.read d 1) 1 = 'y');
  Tutil.check_bool "pinned page written back" true (Bytes.get (Disk.read d 0) 1 = 'z');
  Pool.with_page p 1 (fun f -> Tutil.check_bool "page 1 reloads" true (Bytes.get (Pool.data f) 1 = 'y'));
  Disk.close d

(* -- wal ------------------------------------------------------------------ *)

let wal_records =
  [
    Wal.Begin 1;
    Wal.Put (1, "key-a", "payload-a");
    Wal.Delete (1, "key-b");
    Wal.Commit (1, 0, 0);
    Wal.Checkpoint 1;
  ]

let wal_roundtrip_memory () =
  let w = Wal.in_memory () in
  List.iter (Wal.append w) wal_records;
  Wal.sync w;
  let got = ref [] in
  Wal.replay w (fun r -> got := r :: !got);
  Alcotest.(check int) "count" (List.length wal_records) (List.length !got);
  Tutil.check_bool "order and content" true (List.rev !got = wal_records)

let wal_roundtrip_file () =
  let dir = Tutil.temp_dir "wal" in
  let path = Filename.concat dir "wal.log" in
  let w = Wal.open_file path in
  List.iter (Wal.append w) wal_records;
  Wal.sync w;
  Wal.close w;
  let w2 = Wal.open_file path in
  let got = ref [] in
  Wal.replay w2 (fun r -> got := r :: !got);
  Tutil.check_bool "persisted" true (List.rev !got = wal_records);
  Wal.close w2

let wal_torn_tail_ignored () =
  let dir = Tutil.temp_dir "wal" in
  let path = Filename.concat dir "wal.log" in
  let w = Wal.open_file path in
  Wal.append w (Wal.Put (1, "k", "v"));
  Wal.sync w;
  Wal.close w;
  (* Simulate a torn write: garbage appended after the intact frame. *)
  let oc = Out_channel.open_gen [ Open_append; Open_binary ] 0o644 path in
  Out_channel.output_string oc "\042\000\000\000GARBAGE";
  Out_channel.close oc;
  let w2 = Wal.open_file path in
  let got = ref [] in
  Wal.replay w2 (fun r -> got := r :: !got);
  Tutil.check_int "only intact frame" 1 (List.length !got);
  (* And new appends after reopening are readable. *)
  Wal.append w2 (Wal.Commit (1, 0, 0));
  Wal.sync w2;
  let got2 = ref [] in
  Wal.replay w2 (fun r -> got2 := r :: !got2);
  Tutil.check_int "append after truncation" 2 (List.length !got2);
  Wal.close w2

let wal_reset () =
  let w = Wal.in_memory () in
  Wal.append w (Wal.Begin 7);
  Wal.sync w;
  Wal.reset w;
  let n = ref 0 in
  Wal.replay w (fun _ -> incr n);
  Tutil.check_int "empty after reset" 0 !n

let wal_unsynced_not_replayed () =
  let w = Wal.in_memory () in
  Wal.append w (Wal.Begin 9);
  (* no sync *)
  let n = ref 0 in
  Wal.replay w (fun _ -> incr n);
  Tutil.check_int "pending buffer invisible" 0 !n

let wal_pending_commits () =
  let w = Wal.in_memory () in
  Tutil.check_int "fresh log has none" 0 (Wal.pending_commits w);
  Wal.append w (Wal.Begin 1);
  Wal.append w (Wal.Put (1, "a", "x"));
  Tutil.check_int "non-commit records don't pend" 0 (Wal.pending_commits w);
  Wal.append w (Wal.Commit (1, 0, 0));
  Tutil.check_int "commit pends" 1 (Wal.pending_commits w);
  Wal.append w (Wal.Begin 2);
  Wal.append w (Wal.Commit (2, 0, 0));
  Tutil.check_int "second commit pends" 2 (Wal.pending_commits w);
  let before = Ode_util.Stats.snapshot () in
  Wal.sync w;
  let d = Ode_util.Stats.diff (Ode_util.Stats.snapshot ()) before in
  Tutil.check_int "one ack clears the batch" 0 (Wal.pending_commits w);
  Tutil.check_int "one physical sync" 1 (Ode_util.Stats.get d "wal_syncs");
  Tutil.check_int "a batch of 2 saved 1 sync" 1 (Ode_util.Stats.get d "wal_sync_saved");
  (* An empty ack is still a sync, but saves nothing and grows no group. *)
  let before = Ode_util.Stats.snapshot () in
  Wal.sync w;
  let d = Ode_util.Stats.diff (Ode_util.Stats.snapshot ()) before in
  Tutil.check_int "empty sync saves nothing" 0 (Ode_util.Stats.get d "wal_sync_saved")

let wal_reset_clears_pending () =
  let w = Wal.in_memory () in
  Wal.append w (Wal.Begin 3);
  Wal.append w (Wal.Commit (3, 0, 0));
  Tutil.check_int "pending before reset" 1 (Wal.pending_commits w);
  Wal.reset w;
  Tutil.check_int "reset discards pending" 0 (Wal.pending_commits w)

(* -- heap ------------------------------------------------------------------ *)

let heap_mem () = Heap.attach (Pool.create ~capacity:64 (Disk.in_memory ()))

let heap_basic () =
  let h = heap_mem () in
  let r1 = Heap.insert h "alpha" in
  let r2 = Heap.insert h "beta" in
  Alcotest.(check (option string)) "get 1" (Some "alpha") (Heap.get h r1);
  Alcotest.(check (option string)) "get 2" (Some "beta") (Heap.get h r2);
  Tutil.check_int "count" 2 (Heap.record_count h);
  Tutil.check_bool "delete" true (Heap.delete h r1);
  Alcotest.(check (option string)) "gone" None (Heap.get h r1);
  Tutil.check_int "count after delete" 1 (Heap.record_count h)

let heap_large_records () =
  let h = heap_mem () in
  let big = String.init 20_000 (fun i -> Char.chr (i mod 256)) in
  let r = Heap.insert h big in
  Alcotest.(check (option string)) "chunked roundtrip" (Some big) (Heap.get h r);
  let bigger = String.make 50_000 'Q' in
  let r2 = Heap.update h r bigger in
  Alcotest.(check (option string)) "chunked update" (Some bigger) (Heap.get h r2);
  Tutil.check_bool "delete frees" true (Heap.delete h r2);
  Alcotest.(check (option string)) "gone" None (Heap.get h r2)

let heap_update_moves () =
  let h = heap_mem () in
  let r = Heap.insert h "small" in
  (* Fill the page so growth forces relocation. *)
  for _ = 1 to 30 do
    ignore (Heap.insert h (String.make 120 'f'))
  done;
  let r' = Heap.update h r (String.make 3000 'G') in
  Alcotest.(check (option string)) "moved value" (Some (String.make 3000 'G')) (Heap.get h r')

let heap_iter () =
  let h = heap_mem () in
  let data = [ "one"; "two"; "three"; String.make 9000 'L' ] in
  List.iter (fun d -> ignore (Heap.insert h d)) data;
  let seen = ref [] in
  Heap.iter h (fun _ d -> seen := d :: !seen);
  Alcotest.(check int) "all records, chunks hidden" 4 (List.length !seen);
  Tutil.check_bool "payloads intact" true
    (List.sort compare !seen = List.sort compare data)

let heap_persistence () =
  let dir = Tutil.temp_dir "heap" in
  let path = Filename.concat dir "data.heap" in
  let d = Disk.open_file path in
  let pool = Pool.create ~capacity:32 d in
  let h = Heap.attach pool in
  let r = Heap.insert h "persistent" in
  let big = String.make 12_345 'B' in
  let rbig = Heap.insert h big in
  Heap.flush h;
  Disk.close d;
  let d2 = Disk.open_file path in
  let h2 = Heap.attach (Pool.create ~capacity:32 d2) in
  Alcotest.(check (option string)) "small persisted" (Some "persistent") (Heap.get h2 r);
  Alcotest.(check (option string)) "large persisted" (Some big) (Heap.get h2 rbig);
  Tutil.check_int "count rebuilt" 2 (Heap.record_count h2);
  Disk.close d2

let prop_heap_model =
  let ops_gen =
    QCheck.Gen.(
      list_size (int_bound 150)
        (frequency
           [
             (6, map (fun n -> `Insert (n mod 6000)) nat);
             (2, map (fun i -> `Delete i) (int_bound 60));
             (2, map2 (fun i n -> `Update (i, n mod 6000)) (int_bound 60) nat);
           ]))
  in
  QCheck.Test.make ~name:"heap matches model" ~count:60 (QCheck.make ops_gen) (fun ops ->
      let h = heap_mem () in
      let model = Hashtbl.create 16 in
      let handles = Array.make 64 None in
      let tag = ref 0 in
      List.iter
        (fun op ->
          incr tag;
          match op with
          | `Insert len ->
              let data = Printf.sprintf "%d:%s" !tag (String.make len 'd') in
              let r = Heap.insert h data in
              let slot = !tag mod 64 in
              (match handles.(slot) with
              | Some (old_r, _) when Hashtbl.mem model old_r -> ()
              | _ -> ());
              handles.(slot) <- Some (r, data);
              Hashtbl.replace model r data
          | `Delete i -> (
              match handles.(i) with
              | Some (r, _) when Hashtbl.mem model r ->
                  ignore (Heap.delete h r);
                  Hashtbl.remove model r;
                  handles.(i) <- None
              | _ -> ())
          | `Update (i, len) -> (
              match handles.(i) with
              | Some (r, _) when Hashtbl.mem model r ->
                  let data = Printf.sprintf "%d:%s" !tag (String.make len 'u') in
                  let r' = Heap.update h r data in
                  Hashtbl.remove model r;
                  Hashtbl.replace model r' data;
                  handles.(i) <- Some (r', data)
              | _ -> ()))
        ops;
      Hashtbl.fold (fun r data ok -> ok && Heap.get h r = Some data) model true
      && Heap.record_count h = Hashtbl.length model)

let suite =
  [
    ( "disk",
      [
        Alcotest.test_case "memory read/write" `Quick mem_disk_rw;
        Alcotest.test_case "file read/write persists" `Quick file_disk_rw;
        Alcotest.test_case "range checks" `Quick disk_range_checks;
        Alcotest.test_case "truncate" `Quick disk_truncate;
        Alcotest.test_case "older page format refused" `Quick old_page_format_refused;
        Alcotest.test_case "older journal format refused" `Quick old_journal_refused;
        Alcotest.test_case "torn page 0 of one page trimmed" `Quick torn_first_page_trimmed;
      ] );
    ( "buffer_pool",
      [
        Alcotest.test_case "hit/miss accounting" `Quick pool_hit_miss;
        Alcotest.test_case "eviction writes back dirty pages" `Quick pool_eviction_writes_back;
        Alcotest.test_case "exhaustion when all pinned" `Quick pool_exhaustion;
        Alcotest.test_case "flush_all" `Quick pool_flush_all;
        Alcotest.test_case "evicted frames reused safely" `Quick pool_frame_reuse;
      ] );
    ( "wal",
      [
        Alcotest.test_case "memory roundtrip" `Quick wal_roundtrip_memory;
        Alcotest.test_case "file roundtrip" `Quick wal_roundtrip_file;
        Alcotest.test_case "torn tail ignored" `Quick wal_torn_tail_ignored;
        Alcotest.test_case "reset empties" `Quick wal_reset;
        Alcotest.test_case "unsynced appends invisible" `Quick wal_unsynced_not_replayed;
        Alcotest.test_case "pending commits acked by one sync" `Quick wal_pending_commits;
        Alcotest.test_case "reset clears pending commits" `Quick wal_reset_clears_pending;
      ] );
    ( "heap",
      [
        Alcotest.test_case "insert/get/delete" `Quick heap_basic;
        Alcotest.test_case "large records chunk" `Quick heap_large_records;
        Alcotest.test_case "update may move" `Quick heap_update_moves;
        Alcotest.test_case "iter reassembles" `Quick heap_iter;
        Alcotest.test_case "persists across reopen" `Quick heap_persistence;
      ] );
    Tutil.qsuite "heap.props" [ prop_heap_model ];
  ]
