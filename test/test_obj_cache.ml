(* Coherence of the decoded-object cache: the transactional overlay always
   wins, aborts leave the cache untouched, commits invalidate exactly the
   rewritten keys, and recovery never serves a pre-crash entry. *)

module Db = Ode.Database
module Store = Ode.Store
module Value = Ode_model.Value
module Stats = Ode_util.Stats
module Parser = Ode_lang.Parser

let setup ?object_cache () =
  let db = Db.open_in_memory ?object_cache () in
  ignore (Db.define db {|class pt { x: int; y: int; };|});
  Db.create_cluster db "pt";
  db

let mk db n =
  Db.with_txn db (fun txn ->
      List.init n (fun i -> Db.pnew txn "pt" [ ("x", Value.Int i); ("y", Value.Int 0) ]))

(* A committed read warms the cache (header + current-version fields). *)
let warm db oids = List.iter (fun o -> ignore (Store.get_fields db None o)) oids

let read_your_writes () =
  let db = setup () in
  let o = List.hd (mk db 1) in
  warm db [ o ];
  Db.with_txn db (fun txn ->
      Db.set_field txn o "x" (Value.Int 42);
      Tutil.check_bool "txn sees its write over the warm cache" true
        (Db.get_field txn o "x" = Value.Int 42));
  Tutil.check_bool "committed read sees the new value" true
    (Store.get_field db None o "x" = Some (Value.Int 42));
  Db.close db

let abort_leaves_clean () =
  let db = setup () in
  let o = List.hd (mk db 1) in
  warm db [ o ];
  let inv0 = Stats.(get (snapshot ()) "obj_cache_invalidations") in
  let txn = Db.begin_txn db in
  Db.set_field txn o "x" (Value.Int 99);
  Db.abort txn;
  let inv1 = Stats.(get (snapshot ()) "obj_cache_invalidations") in
  Tutil.check_int "abort invalidates nothing" 0 (inv1 - inv0);
  Tutil.check_bool "committed value survives the abort" true
    (Store.get_field db None o "x" = Some (Value.Int 0));
  Db.close db

let commit_invalidates_touched () =
  let db = setup () in
  let oids = mk db 3 in
  warm db oids;
  let a = List.nth oids 0 and b = List.nth oids 1 in
  let inv0 = Stats.(get (snapshot ()) "obj_cache_invalidations") in
  Db.with_txn db (fun txn -> Db.set_field txn a "x" (Value.Int 7));
  let inv1 = Stats.(get (snapshot ()) "obj_cache_invalidations") in
  (* set_field rewrites only the current-version record, so exactly one
     cached key is dropped. *)
  Tutil.check_int "exactly one key invalidated" 1 (inv1 - inv0);
  Tutil.check_bool "touched object reads fresh" true
    (Store.get_field db None a "x" = Some (Value.Int 7));
  let h0 = Stats.(get (snapshot ()) "obj_cache_hits") in
  ignore (Store.get_fields db None b);
  let h1 = Stats.(get (snapshot ()) "obj_cache_hits") in
  Tutil.check_bool "untouched object still served from cache" true (h1 - h0 >= 1);
  Db.close db

let crash_reopen_fresh () =
  let dir = Tutil.temp_dir "ocache" in
  let db = Db.open_ dir in
  ignore (Db.define db {|class pt { x: int; y: int; };|});
  Db.create_cluster db "pt";
  let o = Db.with_txn db (fun txn -> Db.pnew txn "pt" [ ("x", Value.Int 1) ]) in
  warm db [ o ];
  Db.with_txn db (fun txn -> Db.set_field txn o "x" (Value.Int 2));
  Db.crash db;
  let db2 = Db.open_ dir in
  Tutil.check_int "cache empty after recovery" 0 (Ode_util.Slru.length db2.Ode.Types.ocache);
  Tutil.check_bool "reopen reads the committed value" true
    (Store.get_field db2 None o "x" = Some (Value.Int 2));
  Db.close db2

let eviction_bounded () =
  let db = setup ~object_cache:4 () in
  let oids = mk db 50 in
  warm db oids;
  Tutil.check_bool "cache never exceeds its capacity" true
    (Ode_util.Slru.length db.Ode.Types.ocache <= 4);
  (* Evicted entries are just misses, never wrong answers. *)
  List.iteri
    (fun i o ->
      if Store.get_field db None o "x" <> Some (Value.Int i) then
        Alcotest.failf "object %d read wrong value after eviction" i)
    oids;
  Db.close db

let disabled_counts_nothing () =
  let db = setup ~object_cache:0 () in
  let oids = mk db 5 in
  let s0 = Stats.snapshot () in
  warm db oids;
  warm db oids;
  let s1 = Stats.snapshot () in
  Tutil.check_int "no hits when disabled" 0 Stats.(get s1 "obj_cache_hits" - get s0 "obj_cache_hits");
  Tutil.check_int "no misses when disabled" 0
    Stats.(get s1 "obj_cache_misses" - get s0 "obj_cache_misses");
  Tutil.check_int "cache stays empty" 0 (Ode_util.Slru.length db.Ode.Types.ocache);
  Db.close db

let query_workload_hits () =
  let db = setup () in
  ignore (mk db 200);
  let q () =
    Ode.Query.count db ~var:"p" ~cls:"pt" ~suchthat:(Parser.expr "p.x + p.y > 10") ()
  in
  Tutil.check_int "cold count" 189 (q ());
  let h0 = Stats.(get (snapshot ()) "obj_cache_hits") in
  Tutil.check_int "warm count" 189 (q ());
  let h1 = Stats.(get (snapshot ()) "obj_cache_hits") in
  Tutil.check_bool "repeated predicate scan hits the cache" true (h1 - h0 > 0);
  Db.close db

let exists_early_exit () =
  let db = setup () in
  ignore (mk db 500);
  let s0 = Stats.(get (snapshot ()) "objects_scanned") in
  Tutil.check_bool "exists finds a match" true
    (Ode.Query.exists db ~var:"p" ~cls:"pt" ~suchthat:(Parser.expr "p.x == 0") ());
  let s1 = Stats.(get (snapshot ()) "objects_scanned") in
  Tutil.check_int "first-object match scans one object" 1 (s1 - s0);
  Tutil.check_bool "exists with no match is false" false
    (Ode.Query.exists db ~var:"p" ~cls:"pt" ~suchthat:(Parser.expr "p.x == 0 - 1") ());
  Db.close db

let suite =
  [
    ( "obj_cache",
      [
        Alcotest.test_case "read-your-writes in a txn" `Quick read_your_writes;
        Alcotest.test_case "abort leaves cache clean" `Quick abort_leaves_clean;
        Alcotest.test_case "commit invalidates exactly touched keys" `Quick
          commit_invalidates_touched;
        Alcotest.test_case "crash/reopen never serves stale entries" `Quick crash_reopen_fresh;
        Alcotest.test_case "eviction respects capacity" `Quick eviction_bounded;
        Alcotest.test_case "capacity 0 disables the cache" `Quick disabled_counts_nothing;
        Alcotest.test_case "repeated query workload hits" `Quick query_workload_hits;
        Alcotest.test_case "exists exits early" `Quick exists_early_exit;
      ] );
  ]
