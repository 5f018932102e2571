(* Persistence by instance, transactions, constraints and the object API. *)

module Db = Ode.Database
module Value = Ode_model.Value
module Oid = Ode_model.Oid
open Ode.Types

let str s = Value.Str s
let int n = Value.Int n

let pnew_and_read () =
  let db = Tutil.open_university () in
  let oid =
    Db.with_txn db (fun txn ->
        Db.pnew txn "student" [ ("name", str "ann"); ("age", int 20); ("gpa", Value.Float 3.5) ])
  in
  Db.with_txn db (fun txn ->
      Tutil.check_value "name" (str "ann") (Db.get_field txn oid "name");
      Tutil.check_value "default income" (int 0) (Db.get_field txn oid "income");
      Tutil.check_value "gpa" (Value.Float 3.5) (Db.get_field txn oid "gpa");
      let fields = Option.get (Db.get txn oid) in
      Tutil.check_int "all fields incl. inherited" 4 (List.length fields));
  Db.close db

let pnew_requires_cluster () =
  let db = Db.open_in_memory () in
  ignore (Db.define db "class lone { x: int; };");
  Db.with_txn db (fun txn ->
      match Db.pnew txn "lone" [] with
      | _ -> Alcotest.fail "expected No_cluster"
      | exception Ode.Store.No_cluster "lone" -> ());
  Db.close db

let pnew_type_checks () =
  let db = Tutil.open_university () in
  Db.with_txn db (fun txn ->
      (match Db.pnew txn "person" [ ("age", str "old") ] with
      | _ -> Alcotest.fail "wrong type accepted"
      | exception Ode.Store.Type_error _ -> ());
      (match Db.pnew txn "person" [ ("ghost", int 1) ] with
      | _ -> Alcotest.fail "unknown field accepted"
      | exception Ode.Store.Type_error _ -> ());
      (* int into float field is fine (promotion). *)
      ignore (Db.pnew txn "student" [ ("gpa", int 3) ]));
  Db.close db

let ref_fields_check_class () =
  let db = Db.open_in_memory () in
  ignore
    (Db.define db
       "class dept { title: string; }; class emp { name: string; d: ref dept; };");
  Db.create_cluster db "dept";
  Db.create_cluster db "emp";
  Db.with_txn db (fun txn ->
      let d = Db.pnew txn "dept" [ ("title", str "cs") ] in
      let e = Db.pnew txn "emp" [ ("name", str "bo"); ("d", Value.Ref d) ] in
      (* Wrong class ref rejected. *)
      (match Db.set_field txn e "d" (Value.Ref e) with
      | _ -> Alcotest.fail "emp is not a dept"
      | exception Ode.Store.Type_error _ -> ());
      (* Null allowed for refs. *)
      Db.set_field txn e "d" Value.Null;
      Tutil.check_value "nulled" Value.Null (Db.get_field txn e "d"));
  Db.close db

let update_and_delete () =
  let db = Tutil.open_university () in
  let oid = Db.with_txn db (fun txn -> Db.pnew txn "person" [ ("name", str "joe") ]) in
  Db.with_txn db (fun txn ->
      Db.update txn oid [ ("age", int 31); ("income", int 100) ];
      Tutil.check_value "updated" (int 31) (Db.get_field txn oid "age"));
  Db.with_txn db (fun txn -> Db.pdelete txn oid);
  Db.with_txn db (fun txn ->
      Tutil.check_bool "gone" true (Db.get txn oid = None);
      match Db.set_field txn oid "age" (int 1) with
      | _ -> Alcotest.fail "update of deleted object"
      | exception Ode.Store.Type_error _ -> ());
  Db.close db

let abort_discards () =
  let db = Tutil.open_university () in
  let txn = Db.begin_txn db in
  let oid = Db.pnew txn "person" [ ("name", str "ghost") ] in
  Db.abort txn;
  Db.with_txn db (fun txn2 ->
      Tutil.check_bool "never existed" false (Db.exists db ~txn:txn2 oid));
  Db.close db

let txn_sees_own_writes () =
  let db = Tutil.open_university () in
  Db.with_txn db (fun txn ->
      let oid = Db.pnew txn "person" [ ("name", str "me"); ("age", int 1) ] in
      Db.set_field txn oid "age" (int 2);
      Tutil.check_value "read-your-writes" (int 2) (Db.get_field txn oid "age");
      Db.pdelete txn oid;
      Tutil.check_bool "deleted in txn" false (Db.exists db ~txn oid));
  Db.close db

let concurrent_txns () =
  let db = Tutil.open_university () in
  (* Two explicit transactions open at once, each on its own snapshot. *)
  let t1 = Db.begin_txn db in
  let t2 = Db.begin_txn db in
  let oid = Db.pnew t1 "person" [ ("name", str "early"); ("age", int 30) ] in
  Db.commit t1;
  (* t2's snapshot predates t1's commit: the new object is invisible. *)
  Tutil.check_bool "snapshot isolation" false (Db.exists db ~txn:t2 oid);
  (* ... but a fresh transaction sees it. *)
  let t3 = Db.begin_txn db in
  Tutil.check_bool "later snapshot sees it" true (Db.exists db ~txn:t3 oid);
  Db.abort t3;
  (* t2 can still commit disjoint writes. *)
  let oid2 = Db.pnew t2 "person" [ ("name", str "late"); ("age", int 40) ] in
  Db.commit t2;
  Db.with_txn db (fun txn ->
      Tutil.check_bool "both commits landed" true
        (Db.exists db ~txn oid && Db.exists db ~txn oid2));
  Db.close db

let first_committer_wins () =
  let db = Tutil.open_university () in
  let oid =
    Db.with_txn db (fun txn -> Db.pnew txn "person" [ ("name", str "c"); ("age", int 1) ])
  in
  let ta = Db.begin_txn db in
  let tb = Db.begin_txn db in
  Db.set_field ta oid "age" (int 2);
  Db.set_field tb oid "age" (int 3);
  Db.commit ta;
  (match Db.commit tb with
  | () -> Alcotest.fail "conflicting commit succeeded"
  | exception Txn_conflict _ -> ());
  (* Exactly one winner: the first committer's write is the state. *)
  Db.with_txn db (fun txn ->
      Tutil.check_value "winner's write" (int 2) (Db.get_field txn oid "age"));
  (* The loser's transaction is gone; a replay succeeds. *)
  Db.with_txn db (fun txn -> Db.set_field txn oid "age" (int 3));
  Db.with_txn db (fun txn ->
      Tutil.check_value "replay landed" (int 3) (Db.get_field txn oid "age"));
  Db.close db

let constraint_violation_aborts () =
  let db = Tutil.open_university () in
  (* gpa constraint: 0.0 <= gpa <= 4.0 *)
  (match
     Db.with_txn db (fun txn ->
         ignore (Db.pnew txn "student" [ ("name", str "bad"); ("gpa", Value.Float 9.0) ]))
   with
  | _ -> Alcotest.fail "violation not raised"
  | exception Constraint_violation { cls = "student"; cname = "gpa_range"; _ } -> ());
  (* The whole transaction rolled back, including unrelated writes. *)
  let n =
    Db.with_txn db (fun _ -> Ode.Query.count db ~var:"x" ~cls:"student" ())
  in
  Tutil.check_int "nothing persisted" 0 n;
  (* Violation via update too. *)
  let oid =
    Db.with_txn db (fun txn -> Db.pnew txn "student" [ ("name", str "ok"); ("gpa", Value.Float 3.0) ])
  in
  (match Db.with_txn db (fun txn -> Db.set_field txn oid "gpa" (Value.Float (-1.0))) with
  | _ -> Alcotest.fail "update violation not raised"
  | exception Constraint_violation _ -> ());
  Db.with_txn db (fun txn ->
      Tutil.check_value "old value preserved" (Value.Float 3.0) (Db.get_field txn oid "gpa"));
  Db.close db

let constraint_inherited_from_parent () =
  let db = Db.open_in_memory () in
  ignore
    (Db.define db
       {|class account { balance: int; constraint solvent: balance >= 0; };
         class savings : account { rate: float; };|});
  Db.create_cluster db "account";
  Db.create_cluster db "savings";
  (match
     Db.with_txn db (fun txn -> ignore (Db.pnew txn "savings" [ ("balance", int (-5)) ]))
   with
  | _ -> Alcotest.fail "inherited constraint not checked"
  | exception Constraint_violation { cls = "savings"; cname = "solvent"; _ } -> ());
  Db.close db

let methods_dispatch_dynamically () =
  let db = Tutil.open_university () in
  Db.with_txn db (fun txn ->
      let p = Db.pnew txn "person" [ ("name", str "p") ] in
      let f = Db.pnew txn "faculty" [ ("name", str "f") ] in
      Tutil.check_value "base" (str "person p") (Db.call txn p "describe" []);
      Tutil.check_value "derived" (str "faculty f") (Db.call txn f "describe" []));
  Db.close db

let is_instance_tests () =
  let db = Tutil.open_university () in
  Db.with_txn db (fun txn ->
      let s = Db.pnew txn "student" [ ("name", str "s") ] in
      Tutil.check_bool "is person" true (Db.is_instance db s "person");
      Tutil.check_bool "is student" true (Db.is_instance db s "student");
      Tutil.check_bool "not faculty" false (Db.is_instance db s "faculty");
      (* The surface operator goes through eval. *)
      Tutil.check_value "is operator" (Value.Bool true)
        (Db.eval txn ~vars:[ ("s", Value.Ref s) ] (Ode_lang.Parser.expr "s is person")));
  Db.close db

let roots_persist () =
  let dir = Tutil.temp_dir "roots" in
  let db = Db.open_ dir in
  ignore (Db.define db "class cfg { v: int; };");
  Db.create_cluster db "cfg";
  let oid =
    Db.with_txn db (fun txn ->
        let oid = Db.pnew txn "cfg" [ ("v", int 7) ] in
        Db.set_root txn "config" (Value.Ref oid);
        Db.set_root txn "greeting" (str "hi");
        oid)
  in
  Db.close db;
  let db2 = Db.open_ dir in
  Db.with_txn db2 (fun txn ->
      Tutil.check_value "ref root" (Value.Ref oid) (Db.root_exn txn "config");
      Tutil.check_value "str root" (str "hi") (Db.root_exn txn "greeting");
      Tutil.check_bool "missing root" true (Db.root txn "nope" = None));
  Db.close db2

let ddl_rejected_inside_txn () =
  let db = Tutil.open_university () in
  let txn = Db.begin_txn db in
  (match Db.define db "class x { a: int; };" with
  | _ -> Alcotest.fail "DDL inside txn allowed"
  | exception Invalid_argument _ -> ());
  Db.abort txn;
  Db.close db

let bad_method_body_rolls_back_class () =
  let db = Db.open_in_memory () in
  (match Db.define db "class broken { q: int; method m(): string = q + 1; };" with
  | _ -> Alcotest.fail "expected type error"
  | exception Ode_model.Typecheck.Error _ -> ());
  (* The class must not linger half-defined. *)
  Tutil.check_bool "not registered" true
    (Ode_model.Catalog.find (Db.catalog db) "broken" = None);
  ignore (Db.define db "class broken { q: int; };");
  Db.close db

(* A DBDIR that is a regular file is refused up front, with a message that
   says so, rather than failing deep inside the WAL open. *)
let file_as_dbdir_rejected () =
  let path = Filename.concat (Tutil.temp_dir "dbfile") "plain" in
  Out_channel.with_open_bin path (fun oc -> output_string oc "not a database");
  match Db.open_ path with
  | db ->
      Db.close db;
      Alcotest.fail "a regular file must not open as a database"
  | exception Sys_error msg ->
      Tutil.check_string "message" (path ^ ": not a directory") msg

let suite =
  [
    ( "database",
      [
        Alcotest.test_case "pnew and read with defaults" `Quick pnew_and_read;
        Alcotest.test_case "pnew requires a cluster" `Quick pnew_requires_cluster;
        Alcotest.test_case "pnew type-checks values" `Quick pnew_type_checks;
        Alcotest.test_case "ref fields check target class" `Quick ref_fields_check_class;
        Alcotest.test_case "update and delete" `Quick update_and_delete;
        Alcotest.test_case "abort discards everything" `Quick abort_discards;
        Alcotest.test_case "read-your-writes" `Quick txn_sees_own_writes;
        Alcotest.test_case "concurrent transactions" `Quick concurrent_txns;
        Alcotest.test_case "first committer wins" `Quick first_committer_wins;
        Alcotest.test_case "constraint violation aborts txn" `Quick constraint_violation_aborts;
        Alcotest.test_case "constraints inherit" `Quick constraint_inherited_from_parent;
        Alcotest.test_case "dynamic method dispatch" `Quick methods_dispatch_dynamically;
        Alcotest.test_case "is-instance tests" `Quick is_instance_tests;
        Alcotest.test_case "named roots persist" `Quick roots_persist;
        Alcotest.test_case "DDL rejected inside txn" `Quick ddl_rejected_inside_txn;
        Alcotest.test_case "failed class definition rolls back" `Quick bad_method_body_rolls_back_class;
        Alcotest.test_case "regular file as DBDIR rejected" `Quick file_as_dbdir_rejected;
      ] );
  ]
