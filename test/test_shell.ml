(* The surface-language driver: scripted sessions including the paper's
   worked examples. *)

module Db = Ode.Database
module Shell = Ode.Shell

let session script =
  let db = Db.open_in_memory () in
  let out = Buffer.create 256 in
  let shell = Shell.create ~print:(Buffer.add_string out) db in
  let result = Shell.exec_catching shell script in
  let text = Buffer.contents out in
  Db.close db;
  (result, text)

let expect_output script expected () =
  match session script with
  | Ok (), text -> Tutil.check_string "output" expected text
  | Error msg, _ -> Alcotest.failf "script failed: %s" msg

let expect_error script fragment () =
  match session script with
  | Ok (), _ -> Alcotest.fail "expected an error"
  | Error msg, _ ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        m = 0 || go 0
      in
      if not (contains msg fragment) then Alcotest.failf "error %S lacks %S" msg fragment

let stockitem_example =
  {|
  class supplier { sname: string; city: string; };
  class stockitem {
    name: string; qty: int; price: float; sup: ref supplier;
    constraint positive: qty >= 0;
    method cost(): float = qty * price;
  };
  create cluster supplier;
  create cluster stockitem;
  s := pnew supplier { sname = "att", city = "berkeley hts" };
  i := pnew stockitem { name = "512 dram", qty = 3, price = 5.0, sup = s };
  j := pnew stockitem { name = "256 dram", qty = 100, price = 2.0, sup = s };
  forall x in stockitem suchthat x.qty < 50 { print x.name, x.cost(), x.sup.city; };
  |}

let basics = expect_output stockitem_example "512 dram 15 berkeley hts\n"

let ordering =
  expect_output
    (stockitem_example ^ {| forall x in stockitem by x.qty desc { print x.name; }; |})
    "512 dram 15 berkeley hts\n256 dram\n512 dram\n"

let hierarchy_query =
  expect_output
    (Tutil.university_schema
    ^ {|
      create cluster person; create cluster student; create cluster faculty; create cluster ta;
      pnew person { name = "p", age = 30 };
      pnew student { name = "s", age = 20, gpa = 3.0 };
      pnew faculty { name = "f", age = 50 };
      total := 0;
      forall x in person* { total := total + x.age; };
      print total;
      forall x in person* suchthat x is faculty { print x.describe(); };
      |})
    "100\nfaculty f\n"

let txn_control =
  expect_output
    {|
    class t { v: int; };
    create cluster t;
    begin;
    pnew t { v = 1 };
    abort;
    begin;
    pnew t { v = 2 };
    commit;
    forall x in t { print x.v; };
    |}
    "2\n"

let constraint_error =
  expect_error
    {|
    class c { q: int; constraint pos: q >= 0; };
    create cluster c;
    pnew c { q = 0-1 };
    |}
    "constraint c.pos violated"

let explain_statement =
  expect_output
    {|
    class e { f: int; };
    create cluster e;
    create index on e(f);
    explain forall x in e suchthat x.f == 3;
    explain forall x in e;
    |}
    ("index probe e(f) = 3 \xe2\x80\x94 est ~50 rows, cost ~208 (heuristic)\n"
    ^ "full scan of cluster e \xe2\x80\x94 est ~1000 rows, cost ~1000 (heuristic)\n")

let insert_remove_sets =
  expect_output
    {|
    class bag { items: set<string>; };
    create cluster bag;
    b := pnew bag { };
    insert "x" into b.items;
    insert "y" into b.items;
    insert "x" into b.items;
    print size(b.items);
    remove "x" from b.items;
    print b.items, "y" in b.items;
    |}
    "2\n{\"y\"} true\n"

let if_else_and_vars =
  expect_output
    {|
    x := 3;
    if (x > 2) { print "big"; } else { print "small"; };
    y := x * 2 + 1;
    print y, min(y, 5);
    |}
    "big\n7 5\n"

let parse_error_reported = expect_error "class { broken" "error"
let unknown_class_reported = expect_error "pnew ghost { };" "unknown class ghost"
let no_cluster_hint = expect_error "class nc { v: int; }; pnew nc { };" "create cluster nc"

let show_classes =
  expect_output
    {|
    class a { v: int; };
    class b : a { w: int; };
    create cluster a;
    show classes;
    |}
    "class a  [cluster]\nclass b : a\n"

let shell_vars_tracked () =
  let db = Db.open_in_memory () in
  let shell = Shell.create ~print:ignore db in
  (match Shell.exec_catching shell "class v { x: int; }; create cluster v; q := pnew v { x = 1 }; n := 5;" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "script failed: %s" e);
  let vars = Shell.vars shell in
  Tutil.check_bool "n bound" true (List.assoc_opt "n" vars = Some (Ode_model.Value.Int 5));
  Tutil.check_bool "q bound to a ref" true
    (match List.assoc_opt "q" vars with Some (Ode_model.Value.Ref _) -> true | _ -> false);
  Db.close db

(* A runtime error is rendered without a prefix of its own, so the shell
   (locally) and the remote client (over the wire) each print "error: "
   exactly once. *)
let eval_error_prefixed_once () =
  let script =
    "class p { a: int; }; create cluster p; pnew p { a = 1 }; forall x in p { print x.b; };"
  in
  let expected = "object #0:0 has no field b" in
  (match session script with
  | Error msg, _ -> Tutil.check_string "local" expected msg
  | Ok (), _ -> Alcotest.fail "expected an error");
  let db = Db.open_in_memory () in
  let s = Ode_served.Session.create db in
  (match
     (Ode_served.Session.handle s { rq_id = 1; rq_trace = 0; rq_op = Exec script })
       .rs_reply
   with
  | Error msg -> Tutil.check_string "wire" expected msg
  | _ -> Alcotest.fail "expected an error reply");
  Ode_served.Session.close s;
  Db.close db

let bank_script_runs () =
  let path = "../examples/scripts/bank.oql" in
  if not (Sys.file_exists path) then Alcotest.skip ()
  else begin
    let source = In_channel.with_open_text path In_channel.input_all in
    match session source with
    | Ok (), text ->
        Tutil.check_bool "produces the report" true
          (String.length text > 0
          && List.exists
               (fun line -> line = "total deposits: 1520 across 3 accounts")
               (String.split_on_char '\n' text))
    | Error msg, _ -> Alcotest.failf "bank.oql failed: %s" msg
  end

(* The forall argument of [Query] requests and [.explain]/[.profile]: with
   or without a body and a final ';', and one error message for anything
   else. *)
let forall_query_forms () =
  let db = Db.open_in_memory () in
  let shell = Shell.create ~print:ignore db in
  (match Shell.exec_catching shell stockitem_example with Ok () -> () | Error e -> Alcotest.fail e);
  let query q = match Shell.query_rows shell q with Ok rows -> Ok (List.length rows) | Error e -> Error e in
  let check name expect q = Alcotest.(check (result int string)) name expect (query q) in
  let refused = Error "expected: forall x in C [suchthat e] [by e [desc]] [{ body }]" in
  check "bodiless" (Ok 1) "forall x in stockitem suchthat x.qty < 50";
  check "final semicolon" (Ok 2) "  forall x in stockitem by x.qty desc;  ";
  check "explain prefix" (Ok 2) "explain forall x in stockitem;";
  check "body refused" (Error "query takes a bodiless forall (use exec for loops)")
    "forall x in stockitem { print x.name; }";
  check "missing in" refused "forall x stockitem";
  check "trailing statement" refused "forall x in stockitem; print 1;";
  check "not a forall" refused "print 1;";
  check "empty" (Error "expected a forall query (see .help)") " ";
  let explain q = Option.get (Shell.dot_command shell (".explain " ^ q)) in
  Tutil.check_string "explain with body" (explain "forall x in stockitem suchthat x.qty < 50")
    (explain "forall x in stockitem suchthat x.qty < 50 { print x.name; };");
  Db.close db

let suite =
  [
    ( "shell",
      [
        Alcotest.test_case "stockitem example" `Quick basics;
        Alcotest.test_case "by ordering" `Quick ordering;
        Alcotest.test_case "hierarchy queries and is" `Quick hierarchy_query;
        Alcotest.test_case "begin/abort/commit" `Quick txn_control;
        Alcotest.test_case "constraint violations reported" `Quick constraint_error;
        Alcotest.test_case "explain" `Quick explain_statement;
        Alcotest.test_case "set insert/remove" `Quick insert_remove_sets;
        Alcotest.test_case "if/else and variables" `Quick if_else_and_vars;
        Alcotest.test_case "parse errors reported" `Quick parse_error_reported;
        Alcotest.test_case "unknown class reported" `Quick unknown_class_reported;
        Alcotest.test_case "missing cluster hint" `Quick no_cluster_hint;
        Alcotest.test_case "show classes" `Quick show_classes;
        Alcotest.test_case "shell variables tracked" `Quick shell_vars_tracked;
        Alcotest.test_case "bank.oql example script" `Quick bank_script_runs;
        Alcotest.test_case "runtime error prefixed once" `Quick eval_error_prefixed_once;
        Alcotest.test_case "forall query forms" `Quick forall_query_forms;
      ] );
  ]
