(* Observability: the span tracer, latency histograms, the Stats registry,
   and per-query EXPLAIN ANALYZE profiling. Trace and Histogram are
   process-global, so every test restores the defaults (tracing off and
   cleared, histograms on) before returning. *)

module Trace = Ode_util.Trace
module Histogram = Ode_util.Histogram
module Stats = Ode_util.Stats
module Db = Ode.Database
module Shell = Ode.Shell
module Query = Ode.Query

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_contains what s sub =
  if not (contains s sub) then Alcotest.failf "%s: %S lacks %S" what s sub

let with_tracing f =
  Trace.clear ();
  Trace.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ();
      Histogram.set_enabled true)

(* -- tracer ---------------------------------------------------------------- *)

let span_nesting () =
  with_tracing @@ fun () ->
  let r =
    Trace.with_span "outer" (fun () ->
        Trace.instant ~cat:"t" "tick";
        Trace.with_span "inner" (fun () -> 42))
  in
  Alcotest.(check int) "with_span returns" 42 r;
  match Trace.spans () with
  | [ tick; inner; outer ] ->
      (* spans record at completion, so innermost-first *)
      Alcotest.(check string) "first" "tick" tick.Trace.sp_name;
      Alcotest.(check string) "second" "inner" inner.Trace.sp_name;
      Alcotest.(check string) "third" "outer" outer.Trace.sp_name;
      Alcotest.(check int) "tick depth" 1 tick.Trace.sp_depth;
      Alcotest.(check int) "inner depth" 1 inner.Trace.sp_depth;
      Alcotest.(check int) "outer depth" 0 outer.Trace.sp_depth;
      assert (tick.Trace.sp_phase = Trace.Instant);
      assert (inner.Trace.sp_phase = Trace.Complete);
      (* the outer span covers the inner one *)
      assert (outer.Trace.sp_start_ns <= inner.Trace.sp_start_ns);
      assert (
        outer.Trace.sp_start_ns + outer.Trace.sp_dur_ns
        >= inner.Trace.sp_start_ns + inner.Trace.sp_dur_ns)
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let span_exception_safe () =
  with_tracing @@ fun () ->
  (try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  match Trace.spans () with
  | [ s ] ->
      Alcotest.(check string) "recorded on raise" "boom" s.Trace.sp_name;
      Alcotest.(check int) "depth restored" 0 s.Trace.sp_depth
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let ring_wraparound () =
  with_tracing @@ fun () ->
  let cap0 = Trace.capacity () in
  Fun.protect
    (fun () ->
      Trace.set_capacity 4;
      for i = 1 to 10 do
        Trace.instant (Printf.sprintf "e%d" i)
      done;
      Alcotest.(check int) "total includes overwritten" 10 (Trace.total_recorded ());
      let names = List.map (fun s -> s.Trace.sp_name) (Trace.spans ()) in
      Alcotest.(check (list string)) "last 4, oldest first" [ "e7"; "e8"; "e9"; "e10" ] names)
    ~finally:(fun () -> Trace.set_capacity cap0)

(* Seeded multi-domain stress: four domains blast spans through a small
   ring (forcing wraparound) under distinct ambient trace ids. Span ids
   must stay unique across domains and every span must carry its emitting
   domain's trace id — the invariants `.trace dump` correlation rests on. *)
let concurrent_span_ids () =
  with_tracing @@ fun () ->
  let cap0 = Trace.capacity () in
  Fun.protect ~finally:(fun () -> Trace.set_capacity cap0) @@ fun () ->
  Trace.set_capacity 512;
  let per_domain = 400 in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            Trace.with_trace_id (1000 + d) (fun () ->
                for i = 1 to per_domain do
                  if i mod 3 = 0 then Trace.instant (Printf.sprintf "d%d.i%d" d i)
                  else Trace.with_span (Printf.sprintf "d%d.s%d" d i) (fun () -> ())
                done)))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "total counts overwritten" (4 * per_domain) (Trace.total_recorded ());
  let spans = Trace.spans () in
  Alcotest.(check int) "ring holds exactly capacity" 512 (List.length spans);
  let ids = List.map (fun s -> s.Trace.sp_id) spans in
  let tbl = Hashtbl.create 1024 in
  List.iter (fun id -> Hashtbl.replace tbl id ()) ids;
  Alcotest.(check int) "span ids unique across domains" (List.length ids) (Hashtbl.length tbl);
  List.iter
    (fun s ->
      let d = s.Trace.sp_trace - 1000 in
      if d < 0 || d > 3 then Alcotest.failf "span %s has trace %d" s.Trace.sp_name s.Trace.sp_trace;
      check_contains "trace id matches emitting domain" s.Trace.sp_name
        (Printf.sprintf "d%d." d))
    spans

let disabled_noop () =
  Trace.clear ();
  Trace.set_enabled false;
  let r = Trace.with_span "ghost" (fun () -> Trace.instant "ghost2"; 7) in
  Alcotest.(check int) "thunk still runs" 7 r;
  Alcotest.(check int) "nothing retained" 0 (List.length (Trace.spans ()));
  Alcotest.(check int) "nothing counted" 0 (Trace.total_recorded ())

let chrome_json () =
  with_tracing @@ fun () ->
  Trace.with_span ~cat:"demo" ~args:[ ("k", "v\"q") ] "work" (fun () -> ());
  Trace.instant "mark";
  let j = Trace.to_chrome_json () in
  check_contains "doc" j "\"traceEvents\"";
  check_contains "complete event" j "\"ph\":\"X\"";
  check_contains "instant event" j "\"ph\":\"i\"";
  check_contains "escaped arg" j "v\\\"q";
  let path = Filename.temp_file "ode_trace" ".json" in
  Fun.protect
    (fun () ->
      Trace.dump path;
      let written = In_channel.with_open_text path In_channel.input_all in
      Alcotest.(check string) "dump writes to_chrome_json" j written)
    ~finally:(fun () -> Sys.remove path)

(* -- histograms ------------------------------------------------------------ *)

let histogram_buckets () =
  List.iter
    (fun (ns, want) ->
      Alcotest.(check int) (Printf.sprintf "bucket(%d)" ns) want (Histogram.bucket_index ns))
    [ (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (1023, 9); (1024, 10) ]

let histogram_percentiles () =
  let h = Histogram.create "test.obs.percentiles" in
  Histogram.reset h;
  for _ = 1 to 90 do
    Histogram.observe h 10
  done;
  for _ = 1 to 10 do
    Histogram.observe h 100_000
  done;
  Alcotest.(check int) "count" 100 (Histogram.count h);
  Alcotest.(check int) "max" 100_000 (Histogram.max_ns h);
  (* 10ns lands in bucket [8,15]: the p50 estimate is that bucket's upper
     bound; the tail percentiles clamp to the observed max. *)
  Alcotest.(check int) "p50" 15 (Histogram.percentile h 50.0);
  Alcotest.(check int) "p95" 100_000 (Histogram.percentile h 95.0);
  Alcotest.(check int) "p99" 100_000 (Histogram.percentile h 99.0);
  let mean = Histogram.mean_ns h in
  assert (mean > 10_000.0 && mean < 11_000.0);
  check_contains "summary row" (Histogram.summary ()) "test.obs.percentiles";
  Histogram.reset h

(* Regression for the cross-domain `.metrics reset` race: draining
   snapshots (snapshot ~reset) while other domains observe concurrently
   must neither lose nor double-count a sample — each observation lands in
   exactly one drained snapshot or the final residue. *)
let histogram_concurrent_drain () =
  let h = Histogram.create "test.obs.drain" in
  Histogram.reset h;
  let n_per = 20_000 in
  let writers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to n_per do
              Histogram.observe h i
            done))
  in
  let drained = ref 0 in
  for _ = 1 to 50 do
    let r = Histogram.snapshot ~reset:true h in
    drained := !drained + r.Histogram.r_count
  done;
  List.iter Domain.join writers;
  let final = Histogram.snapshot ~reset:true h in
  Alcotest.(check int) "no sample lost or double-counted" (3 * n_per)
    (!drained + final.Histogram.r_count)

let histogram_time_disabled () =
  let h = Histogram.create "test.obs.disabled" in
  Histogram.reset h;
  Histogram.set_enabled false;
  Fun.protect
    (fun () ->
      let r = Histogram.time h (fun () -> 3) in
      Alcotest.(check int) "thunk runs" 3 r;
      Alcotest.(check int) "nothing recorded" 0 (Histogram.count h))
    ~finally:(fun () -> Histogram.set_enabled true)

(* -- stats registry -------------------------------------------------------- *)

let stats_registry () =
  let pages_read = Stats.counter "pages_read" and index_probes = Stats.counter "index_probes" in
  let before = Stats.snapshot () in
  Stats.incr pages_read;
  Stats.incr index_probes;
  Stats.incr index_probes;
  let after = Stats.snapshot () in
  let d = Stats.diff after before in
  Alcotest.(check int) "accessor sees delta" 1 (Stats.get d "pages_read");
  Alcotest.(check int) "get by name" 1 (Stats.get d "pages_read");
  Alcotest.(check int) "probes" 2 (Stats.get d "index_probes");
  Alcotest.(check int) "unknown name" 0 (Stats.get d "no_such_counter");
  let names = List.map fst (Stats.to_list d) in
  Alcotest.(check (list string)) "to_list follows registration order" (Stats.registered ()) names;
  (* pp is derived from the registry: every workload counter appears *)
  let pp = Fmt.str "%a" Stats.pp d in
  check_contains "pp" pp "pages_read 1";
  check_contains "pp" pp "index_probes 2";
  let z = Stats.zero () in
  Stats.accum ~into:z after before;
  Alcotest.(check int) "accum" 1 (Stats.get z "pages_read")

(* Two modules that bump one counter both declare it (the B+tree and the
   hash index both count index probes): a later declaration returns the
   first one's slot, so bumps through either handle land in one entry and
   the exposition types the name once. Declaring the name with another
   group or kind is a programming error. *)
let counter_same_name () =
  let a = Stats.counter "index_probes" and b = Stats.counter "index_probes" in
  let before = Stats.snapshot () in
  Stats.incr a;
  Stats.add b 2;
  let d = Stats.diff (Stats.snapshot ()) before in
  Alcotest.(check (list int)) "both bumps in one entry" [ 3 ]
    (List.filter_map (fun (n, v) -> if n = "index_probes" then Some v else None) (Stats.to_list d));
  let types =
    String.split_on_char '\n' (Ode_util.Metrics.prometheus ())
    |> List.filter (String.starts_with ~prefix:"# TYPE ode_index_probes ")
  in
  Alcotest.(check (list string)) "one TYPE line" [ "# TYPE ode_index_probes counter" ] types;
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "other group raises" true
    (raises (fun () -> Stats.counter ~group:Stats.Recovery "index_probes"));
  Alcotest.(check bool) "other kind raises" true
    (raises (fun () -> Stats.counter ~kind:Stats.Gauge "index_probes"))

(* Every counter the test binary links, with its group and kind, against
   the committed [test/counters.expected]: moving a declaration between
   modules must not rename, regroup or drop a counter. The group is read
   back through [pp_recovery], which prints exactly the recovery slots. *)
let counter_registry_golden () =
  let here = Filename.dirname Sys.executable_name in
  let expected =
    In_channel.with_open_text (Filename.concat here "counters.expected") In_channel.input_all
  in
  let recovery = String.split_on_char ' ' (Fmt.str "%a" Stats.pp_recovery (Stats.snapshot ())) in
  let line name =
    Printf.sprintf "%s %s %s\n" name
      (if List.mem name recovery then "recovery" else "workload")
      (match Stats.kind_of name with Stats.Counter -> "counter" | Stats.Gauge -> "gauge")
  in
  let actual = String.concat "" (List.map line (List.sort compare (Stats.registered ()))) in
  Alcotest.(check string) "registered counters" expected actual

(* -- metrics exposition ---------------------------------------------------- *)

let prometheus_exposition () =
  let h = Histogram.create "test.obs.expo" in
  Histogram.reset h;
  Histogram.observe h 1000;
  Histogram.observe h 2000;
  Stats.register_gauge "test.gauge_ok" (fun () -> 42);
  Stats.register_gauge "test.gauge_raises" (fun () -> failwith "sampler died");
  Fun.protect
    ~finally:(fun () ->
      Stats.unregister_gauge "test.gauge_ok";
      Stats.unregister_gauge "test.gauge_raises";
      Histogram.reset h)
  @@ fun () ->
  let text = Ode_util.Metrics.prometheus () in
  check_contains "sampled gauge" text "ode_test_gauge_ok 42";
  check_contains "raising sampler reads 0" text "ode_test_gauge_raises 0";
  check_contains "counter TYPE" text "# TYPE ode_server_requests counter";
  check_contains "lag slot is a gauge" text "# TYPE ode_repl_lag_commits gauge";
  check_contains "histogram p50" text "ode_test_obs_expo_ns{quantile=\"0.5\"}";
  check_contains "histogram p95" text "ode_test_obs_expo_ns{quantile=\"0.95\"}";
  check_contains "histogram p99" text "ode_test_obs_expo_ns{quantile=\"0.99\"}";
  check_contains "histogram sum" text "ode_test_obs_expo_ns_sum 3000";
  check_contains "histogram count" text "ode_test_obs_expo_ns_count 2";
  (* Parseability: every non-comment line is `name[{labels}] value` with a
     numeric value — the contract a Prometheus scraper relies on. *)
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.rindex_opt line ' ' with
           | None -> Alcotest.failf "unparseable exposition line %S" line
           | Some i -> (
               let v = String.sub line (i + 1) (String.length line - i - 1) in
               match float_of_string_opt v with
               | Some _ -> ()
               | None -> Alcotest.failf "non-numeric value in %S" line))

let metrics_json_shape () =
  Stats.register_gauge "test.gauge_json" (fun () -> 7)
  ;
  Fun.protect ~finally:(fun () -> Stats.unregister_gauge "test.gauge_json") @@ fun () ->
  let j = Ode_util.Metrics.json () in
  check_contains "counters object" j "\"counters\":{";
  check_contains "gauges object" j "\"gauges\":{";
  check_contains "histograms object" j "\"histograms\":{";
  check_contains "gauge value" j "\"test.gauge_json\":7";
  check_contains "request histogram" j "\"server.request\":{"

(* Satellite: `.stats` output is name-sorted, not registration-ordered, so
   fresh-open and post-recovery sessions print comparable reports. *)
let stats_sorted_output () =
  let pp = Fmt.str "%a" Stats.pp (Stats.snapshot ()) in
  let is_number tok = tok <> "" && float_of_string_opt tok <> None in
  let names =
    String.split_on_char ' ' pp
    |> List.filter (fun tok -> tok <> "" && not (is_number tok))
  in
  if List.length names < 10 then Alcotest.failf "suspiciously few counters in %S" pp;
  Alcotest.(check (list string)) "names sorted" (List.sort compare names) names

(* -- slow-query log -------------------------------------------------------- *)

let slowlog_basics () =
  let dir = Tutil.temp_dir "ode-slowlog" in
  let path = Filename.concat dir "slow.log" in
  Ode_util.Slowlog.configure ~log_path:path ~log_max_bytes:4096 ~keep:4 ~threshold_ms:5 ();
  Fun.protect ~finally:(fun () -> Ode_util.Slowlog.disarm ()) @@ fun () ->
  Alcotest.(check bool) "armed" true (Ode_util.Slowlog.armed ());
  Alcotest.(check int) "threshold in ns" 5_000_000 (Ode_util.Slowlog.threshold_ns ());
  for i = 1 to 6 do
    Ode_util.Slowlog.record ~dur_ns:(i * 1000) (Printf.sprintf "{\"n\":%d}" i)
  done;
  (* the ring keeps the newest [keep]; [worst] sorts by duration, worst
     first *)
  Alcotest.(check int) "retained" 4 (Ode_util.Slowlog.retained ());
  Alcotest.(check (list string))
    "worst first" [ "{\"n\":6}"; "{\"n\":5}" ]
    (Ode_util.Slowlog.worst 2);
  (* the file keeps everything, one JSON line per entry *)
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Alcotest.(check int) "file lines" 6 (List.length lines);
  Alcotest.(check string) "first line" "{\"n\":1}" (List.hd lines);
  (* rotation: push past the byte cap; the old generation lands in .1 *)
  Ode_util.Slowlog.record ~dur_ns:1
    (Printf.sprintf "{\"pad\":\"%s\"}" (String.make 4200 'x'));
  Ode_util.Slowlog.record ~dur_ns:1 "{\"after\":1}";
  Alcotest.(check bool) "rotated generation exists" true (Sys.file_exists (path ^ ".1"));
  let fresh = In_channel.with_open_text path In_channel.input_lines in
  Alcotest.(check (list string)) "fresh file holds post-rotation entry" [ "{\"after\":1}" ] fresh;
  (* disarm drops the threshold back to never *)
  Ode_util.Slowlog.disarm ();
  Alcotest.(check bool) "disarmed" false (Ode_util.Slowlog.armed ())

(* -- EXPLAIN ANALYZE ------------------------------------------------------- *)

let stockitem_db () =
  let db = Db.open_in_memory () in
  let shell = Shell.create ~print:(fun _ -> ()) db in
  (match
     Shell.exec_catching shell
       {|
       class supplier { sname: string; city: string; };
       class stockitem { name: string; qty: int; price: float; sup: ref supplier; };
       create cluster supplier;
       create cluster stockitem;
       s := pnew supplier { sname = "att", city = "berkeley hts" };
       i := pnew stockitem { name = "512 dram", qty = 3, price = 5.0, sup = s };
       j := pnew stockitem { name = "256 dram", qty = 100, price = 2.0, sup = s };
       |}
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "setup failed: %s" msg);
  (db, shell)

let reorder_suchthat () =
  match Ode_lang.Parser.program "explain forall x in stockitem suchthat x.qty < 50;" with
  | [ Ode_lang.Ast.TExplain f ] -> f.Ode_lang.Ast.q_suchthat
  | _ -> Alcotest.fail "unexpected parse"

let profile_attribution () =
  let db, _shell = stockitem_db () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  let pf =
    Query.profile db ~var:"x" ~cls:"stockitem" ?suchthat:(reorder_suchthat ()) ()
  in
  Alcotest.(check int) "rows" 1 pf.Query.pf_rows;
  check_contains "plan" pf.Query.pf_plan "full scan of cluster stockitem";
  (* exact attribution: per-node time and counters sum to the query totals *)
  let sum_ns =
    List.fold_left (fun acc n -> acc + n.Query.ns_ns) 0 pf.Query.pf_nodes
  in
  Alcotest.(check int) "node times sum to total" pf.Query.pf_total_ns sum_ns;
  List.iter
    (fun (name, total) ->
      let s =
        List.fold_left
          (fun acc n -> acc + Stats.get n.Query.ns_stats name)
          0 pf.Query.pf_nodes
      in
      Alcotest.(check int) (name ^ " sums to total") total s)
    (Stats.to_list pf.Query.pf_stats);
  (* both objects are scanned, one survives the predicate *)
  let node kind =
    List.find (fun n -> n.Query.ns_kind = kind) pf.Query.pf_nodes
  in
  Alcotest.(check int) "access candidates" 2 (node Ode.Planner.Access).Query.ns_rows;
  Alcotest.(check int) "filter survivors" 1 (node Ode.Planner.Filter).Query.ns_rows;
  Alcotest.(check int) "output rows" 1 (node Ode.Planner.Output).Query.ns_rows;
  Alcotest.(check int)
    "scan work attributed" 2
    (Stats.get pf.Query.pf_stats "objects_scanned");
  let rendered = Query.profile_to_string pf in
  check_contains "rendered plan" rendered "plan: full scan";
  check_contains "rendered filter" rendered "filter";
  check_contains "rendered total" rendered "total"

let profile_emits_spans () =
  let db, _shell = stockitem_db () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  with_tracing @@ fun () ->
  Query.run db ~var:"x" ~cls:"stockitem" ?suchthat:(reorder_suchthat ()) ignore;
  let names = List.map (fun s -> s.Trace.sp_name) (Trace.spans ()) in
  if not (List.mem "query.execute" names) then
    Alcotest.failf "no query.execute span in %s" (String.concat "," names)

(* -- shell dot commands ---------------------------------------------------- *)

let dot_shell () =
  let db, shell = stockitem_db () in
  Fun.protect
    ~finally:(fun () ->
      Db.close db;
      Trace.set_enabled false;
      Trace.clear ();
      Histogram.set_enabled true)
  @@ fun () ->
  let dot line =
    match Shell.dot_command shell line with
    | Some out -> out
    | None -> Alcotest.failf "%S not handled" line
  in
  Alcotest.(check (option string)) "non-dot" None (Shell.dot_command shell "print 1;");
  check_contains ".help" (dot ".help") ".profile";
  check_contains ".stats" (dot ".stats") "pages_read";
  Alcotest.(check string) ".stats reset" "counters reset" (dot "  .stats reset ");
  check_contains ".recovery" (dot ".recovery") "recovery_replayed";
  check_contains ".metrics" (dot ".metrics") "p50";
  Alcotest.(check string) ".trace on" "tracing on" (dot ".trace on");
  assert (Trace.enabled ());
  check_contains ".explain" (dot ".explain forall x in stockitem suchthat x.qty < 50")
    "full scan of cluster stockitem";
  check_contains ".profile"
    (dot ".profile forall x in stockitem suchthat x.qty < 50 { print x.name; };")
    "filter";
  let path = Filename.temp_file "ode_dot_trace" ".json" in
  Fun.protect
    (fun () ->
      check_contains ".trace dump" (dot (".trace dump " ^ path)) "wrote";
      let written = In_channel.with_open_text path In_channel.input_all in
      check_contains "dump file" written "\"traceEvents\"")
    ~finally:(fun () -> Sys.remove path);
  Alcotest.(check string) ".trace off" "tracing off" (dot ".trace off");
  check_contains ".trace status" (dot ".trace") "tracing off";
  check_contains "bad query" (dot ".profile nonsense") "expected";
  check_contains "unknown" (dot ".bogus") "unknown command"

let dot_profile_body_binding () =
  (* .profile with a body must not clobber an existing shell variable *)
  let db, shell = stockitem_db () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  (match Shell.exec_catching shell "x := 99;" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match Shell.dot_command shell ".profile forall x in stockitem { print x.name; };" with
  | Some _ -> ()
  | None -> Alcotest.fail "not handled");
  match List.assoc_opt "x" (Shell.vars shell) with
  | Some (Ode_model.Value.Int 99) -> ()
  | _ -> Alcotest.fail "outer binding of x was not restored"

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "span nesting and ordering" `Quick span_nesting;
        Alcotest.test_case "span records on exception" `Quick span_exception_safe;
        Alcotest.test_case "ring buffer wraparound" `Quick ring_wraparound;
        Alcotest.test_case "concurrent span ids and trace ids" `Quick concurrent_span_ids;
        Alcotest.test_case "disabled tracer is a no-op" `Quick disabled_noop;
        Alcotest.test_case "chrome trace JSON export" `Quick chrome_json;
        Alcotest.test_case "histogram bucket boundaries" `Quick histogram_buckets;
        Alcotest.test_case "histogram percentiles" `Quick histogram_percentiles;
        Alcotest.test_case "histogram concurrent drain" `Quick histogram_concurrent_drain;
        Alcotest.test_case "histogram disabled" `Quick histogram_time_disabled;
        Alcotest.test_case "stats registry round-trip" `Quick stats_registry;
        Alcotest.test_case "counter same-name registration" `Quick counter_same_name;
        Alcotest.test_case "counter registry golden" `Quick counter_registry_golden;
        Alcotest.test_case "prometheus exposition" `Quick prometheus_exposition;
        Alcotest.test_case "metrics json shape" `Quick metrics_json_shape;
        Alcotest.test_case "stats output name-sorted" `Quick stats_sorted_output;
        Alcotest.test_case "slow-query log basics" `Quick slowlog_basics;
        Alcotest.test_case "profile attribution sums exactly" `Quick profile_attribution;
        Alcotest.test_case "tracing emits query spans" `Quick profile_emits_spans;
        Alcotest.test_case "shell dot commands" `Quick dot_shell;
        Alcotest.test_case "profile restores loop binding" `Quick dot_profile_body_binding;
      ] );
  ]
