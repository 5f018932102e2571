(* The repository benchmark. One process runs one workload for one seed:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off: set-up
   time (median of three fresh set-ups), space amplification after a
   fixed number of operations, then a closed loop of single operations
   for S seconds after a one-second warm-up, whose throughput and tail
   latency are medians over blocks of consecutive operations.

   --trace 1 measures the per-layer metrics: a fixed number of untraced
   operations whose counter deltas are exact for a seed, the same number
   again under the span ring, then S seconds of alternating untraced and
   traced operations that give the tracing overhead.

   Standard output carries an environment line, an information line and,
   last, the result object. See README.md for the metric definitions. *)

open Bench

let workloads = [ W_inventory.workload; W_wire.workload ]

(* -- running operations ------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable first_error : string option }

let tally () = { attempted = 0; failed = 0; first_error = None }

let run_op t f =
  t.attempted <- t.attempted + 1;
  let failed why =
    t.failed <- t.failed + 1;
    if t.first_error = None then t.first_error <- Some why
  in
  match f () with
  | true -> ()
  | false -> failed "oracle disagreed with an operation's result"
  | exception e -> failed (Printexc.to_string e)

let finish t inst =
  inst.close ();
  let problems = inst.check () in
  List.iter (fun p -> prerr_endline ("final check: " ^ p)) problems;
  if problems <> [] then begin
    t.failed <- t.failed + 1;
    if t.first_error = None then t.first_error <- Some (List.hd problems)
  end

(* Latency samples in microseconds. *)
type samples = { mutable xs : float array; mutable n : int }

let samples () = { xs = Array.make 4096 0.; n = 0 }

let push s x =
  if s.n = Array.length s.xs then s.xs <- Array.append s.xs s.xs;
  s.xs.(s.n) <- x;
  s.n <- s.n + 1

let sorted s =
  let a = Array.sub s.xs 0 s.n in
  Array.sort compare a;
  a

(* Nearest-rank percentile of the sorted samples, with how many samples
   lie beyond it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then (0., 0)
  else
    let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
    (sorted.(rank - 1), n - rank)

let sample_median s = fst (percentile (sorted s) 50.)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* -- output ------------------------------------------------------------------- *)

let json_num x = if Float.is_integer x then Printf.sprintf "%.1f" x else Printf.sprintf "%.17g" x

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let metrics_json ms =
  json_obj
    (List.map
       (fun (name, unit, v) ->
         (name, json_obj [ ("value", json_num v); ("unit", Printf.sprintf "%S" unit) ]))
       ms)

let result ~correct t ms =
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int t.attempted);
         ("failed", string_of_int t.failed);
         ("metrics", metrics_json ms);
       ])

(* The filesystem holding [dir], from the longest matching mount point. *)
let fs_type dir =
  let dir = try Unix.realpath dir with _ -> dir in
  match open_in "/proc/self/mounts" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let best = ref ("", "unknown") in
      (try
         while true do
           match String.split_on_char ' ' (input_line ic) with
           | _ :: mnt :: fstype :: _ ->
               let inside =
                 mnt = "/" || dir = mnt
                 || String.length dir > String.length mnt
                    && String.sub dir 0 (String.length mnt) = mnt
                    && dir.[String.length mnt] = '/'
               in
               if inside && String.length mnt >= String.length (fst !best) then
                 best := (mnt, fstype)
           | _ -> ()
         done
       with End_of_file -> ());
      close_in ic;
      snd !best

let first_line path =
  match open_in path with
  | exception Sys_error _ -> "unknown"
  | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> try input_line ic with End_of_file -> "")

let print_env (w : workload) ~seed ~seconds ~trace ~root =
  let sizes = List.map (fun (k, v) -> (k, string_of_int v)) w.sizes in
  print_endline
    (json_obj
       [
         ( "env",
           json_obj
             [
               ("workload", Printf.sprintf "%S" w.name);
               ("seed", string_of_int seed);
               ("seconds", string_of_int seconds);
               ("trace", string_of_int trace);
               ("nproc", string_of_int (Domain.recommended_domain_count ()));
               ("cpus_online", Printf.sprintf "%S" (first_line "/sys/devices/system/cpu/online"));
               ( "cpus_allowed",
                 Printf.sprintf "%S"
                   (Option.value (proc_status "self" "Cpus_allowed_list") ~default:"unknown") );
               ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
               ("sizes", json_obj sizes);
               ("flush_policy", Printf.sprintf "%S" flush_policy);
               ("db_fs", Printf.sprintf "%S" (fs_type root));
               ("object_cache_entries", string_of_int object_cache);
               ("pool_pages", string_of_int pool_pages);
               ("callers", "1");
             ] );
       ])

let print_info fields = print_endline (json_obj [ ("info", json_obj fields) ])

(* -- end-to-end run ----------------------------------------------------------- *)

let setups = 3
let warmup_s = 1.0

(* Operations per block of the timed loop: the fewest that leave ten
   samples beyond the tail percentile (1000 for p99, 200 for p95). *)
let block_ops (w : workload) = int_of_float (Float.round (1000. /. (100. -. w.tail_pct)))

let end_to_end w ~seed ~seconds ~root =
  let t = tally () in
  let setup_times = ref [] in
  let timed_setup i =
    let dir = Filename.concat root (Printf.sprintf "setup%d" i) in
    Gc.compact ();
    let t0 = now () in
    let inst = w.setup ~seed ~dir ~traced:false in
    setup_times := (now () -. t0) :: !setup_times;
    (dir, inst)
  in
  (* Space amplification at a fixed operation count, so it repeats
     exactly for a seed. The final oracle runs on the timed instance. *)
  let dir, inst = timed_setup 1 in
  for _ = 1 to w.count_ops do
    run_op t inst.op
  done;
  let user = inst.user_bytes () in
  inst.close ();
  let space_amp = float_of_int (dir_bytes dir) /. float_of_int user in
  rm_rf dir;
  for i = 2 to setups - 1 do
    let dir, inst = timed_setup i in
    inst.close ();
    rm_rf dir
  done;
  let _, inst = timed_setup setups in
  let until = now () +. warmup_s in
  while now () < until do
    run_op t inst.op
  done;
  let lat = samples () in
  let bsize = block_ops w in
  let block_secs = ref [] in
  let start = now () in
  let stop = start +. float_of_int seconds in
  let timed = tally () in
  let finished = ref start and block_start = ref start in
  while !finished < stop do
    let t0 = now () in
    run_op timed inst.op;
    finished := now ();
    push lat ((!finished -. t0) *. 1e6);
    if lat.n mod bsize = 0 then begin
      block_secs := (!finished -. !block_start) :: !block_secs;
      block_start := !finished
    end
  done;
  let rss_kb = inst.peak_rss_kb () in
  finish t inst;
  if lat.n = 0 then failwith "no operation completed in the measured time";
  t.attempted <- t.attempted + timed.attempted;
  t.failed <- t.failed + timed.failed;
  if t.first_error = None then t.first_error <- timed.first_error;
  (* Throughput and the tail percentile are medians over the loop's
     blocks of [bsize] consecutive operations; a run too short for one
     block is one block. On a shared host a burst of another tenant's
     work slows a few blocks, and the median block leaves it out, where a
     figure over the whole loop would carry it into this run alone.
     The information line gives the whole-loop figures and the longest
     operation, which do see every stall. *)
  let blocks =
    if !block_secs = [] then [ (0, lat.n, !finished -. start) ]
    else List.mapi (fun i secs -> (i * bsize, bsize, secs)) (List.rev !block_secs)
  in
  let block_rates = List.map (fun (_, n, secs) -> float_of_int n /. secs) blocks in
  let block_tails =
    List.map
      (fun (first, n, _) ->
        let a = Array.sub lat.xs first n in
        Array.sort compare a;
        fst (percentile a w.tail_pct))
      blocks
  in
  let lat = sorted lat in
  let whole_tail, beyond = percentile lat w.tail_pct in
  print_info
    [
      ("failed_ratio", json_num (float_of_int t.failed /. float_of_int (max 1 t.attempted)));
      ("first_error", match t.first_error with Some e -> Printf.sprintf "%S" e | None -> "null");
      ("timed_ops", string_of_int (Array.length lat));
      ("blocks", string_of_int (List.length blocks));
      ("block_ops", string_of_int bsize);
      ("tail_percentile", json_num w.tail_pct);
      ("loop_ops_per_s", json_num (float_of_int (Array.length lat) /. (!finished -. start)));
      ("loop_tail_us", json_num whole_tail);
      ("loop_tail_samples_beyond", string_of_int beyond);
      ("max_us", json_num lat.(Array.length lat - 1));
      ("setup_s_each", "[" ^ String.concat ", " (List.rev_map json_num !setup_times) ^ "]");
    ];
  let metrics =
    [
      ("ops_per_s", "ops/s", median block_rates);
      ("p50_us", "us", fst (percentile lat 50.));
      ("tail_us", "us", median block_tails);
      ("setup_s", "s", median !setup_times);
      ("peak_rss_mb", "MiB", float_of_int rss_kb /. 1024.);
      ("space_amp", "ratio", space_amp);
    ]
  in
  (t, metrics)

(* -- traced run ----------------------------------------------------------------- *)

let per_layer w ~seed ~seconds ~root =
  let t = tally () in
  let inst = w.setup ~seed ~dir:(Filename.concat root "traced") ~traced:true in
  (* Phase 1: counts over a fixed number of untraced operations. *)
  let r0 = read inst and results0 = inst.results () and queries0 = inst.queries () in
  let wal_bytes = ref 0 in
  let wal () = match inst.counting_db with Some db -> wal_size db | None -> 0 in
  for _ = 1 to w.count_ops do
    let before = wal () in
    run_op t inst.count_op;
    let after = wal () in
    (* a checkpoint truncates the log: count what was appended since *)
    wal_bytes := !wal_bytes + if after >= before then after - before else after
  done;
  let r1 = read inst in
  let results = inst.results () - results0 and queries = inst.queries () - queries0 in
  (* Phase 2: the same number of operations under the span ring. Each
     operation is one trace with a root span; the ring is drained before
     it can wrap, and a lost span fails the run. *)
  Trace.set_capacity (1 lsl 17);
  let counted = span_totals () and all = span_totals () in
  let lost = ref 0 and next_id = ref 0 in
  let drain_if_half totals =
    if Trace.total_recorded () > Trace.capacity () / 2 then lost := !lost + drain_spans totals
  in
  let traced f =
    incr next_id;
    Trace.with_trace_id !next_id (fun () -> Trace.with_span ~cat:"bench" "op" f)
  in
  let scanned0 = Stats.get (Stats.snapshot ()) "objects_scanned" in
  Trace.set_enabled true;
  for _ = 1 to w.count_ops do
    run_op t (fun () -> traced inst.count_op);
    traced inst.explain;
    drain_if_half [ counted; all ]
  done;
  Trace.set_enabled false;
  let traced_scanned = Stats.get (Stats.snapshot ()) "objects_scanned" - scanned0 in
  lost := !lost + drain_spans [ counted; all ];
  (* Phase 3: untraced and traced operations alternate one by one, so
     both see the same mix, cache state and garbage-collector debt. The
     ratio of their median latencies is the tracing overhead; means are
     too easily moved by a few stalls. *)
  let off = samples () and on = samples () in
  let stop = now () +. float_of_int seconds in
  while now () < stop do
    let traced_now = on.n < off.n in
    Trace.set_enabled traced_now;
    let t0 = now () in
    run_op t (fun () -> if traced_now then traced inst.op else inst.op ());
    let dt = now () -. t0 in
    Trace.set_enabled false;
    if traced_now then begin
      push on dt;
      drain_if_half [ all ]
    end
    else push off dt
  done;
  lost := !lost + drain_spans [ all ];
  let r2 = read inst in
  let extra = inst.extra () in
  finish t inst;
  if !lost > 0 || all.nesting_violations > 0 then begin
    t.failed <- t.failed + 1;
    prerr_endline
      (Printf.sprintf "span check: %d spans lost, %d children exceed their parent" !lost
         all.nesting_violations)
  end;
  (* -- derive the metrics -- *)
  let f = float_of_int in
  let ratio a b = if b = 0 then 0. else f a /. f b in
  let d name = Stats.get r1.stats name - Stats.get r0.stats name in
  let commits = r1.lsn - r0.lsn and ops = w.count_ops in
  let read_only_commits = r1.commits - r0.commits - commits in
  let mean_us totals names =
    let n, dur =
      List.fold_left
        (fun (n, dur) name ->
          let x = agg totals name in
          (n + x.n, dur + x.dur))
        (0, 0) names
    in
    ratio dur n /. 1e3
  in
  let commit = agg all "txn.commit" in
  let per_commit_us name = ratio (agg all name).dur commit.n /. 1e3 in
  let hits, misses = (d "pool_hits", d "pool_misses") in
  let ohits, omisses = (d "obj_cache_hits", d "obj_cache_misses") in
  let bptree_in_commit =
    Hashtbl.fold
      (fun name x acc ->
        if String.starts_with ~prefix:"bptree." name then acc + x.in_commit else acc)
      counted.by_name 0
  in
  let query = agg counted "query.execute" in
  let gc name get = (name, "words/op", (get r1.gc -. get r0.gc) /. f ops) in
  let session = agg all "Session.handle" in
  let metrics =
    [
      ("txn.commit_us", "us", ratio commit.dur commit.n /. 1e3);
      ("txn.commit_self_us", "us", ratio commit.self commit.n /. 1e3);
      ("txn.commit_uncovered_share", "ratio", ratio commit.self commit.dur);
      ("txn.read_only_commits_per_op", "count", ratio read_only_commits ops);
      ( "txn.body_us",
        "us",
        mean_us all
          [
            "Database.pnew";
            "Database.set_field";
            "Database.pdelete";
            "Database.newversion";
            "Database.activate";
          ] );
      ("txn.checkpoint_us_per_commit", "us", per_commit_us "txn.checkpoint");
      ("constraints.checked_per_commit", "count", ratio (d "constraints_checked") commits);
      ("constraints.us_per_commit", "us", per_commit_us "constraints.check");
      ("triggers.evaluate_us_per_commit", "us", per_commit_us "triggers.evaluate");
      ("triggers.fired_per_commit", "count", ratio (d "triggers_fired") commits);
      ("wal.appends_per_commit", "count", ratio (d "wal_appends") commits);
      ("wal.bytes_per_commit", "bytes", ratio !wal_bytes commits);
      ("wal.syncs_per_commit", "count", ratio (d "wal_syncs") commits);
      ("wal.sync_us", "us", mean_us all [ "wal.sync" ]);
      ("kv.puts_per_commit", "count", ratio (agg counted "kv.put").n (agg counted "txn.commit").n);
      ("kv.put_us", "us", mean_us all [ "kv.put" ]);
      ("bptree.ops_per_commit", "count", ratio bptree_in_commit (agg counted "txn.commit").n);
      ("index.probes_per_op", "count", ratio (d "index_probes") ops);
      ("pool.hit_ratio", "ratio", ratio hits (hits + misses));
      ("pool.misses_per_op", "count", ratio misses ops);
      ( "pool.miss_us",
        "us",
        ratio (r2.page_read_ns - r0.page_read_ns) (r2.page_reads - r0.page_reads) /. 1e3 );
      ("disk.pages_written_per_commit", "count", ratio (d "pages_written") commits);
      ("ocache.hit_ratio", "ratio", ratio ohits (ohits + omisses));
      ("ocache.misses_per_op", "count", ratio omisses ops);
      ("ocache.invalidations_per_commit", "count", ratio (d "obj_cache_invalidations") commits);
      ("db.get_field_us", "us", mean_us all [ "Database.get_field" ]);
      ("query.us_per_row_examined", "us", ratio query.dur traced_scanned /. 1e3);
      ("query.rows_examined_per_result", "count", ratio (d "objects_scanned") results);
      ("query.cursor_pages_per_query", "count", ratio (d "cursor_pages_read") queries);
      ("planner.plan_us", "us", mean_us all [ "Query.explain" ]);
      ("lang.parse_us", "us", mean_us all [ "Parser.program" ]);
      ( "protocol.codec_us",
        "us",
        ratio
          (List.fold_left
             (fun acc name -> acc + (agg all name).dur)
             0
             [
               "Protocol.encode_request";
               "Protocol.decode_request";
               "Protocol.encode_response";
               "Protocol.decode_response";
             ])
          session.n
        /. 1e3 );
      ("session.handle_us", "us", ratio session.dur session.n /. 1e3);
    ]
    @ List.map
        (fun name -> (name, "us", Option.value (List.assoc_opt name extra) ~default:0.))
        [ "server.request_us"; "wire.overhead_us" ]
    @ [
        gc "gc.minor_words_per_op" (fun g -> g.Gc.minor_words);
        gc "gc.major_words_per_op" (fun g -> g.Gc.major_words);
        ( "gc.major_collections_per_kop",
          "count",
          f (r1.gc.Gc.major_collections - r0.gc.Gc.major_collections) *. 1000. /. f ops );
        ( "trace.overhead",
          "ratio",
          if on.n = 0 || off.n = 0 then 0. else sample_median on /. sample_median off );
      ]
  in
  print_info
    [
      ("failed_ratio", json_num (ratio t.failed (max 1 t.attempted)));
      ("first_error", match t.first_error with Some e -> Printf.sprintf "%S" e | None -> "null");
      ("counted_ops", string_of_int ops);
      ("counted_commits", string_of_int commits);
      ("counted_read_only_commits", string_of_int read_only_commits);
      ("traced_ops", string_of_int (ops + on.n));
      ("alternating_untraced_ops", string_of_int off.n);
      ("spans", string_of_int all.spans);
      ("spans_lost", string_of_int !lost);
      ("nesting_violations", string_of_int all.nesting_violations);
    ];
  (t, metrics)

(* -- command line ----------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let work = ref (Filename.concat "perfbench" "_work") in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the measured loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
      ("--work-dir", Arg.Set_string work, "DIR where fixtures are built (removed afterwards)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload " ^ !workload ^ "; one of: "
          ^ String.concat ", " (List.map (fun (w : workload) -> w.name) workloads));
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be at least 1 and --trace 0 or 1";
    exit 2
  end;
  let root = Filename.concat !work (Printf.sprintf "%s-%d-%d" w.name !seed (Unix.getpid ())) in
  mkdir_p root;
  print_env w ~seed:!seed ~seconds:!seconds ~trace:!trace ~root;
  let t, metrics =
    Fun.protect
      ~finally:(fun () -> rm_rf root)
      (fun () ->
        if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds ~root
        else per_layer w ~seed:!seed ~seconds:!seconds ~root)
  in
  result ~correct:(t.failed = 0) t metrics
