(* Benchmark harness for the ODE reproduction.

     dune exec bench/main.exe                 -- run every experiment (tables)
     dune exec bench/main.exe -- E3 E5        -- run selected experiments
     dune exec bench/main.exe -- --bechamel   -- Bechamel micro-benchmarks

   Each experiment E1..E12 reifies one performance-relevant claim of the
   paper; EXPERIMENTS.md maps experiments to paper sections and records the
   expected vs measured shape. *)

let run_tables which =
  let selected =
    match which with
    | [] -> Experiments.all
    | names ->
        List.filter (fun (n, _) -> List.mem (String.uppercase_ascii n) (List.map String.uppercase_ascii names)) Experiments.all
  in
  if selected = [] then begin
    Printf.eprintf "no such experiment; known: %s\n"
      (String.concat " " (List.map fst Experiments.all));
    exit 2
  end;
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      Ode_util.Stats.reset ();
      f ();
      (* everything the experiment did, from the post-reset zero state *)
      Report.stats_metrics name (Ode_util.Stats.snapshot ()))
    selected;
  Printf.printf "\ntotal bench wall time: %.1fs\n" (Unix.gettimeofday () -. t0)

(* -- bechamel micro-benchmarks: one Test per experiment ------------------- *)

let bechamel_tests () =
  let open Bechamel in
  let module Db = Ode.Database in
  let module Value = Ode_model.Value in
  (* Shared fixtures built once. *)
  let db = Db.open_in_memory () in
  ignore (Db.define db "class mb { k: int; v: string; };");
  Db.create_cluster db "mb";
  Db.create_index db ~cls:"mb" ~field:"k";
  let rng = Ode_util.Prng.create 17 in
  let oids =
    Db.with_txn db (fun txn ->
        List.init 5_000 (fun i ->
            Db.pnew txn "mb" [ ("k", Int (Ode_util.Prng.int rng 5_000)); ("v", Str (string_of_int i)) ]))
  in
  let first = List.hd oids in
  let pred = Ode_lang.Parser.expr "x.k == 42" in
  let scan_pred = Ode_lang.Parser.expr "x.k + 1 == 43" (* not sargable: forces a scan *) in
  Test.make_grouped ~name:"ode"
    [
      (* E1: object write path *)
      Test.make ~name:"E1.pnew+commit" (Staged.stage (fun () ->
          Db.with_txn db (fun txn -> ignore (Db.pnew txn "mb" [ ("k", Int 1); ("v", Str "x") ]))));
      (* E1: object read path *)
      Test.make ~name:"E1.get_field" (Staged.stage (fun () ->
          Db.with_txn db (fun txn -> ignore (Db.get_field txn first "k"))));
      (* E3: index probe vs scan *)
      Test.make ~name:"E3.index_probe" (Staged.stage (fun () ->
          Db.with_txn db (fun _ ->
              ignore (Ode.Query.count db ~var:"x" ~cls:"mb" ~suchthat:pred ()))));
      Test.make ~name:"E3.full_scan" (Staged.stage (fun () ->
          Db.with_txn db (fun _ ->
              ignore (Ode.Query.count db ~var:"x" ~cls:"mb" ~suchthat:scan_pred ()))));
      (* E7: version creation *)
      Test.make ~name:"E7.newversion" (Staged.stage (fun () ->
          Db.with_txn db (fun txn -> ignore (Db.newversion txn first))));
      (* E8: constrained update commit *)
      Test.make ~name:"E8.update_commit" (Staged.stage (fun () ->
          Db.with_txn db (fun txn -> Db.set_field txn first "v" (Str "y"))));
      (* E11: set membership *)
      (let s = Ode.Odeset.of_list (List.init 500 (fun i -> Value.Int i)) in
       Test.make ~name:"E11.set_mem" (Staged.stage (fun () -> ignore (Ode.Odeset.mem (Value.Int 250) s))));
      (* E12: raw B+tree probe *)
      (let t =
         Ode_index.Bptree.attach
           (Ode_storage.Buffer_pool.create ~capacity:128 (Ode_storage.Disk.in_memory ()))
       in
       for i = 0 to 9_999 do
         Ode_index.Bptree.insert t (Ode_util.Key.of_int i) "v"
       done;
       Test.make ~name:"E12.bptree_find" (Staged.stage (fun () ->
           ignore (Ode_index.Bptree.find t (Ode_util.Key.of_int 7_777)))));
      (* page checksum: the hash behind every page write and pool miss, and
         the byte-serial FNV-1a it replaced (still the WAL frame checksum) *)
      (let page = Bytes.init 4096 (fun i -> Char.chr (i * 131 land 0xff)) in
       Test.make_grouped ~name:"checksum"
         [
           Test.make ~name:"page_sum.4k" (Staged.stage (fun () ->
               ignore (Ode_util.Codec.page_sum page ~pos:0 ~len:4096)));
           Test.make ~name:"fnv64.4k" (Staged.stage (fun () ->
               ignore (Ode_util.Codec.fnv64_bytes page ~pos:0 ~len:4096)));
         ]);
    ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results =
    List.map (fun i -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) i raw) instances
  in
  let results = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) instances results in
  Printf.printf "\nBechamel micro-benchmarks (ns/run):\n";
  Hashtbl.iter
    (fun _ tbl ->
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-24s %12.1f ns\n" name est
          | _ -> Printf.printf "  %-24s (no estimate)\n" name)
        tbl)
    results

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  let rec extract_json acc = function
    | "--json" :: file :: rest -> (Some file, List.rev_append acc rest)
    | x :: rest -> extract_json (x :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let json, args = extract_json [] args in
  if List.mem "--bechamel" args then run_bechamel ()
  else begin
    run_tables (List.filter (fun a -> a <> "--bechamel") args);
    (match json with Some file -> Report.write_json file | None -> ());
    if !Report.guard_failures <> [] then begin
      Printf.eprintf "bench guards failed: %s\n" (String.concat ", " !Report.guard_failures);
      exit 1
    end
  end
