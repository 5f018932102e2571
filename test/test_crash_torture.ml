(* Randomized crash-recovery torture (fault-injection failpoints).

   Each iteration runs a random O++ workload against a file-backed database,
   arms one failpoint (page writes, fsyncs, WAL appends, journal writes,
   evictions...), catches the simulated crash, reopens from disk and checks
   the durability invariant:

     every acknowledged transaction is visible, no unacknowledged effect is,
     and [Verify.run] finds a consistent database.

   The only slack is the single in-doubt transaction executing when the
   crash hit: the recovered state must equal one of its *admissible* states
   — before the transaction, after its main effects, or after its trigger
   action (which runs as its own transaction under weak coupling, so it can
   be lost independently).

   The workload covers inserts (including multi-page chunked records),
   updates, deletes, named roots, a secondary index, and once-only triggers
   whose actions mutate the database. Some iterations re-arm a failpoint
   before reopening so recovery itself crashes and is retried (recovery must
   be idempotent). Iterations where the failpoint never fires still simulate
   power loss (close without checkpoint) and demand an exact state match.

   A third of the iterations run under [Group] durability: commits are
   prepared but their fsync deferred to a randomly interleaved shared
   [sync_commits] ack. A crash then may lose any suffix of the
   unacknowledged commits — WAL frames land in commit order, so the
   admissible states are the prefixes of the unacked chain (each commit
   individually atomic, trigger-action transactions as separate steps),
   never a subset with holes and never anything past the in-flight
   transaction. Acknowledged commits must always survive.

   A fifth of the seeds additionally run every workload step as 2–3
   *interleaved* explicit MVCC transactions: all opened on the same
   snapshot, their buffered ops applied round-robin, then committed in a
   shuffled order. Tag sets are disjoint by construction, so the only key
   two of them can collide on is the shared named root — when they do,
   first-committer-wins must abort the later committer, which then
   contributes nothing to the oracle. Committed transactions enter the
   model in commit order (that IS the WAL order), so recovery and the
   admissible-prefix logic keep working unchanged: each commit is one
   atomic step of the chain.

   Reproduce a failure with TORTURE_SEED=<seed> [TORTURE_ITERS=<n>]; each
   failure message carries the iteration number and seed. *)

module Db = Ode.Database
module Query = Ode.Query
module Verify = Ode.Verify
module Value = Ode_model.Value
module Failpoint = Ode_util.Failpoint
module Prng = Ode_util.Prng
module IM = Map.Make (Int)

let iters =
  match Sys.getenv_opt "TORTURE_ITERS" with Some s -> int_of_string s | None -> 200

let seed0 =
  match Sys.getenv_opt "TORTURE_SEED" with Some s -> int_of_string s | None -> 42

let schema =
  {|
  class t {
    tag: int;
    grp: int;
    payload: string;
    flagged: int;
    trigger mark(): flagged >= 0 ==> { this.flagged := this.flagged + 1; };
  };
|}

(* -- model ----------------------------------------------------------------- *)

(* The oracle: a pure map tag -> (payload, flagged) plus one named root,
   mirroring what the workload does to class [t]. *)

type op =
  | Insert of int * string
  | Update of int * string
  | Remove of int
  | SetRoot of int
  | Activate of int

type st = { objs : (string * int) IM.t; root : int option }

let empty_state = { objs = IM.empty; root = None }

let state_equal a b =
  a.root = b.root
  && IM.equal (fun (p1, f1) (p2, f2) -> String.equal p1 p2 && f1 = f2) a.objs b.objs

let pp_state fmt st =
  Format.fprintf fmt "root=%s objs={%s}"
    (match st.root with None -> "-" | Some v -> string_of_int v)
    (String.concat ", "
       (List.rev
          (IM.fold
             (fun k (p, f) acc ->
               Printf.sprintf "%d:#%08x/%dB+%d" k (Hashtbl.hash p) (String.length p) f
               :: acc)
             st.objs [])))

let apply_main st ops =
  List.fold_left
    (fun st op ->
      match op with
      | Insert (tag, p) -> { st with objs = IM.add tag (p, 0) st.objs }
      | Update (tag, p) ->
          { st with objs = IM.update tag (Option.map (fun (_, f) -> (p, f))) st.objs }
      | Remove tag -> { st with objs = IM.remove tag st.objs }
      | SetRoot v -> { st with root = Some v }
      | Activate _ -> st)
    st ops

(* Admissible post-crash states for a transaction that was in flight: before
   it, after its main effects, and after each trigger-action transaction it
   scheduled (actions run separately, in order, after the main commit). *)
let admissible st ops =
  let after_main = apply_main st ops in
  let fire st tag =
    { st with objs = IM.update tag (Option.map (fun (p, f) -> (p, f + 1))) st.objs }
  in
  let rec steps st = function
    | [] -> []
    | tag :: rest ->
        let st' = fire st tag in
        st' :: steps st' rest
  in
  let activations = List.filter_map (function Activate t -> Some t | _ -> None) ops in
  st :: after_main :: steps after_main activations

(* State after the transaction fully completes, trigger actions included. *)
let final_state st ops =
  match List.rev (admissible st ops) with last :: _ -> last | [] -> assert false

(* -- workload -------------------------------------------------------------- *)

let apply_op txn oids op =
  match op with
  | Insert (tag, p) ->
      let oid =
        Db.pnew txn "t"
          [
            ("tag", Value.Int tag);
            ("grp", Value.Int (tag mod 7));
            ("payload", Value.Str p);
            ("flagged", Value.Int 0);
          ]
      in
      Hashtbl.replace oids tag oid
  | Update (tag, p) -> Db.set_field txn (Hashtbl.find oids tag) "payload" (Value.Str p)
  | Remove tag -> Db.pdelete txn (Hashtbl.find oids tag)
  | SetRoot v -> Db.set_root txn "last" (Value.Int v)
  | Activate tag -> ignore (Db.activate txn (Hashtbl.find oids tag) "mark" [])

let execute db oids ops = Db.with_txn db (fun txn -> List.iter (apply_op txn oids) ops)

(* Random ops for one transaction. Each tag is targeted by at most one op
   and at most one trigger is activated, so the admissible-state chain stays
   unambiguous. [pressure] biases towards large chunked payloads to fill the
   buffer pool with dirty pages (the eviction failpoint needs that). [used]
   is shared across the transactions of one interleaved group so their tag
   sets stay disjoint — only the named root can then collide. *)
let gen_ops_shared rng st next_tag ~pressure ~used =
  let live () =
    List.rev
      (IM.fold (fun k _ acc -> if Hashtbl.mem used k then acc else k :: acc) st.objs [])
  in
  let pick_live () =
    match live () with
    | [] -> None
    | l ->
        let tag = List.nth l (Prng.int rng (List.length l)) in
        Hashtbl.replace used tag ();
        Some tag
  in
  let payload () =
    if pressure then Prng.string rng (2000 + Prng.int rng 6000)
    else if Prng.int rng 12 = 0 then Prng.string rng (2000 + Prng.int rng 10_000)
    else Prng.string rng (1 + Prng.int rng 100)
  in
  let insert () =
    let tag = !next_tag in
    incr next_tag;
    Hashtbl.replace used tag ();
    Insert (tag, payload ())
  in
  let activated = ref false in
  let n = 1 + Prng.int rng (if pressure then 3 else 5) in
  List.init n (fun _ ->
      match Prng.int rng 10 with
      | 0 | 1 | 2 | 3 -> insert ()
      | 4 | 5 -> (
          match pick_live () with Some tag -> Update (tag, payload ()) | None -> insert ())
      | 6 -> (
          match pick_live () with
          | Some tag -> Remove tag
          | None -> SetRoot (Prng.int rng 1000))
      | 7 -> SetRoot (Prng.int rng 1000)
      | _ ->
          if !activated then SetRoot (Prng.int rng 1000)
          else (
            match pick_live () with
            | Some tag ->
                activated := true;
                Activate tag
            | None -> SetRoot (Prng.int rng 1000)))

let gen_ops rng st next_tag ~pressure =
  gen_ops_shared rng st next_tag ~pressure ~used:(Hashtbl.create 8)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* -- per-site tuning ------------------------------------------------------- *)

let all_sites =
  [|
    "disk.write";
    "disk.sync";
    "disk.journal.write";
    "disk.journal.clear";
    "wal.sync";
    "wal.fsync";
    "wal.reset";
    "wal.lsn";
    "pool.flush";
    "pool.evict";
    "heap.flush";
  |]

(* (after_hits upper bound, explicit-checkpoint probability, pressure).
   Bounds are scaled to how often each site is hit per iteration so the
   failpoint usually fires somewhere in the middle of the workload. *)
let profile = function
  | "wal.sync" | "wal.fsync" -> (30, 0.15, false)
  | "disk.write" -> (20, 0.2, false)
  | "pool.flush" -> (6, 0.3, false)
  | "disk.sync" -> (5, 0.3, false)
  | "disk.journal.write" | "disk.journal.clear" -> (4, 0.3, false)
  | "wal.reset" | "wal.lsn" -> (3, 0.4, false)
  | "heap.flush" -> (2, 0.4, false)
  | "pool.evict" -> (2, 0.0, true)
  | _ -> (5, 0.2, false)

(* Partial-effect faults only make sense at sites that write an image. *)
let gen_action rng = function
  | "disk.write" | "disk.journal.write" | "wal.sync" -> (
      match Prng.int rng 3 with
      | 0 -> Failpoint.Crash_site
      | 1 -> Failpoint.Short_effect (Prng.float rng 1.0)
      | _ -> Failpoint.Flip_bit (Prng.int rng (4096 * 8)))
  | _ -> Failpoint.Crash_site

(* -- one iteration --------------------------------------------------------- *)

let run_iteration ~iter ~seed ~site ~coverage =
  let rng = Prng.create seed in
  let dir = Tutil.temp_dir "torture" in
  let range, ckpt_prob, pressure = profile site in
  let wal_cp = if pressure then max_int else 2048 + Prng.int rng 16_384 in
  (* A third of the iterations defers durability: commits pend until a
     randomly placed shared sync acknowledges the batch (group commit). *)
  let group = seed mod 3 = 1 in
  (* A fifth of the seeds runs every step as a group of interleaved explicit
     transactions committed in shuffled order (the MVCC slice). *)
  let interleaved = seed mod 5 = 2 in
  let fail fmt =
    Format.kasprintf
      (fun s ->
        Alcotest.failf "iteration %d (seed %d, site %s%s%s): %s" iter seed site
          (if group then ", group durability" else "")
          (if interleaved then ", interleaved" else "")
          s)
      fmt
  in

  (* A fraction of iterations runs with the decoded-object cache enabled —
     small enough to force evictions — so the cache/recovery interplay is
     tortured too; the rest runs uncached, preserving the original regime. *)
  let ocache = if seed mod 4 = 0 then 0 else 48 in

  (* Durable baseline, no failpoints armed yet. *)
  let db =
    Db.open_ ~pool_pages:8 ~wal_checkpoint_bytes:wal_cp ~object_cache:ocache
      ~durability:(if group then Db.Group else Db.Full)
      dir
  in
  ignore (Db.define db schema);
  Db.create_cluster db "t";
  Db.create_index db ~cls:"t" ~field:"grp";
  Db.checkpoint db;

  Failpoint.arm site ~policy:(Failpoint.After_hits (Prng.int rng range))
    ~action:(gen_action rng site);

  let debug = Sys.getenv_opt "TORTURE_DEBUG" <> None in
  let dbg fmt =
    if debug then Format.eprintf (fmt ^^ "@.") else Format.ifprintf Format.err_formatter fmt
  in
  let pp_op fmt = function
    | Insert (t, p) -> Format.fprintf fmt "ins %d (%dB)" t (String.length p)
    | Update (t, p) -> Format.fprintf fmt "upd %d (%dB)" t (String.length p)
    | Remove t -> Format.fprintf fmt "del %d" t
    | SetRoot v -> Format.fprintf fmt "root %d" v
    | Activate t -> Format.fprintf fmt "act %d" t
  in
  let pp_ops fmt ops =
    Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") pp_op fmt ops
  in
  let model = ref empty_state in
  let oids : (int, Ode_model.Oid.t) Hashtbl.t = Hashtbl.create 64 in
  let next_tag = ref 0 in
  let pending = ref None in
  let in_doubt = ref None in
  (* Group commit bookkeeping: [acked] is the state as of the last shared
     sync; [unacked] the op lists of commits prepared since, in commit
     order. Under eager durability every commit acks itself. *)
  let acked = ref empty_state in
  let unacked = ref [] in
  let ntxns = if pressure then 25 else 40 in
  (try
     for t = 1 to ntxns do
       if ckpt_prob > 0.0 && Prng.float rng 1.0 < ckpt_prob then begin
         dbg "txn %d: explicit checkpoint" t;
         Db.checkpoint db;
         (* A checkpoint syncs the WAL: everything so far is acked. *)
         acked := !model;
         unacked := []
       end;
       (if interleaved then begin
          (* Interleaved explicit transactions on one snapshot. Buffered ops
             round-robin across the open transactions, commits in shuffled
             order; each commit is one atomic oracle step, in commit order.
             A first-committer-wins loser (only the named root can collide —
             tag sets are disjoint) aborts wholesale and contributes
             nothing. *)
          let nt = 2 + Prng.int rng 2 in
          let used = Hashtbl.create 8 in
          let txns =
            List.init nt (fun _ ->
                (Db.begin_txn db, gen_ops_shared rng !model next_tag ~pressure ~used))
          in
          List.iteri (fun i (_, ops) -> dbg "txn %d.%d: %a" t i pp_ops ops) txns;
          let queues = List.map (fun (txn, ops) -> (txn, ref ops)) txns in
          let progressed = ref true in
          while !progressed do
            progressed := false;
            List.iter
              (fun (txn, q) ->
                match !q with
                | [] -> ()
                | op :: rest ->
                    q := rest;
                    apply_op txn oids op;
                    progressed := true)
              queues
          done;
          List.iter
            (fun (txn, ops) ->
              pending := Some ops;
              (match Db.commit txn with
              | () ->
                  model := final_state !model ops;
                  if group then unacked := !unacked @ [ ops ] else acked := !model
              | exception Ode.Types.Txn_conflict key ->
                  dbg "txn %d: conflict loser on %s: %a" t key pp_ops ops);
              pending := None)
            (shuffle rng txns)
        end
        else begin
          let ops = gen_ops rng !model next_tag ~pressure in
          dbg "txn %d: %a" t pp_ops ops;
          pending := Some ops;
          execute db oids ops;
          model := final_state !model ops;
          pending := None;
          if group then unacked := !unacked @ [ ops ] else acked := !model
        end);
       if group && Prng.float rng 1.0 < 0.35 then begin
         dbg "txn %d: shared ack over %d pending commits" t (Db.pending_commits db);
         Db.sync_commits db;
         acked := !model;
         unacked := []
       end
     done
   with Failpoint.Crash s ->
     dbg "CRASH at %s (in-doubt: %s)" s
       (match !pending with
       | None -> "-"
       | Some ops -> Format.asprintf "%a" pp_ops ops);
     Hashtbl.replace coverage s (1 + Option.value (Hashtbl.find_opt coverage s) ~default:0);
     in_doubt := !pending);

  (* Process death: drop everything that wasn't flushed. Iterations where
     the failpoint never fired become plain power-loss tests. *)
  Failpoint.clear ();
  Db.crash db;

  (* Sometimes crash recovery itself, then recover from *that*. *)
  if (not pressure) && Prng.int rng 4 = 0 then
    Failpoint.arm site
      ~policy:(Failpoint.After_hits (Prng.int rng 3))
      ~action:Failpoint.Crash_site;
  let rec reopen tries =
    match Db.open_ ~pool_pages:8 ~object_cache:ocache dir with
    | db -> db
    | exception Failpoint.Crash s ->
        Hashtbl.replace coverage s (1 + Option.value (Hashtbl.find_opt coverage s) ~default:0);
        Failpoint.clear ();
        if tries >= 3 then fail "recovery kept crashing";
        reopen (tries + 1)
  in
  let s0 = Ode_util.Stats.snapshot () in
  let db2 = reopen 0 in
  (* The recovery re-arm may not have fired; nothing past this point is a
     simulated fault. *)
  Failpoint.clear ();
  (if debug then begin
     let s1 = Ode_util.Stats.snapshot () in
     dbg "recovery: replayed %d, orphans %d, journal restored %d, cksum fails %d, reformatted %d"
       Ode_util.Stats.(get s1 "recovery_replayed" - get s0 "recovery_replayed")
       Ode_util.Stats.(get s1 "orphans_reclaimed" - get s0 "orphans_reclaimed")
       Ode_util.Stats.(get s1 "journal_pages_restored" - get s0 "journal_pages_restored")
       Ode_util.Stats.(get s1 "checksum_failures" - get s0 "checksum_failures")
       Ode_util.Stats.(get s1 "pages_reformatted" - get s0 "pages_reformatted");
     Hashtbl.iter
       (fun tag oid ->
         dbg "tag %d: header %b (oid %a)" tag
           (Ode.Kv.mem db2 (Ode.Keys.header oid))
           Ode_model.Oid.pp oid)
       oids;
     Ode_index.Bptree.iter_range db2.Ode.Types.kv_dir (fun key rid_s ->
         let rid = Ode.Kv.decode_rid rid_s in
         let status =
           match Ode_storage.Heap.get db2.Ode.Types.kv_heap rid with
           | Some p -> Printf.sprintf "ok (%dB)" (String.length p)
           | None -> "DEAD"
           | exception Ode_util.Codec.Corrupt m -> "CORRUPT " ^ m
         in
         dbg "dir %C.. (%d) -> %a %s" key.[0] (String.length key) Ode_storage.Heap.pp_rid rid
           status;
         true)
   end);

  let actual =
    Db.with_txn db2 (fun txn ->
        let objs =
          List.fold_left
            (fun m oid ->
              let geti f =
                match Db.get_field txn oid f with Value.Int i -> i | _ -> fail "non-int %s" f
              in
              let p =
                match Db.get_field txn oid "payload" with
                | Value.Str s -> s
                | _ -> fail "non-string payload"
              in
              IM.add (geti "tag") (p, geti "flagged") m)
            IM.empty
            (Query.to_list db2 ~txn ~var:"x" ~cls:"t" ())
        in
        let root =
          match Db.root txn "last" with
          | Some (Value.Int v) -> Some v
          | Some _ -> fail "non-int root"
          | None -> None
        in
        { objs; root })
  in
  (* Admissible recovered states. Walk the unacked chain from the last
     acked snapshot: the crash may have cut durability at any commit
     boundary in it (WAL frames land in commit order, so what survives is a
     prefix — each commit individually atomic, trigger-action transactions
     as separate steps in between). The in-flight transaction, if any,
     contributes its own admissible chain at the very end. Under eager
     durability [unacked] is empty and this reduces to the original oracle:
     exactly [!model], give or take the in-doubt transaction. *)
  let candidates =
    let rec go st acc = function
      | [] -> (
          match !in_doubt with
          | None -> st :: acc
          | Some ops -> admissible st ops @ acc)
      | ops :: rest -> go (final_state st ops) (admissible st ops @ acc) rest
    in
    go !acked [] !unacked
  in
  if not (List.exists (state_equal actual) candidates) then
    fail "recovered state is not admissible@.  actual:   %a@.  expected one of:@.%s" pp_state
      actual
      (String.concat "\n"
         (List.map (Format.asprintf "    %a" pp_state) candidates));
  (match Verify.run db2 with
  | Ok () -> ()
  | Error ps -> fail "integrity check failed after recovery: %s" (String.concat "; " ps));
  Db.close db2

let torture () =
  Failpoint.clear ();
  let coverage = Hashtbl.create 16 in
  for i = 0 to iters - 1 do
    (* The site is derived from the seed (not the loop index) so a failure
       reproduces exactly with TORTURE_SEED=<seed> TORTURE_ITERS=1; since
       the seed increments per iteration the sites still round-robin. *)
    let seed = seed0 + i in
    let site = all_sites.(seed mod Array.length all_sites) in
    run_iteration ~iter:i ~seed ~site ~coverage
  done;
  Failpoint.clear ();
  (* Every registered site must have produced at least one simulated crash;
     a site that never fires is dead instrumentation. *)
  Array.iter
    (fun site ->
      if not (Hashtbl.mem coverage site) then
        Alcotest.failf "failpoint site %s never crashed in %d iterations" site iters)
    all_sites;
  (* And the torture only means something if the sites actually exist. *)
  Array.iter
    (fun site ->
      if not (List.mem site (Failpoint.sites ())) then
        Alcotest.failf "failpoint site %s is not registered" site)
    all_sites

(* -- the harness must catch real bugs -------------------------------------- *)

(* Deliberately broken storage: an fsync that lies (reports success, syncs
   nothing — here the WAL batch is dropped wholesale). Acknowledged
   transactions evaporate and the invariant check must notice. *)
let lying_wal_sync () =
  Failpoint.clear ();
  let dir = Tutil.temp_dir "torture-lying" in
  let db = Db.open_ ~wal_checkpoint_bytes:max_int dir in
  ignore (Db.define db schema);
  Db.create_cluster db "t";
  Db.checkpoint db;
  Failpoint.arm "wal.sync" ~policy:Failpoint.Always ~action:Failpoint.Skip_effect;
  for i = 0 to 4 do
    Db.with_txn db (fun txn ->
        ignore
          (Db.pnew txn "t"
             [
               ("tag", Value.Int i);
               ("grp", Value.Int 0);
               ("payload", Value.Str "durable, honest");
               ("flagged", Value.Int 0);
             ]))
  done;
  Failpoint.clear ();
  Db.crash db;
  let db2 = Db.open_ dir in
  let survivors = List.length (Query.to_list db2 ~var:"x" ~cls:"t" ()) in
  Db.close db2;
  (* All five transactions were acknowledged; with a lying sync none
     survive. This is the state mismatch the torture oracle reports. *)
  Tutil.check_int "acked txns lost to lying fsync (harness detects the bug)" 0 survivors

(* -- checksum detection of silent corruption ------------------------------- *)

let page_size = Ode_storage.Page.size

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let b = Bytes.create 1 in
      if Unix.read fd b 0 1 <> 1 then failwith "flip_byte: short read";
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
      if Unix.write fd b 0 1 <> 1 then failwith "flip_byte: short write")

(* A database big enough that page 1 of every file is interior (corruption
   of a *trailing* page is indistinguishable from a torn allocation and is
   deliberately truncated away, so we must hit the middle of the file). *)
let build_flip_base dir =
  let db = Db.open_ dir in
  ignore (Db.define db schema);
  Db.create_cluster db "t";
  Db.create_index db ~cls:"t" ~field:"grp";
  let rng = Prng.create 7 in
  for batch = 0 to 19 do
    Db.with_txn db (fun txn ->
        for i = 0 to 19 do
          let tag = (batch * 20) + i in
          ignore
            (Db.pnew txn "t"
               [
                 ("tag", Value.Int tag);
                 ("grp", Value.Int (tag mod 7));
                 ("payload", Value.Str (Prng.string rng (60 + Prng.int rng 200)));
                 ("flagged", Value.Int 0);
               ])
        done)
  done;
  Db.close db

let corruption_detected dir file =
  let src = Filename.concat dir "base" in
  let victim = Filename.concat dir ("flip-" ^ file) in
  Tutil.copy_dir src victim;
  let path = Filename.concat victim file in
  let size = (Unix.stat path).Unix.st_size in
  if size < 3 * page_size then
    Alcotest.failf "%s too small (%d bytes) for an interior-page flip" file size;
  flip_byte path (page_size + 1234);
  (* Either opening (heap scan, directory walk) or verification (index walk)
     must surface the corruption — silent acceptance is the failure. *)
  match Db.open_ victim with
  | exception Ode_util.Codec.Corrupt _ -> ()
  | db -> (
      match Verify.run db with
      | exception Ode_util.Codec.Corrupt _ -> Db.close db
      | Error _ -> Db.close db
      | Ok () ->
          Db.close db;
          Alcotest.failf "flipped byte in %s went undetected" file)

let checksum_catches_bit_rot () =
  Failpoint.clear ();
  let dir = Tutil.temp_dir "torture-flip" in
  let base = Filename.concat dir "base" in
  build_flip_base base;
  corruption_detected dir "objects.heap";
  corruption_detected dir "directory.bpt";
  corruption_detected dir "indexes.bpt"

(* -- replicated torture: faults on the replication stream ------------------ *)

(* Each iteration spawns a real primary server, bootstraps an in-process
   standby from its replication port (half the seeds through the snapshot
   path, half through a WAL resume), then pumps the stream by hand while a
   seeded adversary drops, duplicates, reorders, truncates and corrupts
   batches. Every fault must end in a clean resync from the exact local
   position; the oracle is that the standby's state is always the exact
   commit-prefix of the primary's (one row per commit, so the visible tags
   are computable from the replication LSN alone — divergence of any kind
   fails). A third of the iterations SIGKILL the primary mid-stream, drain
   the socket, promote the standby in place and check the prefix invariant
   against what the primary's directory recovers to; the rest converge and
   demand byte-identical logical dumps (physical replication preserves
   oids). Reproduce with TORTURE_SEED=<seed> TORTURE_REPL_ITERS=1. *)

module Srv = Ode_served.Server
module Cl = Ode_served.Client
module Repl = Ode_served.Replication
module RP = Ode_served.Protocol
module Dump = Ode.Dump

let repl_iters =
  match Sys.getenv_opt "TORTURE_REPL_ITERS" with Some s -> int_of_string s | None -> 100

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> reap pid
  | exception Unix.Unix_error _ -> ()

let kill_reap pid signal =
  (try Unix.kill pid signal with Unix.Unix_error _ -> ());
  reap pid

(* Sorted tags of the replicated class. *)
let rtags db =
  Db.with_txn db (fun txn ->
      List.sort compare
        (List.map
           (fun oid ->
             match Db.get_field txn oid "tag" with
             | Value.Int i -> i
             | _ -> Alcotest.fail "non-int tag")
           (Query.to_list db ~txn ~var:"x" ~cls:"r" ())))

let run_repl_iteration ~iter ~seed =
  let rng = Prng.create seed in
  let fail fmt =
    Format.kasprintf
      (fun s -> Alcotest.failf "repl iteration %d (seed %d): %s" iter seed s)
      fmt
  in
  let host = "127.0.0.1" in
  let pdir = Tutil.temp_dir "torture-repl-p" in
  let rdir = Filename.concat (Tutil.temp_dir "torture-repl-r") "db" in
  (* Even seeds pre-populate and checkpoint the primary so a fresh standby
     cannot resume from LSN 0: bootstrap must ship a snapshot. Odd seeds
     start the primary empty: bootstrap resumes and even the DDL arrives as
     replicated WAL batches. *)
  let pre =
    if seed mod 2 = 0 then begin
      let db = Db.open_ pdir in
      ignore (Db.define db "class r { tag: int; };");
      Db.create_cluster db "r";
      for i = 0 to 2 do
        Db.with_txn db (fun txn -> ignore (Db.pnew txn "r" [ ("tag", Value.Int i) ]))
      done;
      Db.close db;
      3
    end
    else 0
  in
  let ppid, pport, prepl, _ = Srv.spawn_full ~repl_port:0 ~durability:Db.Full ~db_dir:pdir () in
  let pdead = ref false in
  Fun.protect
    ~finally:(fun () -> if not !pdead then kill_reap ppid Sys.sigterm)
  @@ fun () ->
  let rdb, up0 = Repl.bootstrap ~db_dir:rdir ~host ~port:prepl () in
  let upref = ref up0 in
  let closed = ref false in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close (!upref).Repl.up_fd with Unix.Unix_error _ -> ());
      if not !closed then Db.crash rdb)
  @@ fun () ->
  let c = Cl.connect ~timeout:10. ~host ~port:pport () in
  (* [base]: the primary LSN with schema in place and [pre] rows; every
     commit past it inserts exactly one row, tags counting up from [pre]. *)
  let base =
    if pre = 0 then ignore (Cl.exec c "class r { tag: int; }; create cluster r;")
    else Cl.ping c;
    Cl.last_seen_lsn c
  in
  let expected_tags lsn = List.init (pre + max 0 (lsn - base)) (fun i -> i) in
  let check_prefix what =
    let got = rtags rdb in
    let want = expected_tags (Db.lsn rdb) in
    if got <> want then
      fail "%s: standby diverged at lsn %d: has tags [%s], wants [%s]" what (Db.lsn rdb)
        (String.concat ";" (List.map string_of_int got))
        (String.concat ";" (List.map string_of_int want))
  in
  let nrows = 6 + Prng.int rng 6 in
  for i = 0 to nrows - 1 do
    ignore (Cl.exec c (Printf.sprintf "pnew r { tag = %d };" (pre + i)))
  done;
  let target = Cl.last_seen_lsn c in
  (* Tear the stream down and re-handshake from the exact local position —
     the recovery every injected fault must funnel into. *)
  let resync () =
    (try Unix.close (!upref).Repl.up_fd with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 5. in
    let rec go () =
      match Repl.reconnect ~host ~port:prepl rdb with
      | Ok up -> upref := up
      | Error m ->
          if Unix.gettimeofday () > deadline then fail "reconnect kept failing: %s" m;
          Unix.sleepf 0.02;
          go ()
    in
    go ()
  in
  let apply_clean ~from_lsn ~to_lsn ~data =
    match Repl.apply_batch rdb ~from_lsn ~to_lsn ~data with
    | `Applied | `Duplicate -> ()
    | exception Repl.Resync _ -> resync ()
  in
  (* The adversary: what to do with one delivered batch. *)
  let deliver ~from_lsn ~to_lsn ~data =
    match Prng.int rng 8 with
    | 0 ->
        (* Truncated mid-frame: must refuse without applying anything. *)
        let cut = 1 + Prng.int rng (min 8 (String.length data - 1)) in
        let l = Db.lsn rdb in
        (match
           Repl.apply_batch rdb ~from_lsn ~to_lsn
             ~data:(String.sub data 0 (String.length data - cut))
         with
        | `Applied -> fail "torn batch applied"
        | `Duplicate -> ()
        | exception Repl.Resync _ ->
            if Db.lsn rdb <> l then fail "torn batch moved the lsn";
            resync ())
    | 1 ->
        (* One flipped bit: the frame checksum must catch it. *)
        let b = Bytes.of_string data in
        let i = Prng.int rng (Bytes.length b) in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int rng 8)));
        (match Repl.apply_batch rdb ~from_lsn ~to_lsn ~data:(Bytes.to_string b) with
        | `Applied -> fail "corrupt batch applied"
        | `Duplicate -> ()
        | exception Repl.Resync _ -> resync ())
    | 2 ->
        (* Dropped: the next delivery gaps (or the stream stalls); either
           way the pump resyncs. *)
        ()
    | 3 ->
        (* Duplicated: the redelivery must be skipped, not reapplied. *)
        apply_clean ~from_lsn ~to_lsn ~data;
        (match Repl.apply_batch rdb ~from_lsn ~to_lsn ~data with
        | `Duplicate -> ()
        | `Applied -> fail "second delivery of (%d,%d] applied twice" from_lsn to_lsn
        | exception Repl.Resync _ -> resync ())
    | _ -> apply_clean ~from_lsn ~to_lsn ~data
  in
  let buf = Bytes.create 65536 in
  let read_upstream ~timeout =
    let fd = (!upref).Repl.up_fd in
    match Unix.select [ fd ] [] [] timeout with
    | [], _, _ -> `Idle
    | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> `Eof
        | n ->
            RP.feed (!upref).Repl.up_rd buf n;
            `Fed
        | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> `Eof
        | exception Unix.Unix_error (EINTR, _, _) -> `Idle)
  in
  let drain_frames () =
    let rec go acc =
      match RP.next_frame (!upref).Repl.up_rd with
      | Some body -> go (RP.decode_repl body :: acc)
      | None -> List.rev acc
    in
    go []
  in
  let handle_msgs msgs =
    (* Sometimes swap an adjacent pair: a reordered delivery gaps and must
       resync exactly like a drop. *)
    let msgs =
      match msgs with
      | a :: b :: rest when Prng.int rng 6 = 0 -> b :: a :: rest
      | _ -> msgs
    in
    List.iter
      (fun msg ->
        match (msg : RP.repl_msg) with
        | RP.R_batch (from_lsn, to_lsn, data) -> deliver ~from_lsn ~to_lsn ~data
        | _ -> fail "unexpected message on an established stream")
      msgs
  in
  let pump_to ~lsn:goal =
    let deadline = Unix.gettimeofday () +. 15. in
    while Db.lsn rdb < goal do
      if Unix.gettimeofday () > deadline then
        fail "standby never converged: lsn %d of %d" (Db.lsn rdb) goal;
      match drain_frames () with
      | [] -> (
          match read_upstream ~timeout:0.2 with
          | `Fed -> handle_msgs (drain_frames ())
          | `Eof -> fail "stream closed before convergence"
          | `Idle ->
              (* A dropped batch stalled the stream; recover by resync. *)
              if Db.lsn rdb < goal then resync ())
      | msgs -> handle_msgs msgs
    done
  in
  if seed mod 3 = 0 then begin
    (* SIGKILL the primary mid-stream, drain what made it out, promote. *)
    pump_to ~lsn:(base + Prng.int rng (max 1 (target - base)));
    Unix.kill ppid Sys.sigkill;
    pdead := true;
    reap ppid;
    (let draining = ref true in
     while !draining do
       match drain_frames () with
       | [] -> (
           match read_upstream ~timeout:0.2 with
           | `Eof -> draining := false
           | `Idle | `Fed -> ())
       | msgs -> (
           try
             List.iter
               (fun msg ->
                 match (msg : RP.repl_msg) with
                 | RP.R_batch (from_lsn, to_lsn, data) -> (
                     match Repl.apply_batch rdb ~from_lsn ~to_lsn ~data with
                     | `Applied | `Duplicate -> ())
                 | _ -> ())
               msgs
           with Repl.Resync _ -> draining := false)
     done);
    check_prefix "after primary SIGKILL";
    (* Promote in place: writable again, and still internally consistent. *)
    Db.set_read_only rdb false;
    Db.with_txn rdb (fun txn -> ignore (Db.pnew txn "r" [ ("tag", Value.Int 9999) ]));
    (match Verify.run rdb with
    | Ok () -> ()
    | Error ps -> fail "promoted standby fails verify: %s" (String.concat "; " ps));
    Db.close rdb;
    closed := true;
    (* The dead primary's directory must recover to a state the standby was
       a prefix of: every acknowledged commit (Full durability) intact. *)
    let pdb = Db.open_ pdir in
    let want = List.init (pre + nrows) (fun i -> i) in
    if rtags pdb <> want then fail "primary recovery lost acknowledged commits";
    (match Verify.run pdb with
    | Ok () -> ()
    | Error ps -> fail "recovered primary fails verify: %s" (String.concat "; " ps));
    Db.close pdb
  end
  else begin
    (* Converge through the faults, then compare against the primary's
       directory after a graceful shutdown: identical logical dumps. *)
    pump_to ~lsn:target;
    check_prefix "after convergence";
    Cl.close c;
    kill_reap ppid Sys.sigterm;
    pdead := true;
    let pdb = Db.open_ pdir in
    if rtags pdb <> rtags rdb then fail "primary and standby disagree";
    if Dump.export pdb <> Dump.export rdb then
      fail "logical dumps differ (oid preservation broken?)";
    (match Verify.run rdb with
    | Ok () -> ()
    | Error ps -> fail "standby fails verify: %s" (String.concat "; " ps));
    Db.close pdb;
    Db.set_read_only rdb false;
    Db.close rdb;
    closed := true
  end

let repl_torture () =
  Failpoint.clear ();
  for i = 0 to repl_iters - 1 do
    run_repl_iteration ~iter:i ~seed:(seed0 + i)
  done

(* -- replicated torture: kill the primary under semi-sync, fail over ------- *)

(* Forked primary (semi-sync) and forked standby; a client with the standby
   in its pool writes acknowledged rows, the primary is SIGKILLed between
   acks, the standby is promoted with SIGUSR1, and the client's retry loop
   must land the remaining writes on the promoted primary. Semi-sync makes
   the oracle exact: every acknowledged commit must be present after
   failover — none lost, none duplicated. *)

let failover_iters =
  match Sys.getenv_opt "TORTURE_FAILOVER_ITERS" with Some s -> int_of_string s | None -> 6

let run_failover_iteration ~iter ~seed =
  let rng = Prng.create seed in
  let fail fmt =
    Format.kasprintf
      (fun s -> Alcotest.failf "failover iteration %d (seed %d): %s" iter seed s)
      fmt
  in
  let pdir = Tutil.temp_dir "torture-fo-p" in
  let rdir = Tutil.temp_dir "torture-fo-r" in
  let ppid, pport, prepl, _ =
    Srv.spawn_full ~repl_port:0 ~sync_repl:true ~durability:Db.Group ~db_dir:pdir ()
  in
  let pdead = ref false in
  Fun.protect
    ~finally:(fun () -> if not !pdead then kill_reap ppid Sys.sigterm)
  @@ fun () ->
  let rpid, rport = Srv.spawn ~replica_of:("127.0.0.1", prepl) ~db_dir:rdir () in
  Fun.protect
    ~finally:(fun () -> kill_reap rpid Sys.sigterm)
  @@ fun () ->
  let c =
    Cl.connect ~timeout:10. ~retries:12
      ~replicas:[ ("127.0.0.1", rport) ]
      ~host:"127.0.0.1" ~port:pport ()
  in
  ignore (Cl.exec c "class r { tag: int; }; create cluster r;");
  let before = 2 + Prng.int rng 6 in
  for i = 0 to before - 1 do
    ignore (Cl.exec c (Printf.sprintf "pnew r { tag = %d };" i))
  done;
  (* Between acks: the client holds no in-flight request, so the acked set
     is exact — semi-sync guarantees the standby holds all of it. *)
  Unix.kill ppid Sys.sigkill;
  pdead := true;
  reap ppid;
  Unix.kill rpid Sys.sigusr1;
  let after = 1 + Prng.int rng 3 in
  for i = before to before + after - 1 do
    ignore (Cl.exec c (Printf.sprintf "pnew r { tag = %d };" i))
  done;
  let n = before + after in
  let rows = Cl.query c "forall x in r" in
  if List.length rows <> n then
    fail "acked %d commits, promoted standby has %d rows" n (List.length rows);
  for i = 0 to n - 1 do
    if not (List.exists (fun r -> contains r (Printf.sprintf "tag = %d" i)) rows) then
      fail "acked tag %d lost in failover" i
  done;
  if not (contains (Cl.dot c ".verify") "ok") then fail "promoted standby fails .verify";
  if not (contains (Cl.dot c ".replication") "role           primary") then
    fail "promoted standby does not report as primary";
  Cl.close c

let failover_torture () =
  Failpoint.clear ();
  for i = 0 to failover_iters - 1 do
    run_failover_iteration ~iter:i ~seed:(seed0 + 1000 + i)
  done

let suite =
  [
    ( "crash_torture",
      [
        Alcotest.test_case
          (Printf.sprintf "randomized torture (%d iterations, seed %d)" iters seed0)
          `Slow torture;
        Alcotest.test_case "lying wal sync is detected" `Quick lying_wal_sync;
        Alcotest.test_case "checksums catch bit rot" `Quick checksum_catches_bit_rot;
        Alcotest.test_case
          (Printf.sprintf "replicated stream-fault torture (%d iterations)" repl_iters)
          `Slow repl_torture;
        Alcotest.test_case
          (Printf.sprintf "semi-sync kill/promote/failover (%d iterations)" failover_iters)
          `Slow failover_torture;
      ] );
  ]
