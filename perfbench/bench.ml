(* Shared machinery of the benchmark program: the per-workload instance
   interface, fixture directories, the schema every workload uses, and
   the readings taken from the engine's exported counters, histograms and
   span ring. *)

module Db = Ode.Database
module Value = Ode_model.Value
module Oid = Ode_model.Oid
module Stats = Ode_util.Stats
module Histogram = Ode_util.Histogram
module Trace = Ode_util.Trace
module Prng = Ode_util.Prng

let now () = Unix.gettimeofday ()

(* Every database is file-backed with [Async] durability: each commit
   takes the real WAL encode/append path and the fsync is deferred to the
   next checkpoint or dirty-page write-back. The fixture lives inside the
   checkout, which is a disk filesystem, so a per-commit fsync would
   measure the machine's disk rather than the program. *)
let durability = Db.Async
let flush_policy = "async: WAL appended per commit, fsync deferred to checkpoint"

(* The engine's defaults, passed explicitly so the recorded environment
   states the sizes in effect. *)
let object_cache = 4096
let pool_pages = 512

let open_db dir = Db.open_ ~durability ~object_cache ~pool_pages dir

(* Bytes the database's WAL holds. No counter exports WAL bytes, so this
   one reading goes through the engine's shared state record. *)
let wal_size (db : Db.t) = Ode_storage.Wal.size_bytes db.Ode.Types.wal

(* One running copy of a workload. [op] performs one operation and
   returns [false] when the workload's oracle disagrees with its result;
   an exception also counts as a failed operation. [close] stops the
   instance (closing the database, or shutting the server down); [check]
   then runs the final oracle on what it left behind, if the workload has
   one, and returns every problem it found. *)
type instance = {
  op : unit -> bool;
  count_op : unit -> bool;
      (** the operation the per-layer counting phases run: [op] for the
          embedded workloads, the in-process replay for [wire_session] *)
  explain : unit -> unit;  (** plan every query the workload runs (traced run only) *)
  user_bytes : unit -> int;  (** bytes of live user data, by the model *)
  peak_rss_kb : unit -> int;  (** VmHWM of the process holding the database *)
  counting_db : Db.t option;
      (** the database [count_op] works on, whose WAL the counting phases
          read; [None] when no such database lives in this process *)
  results : unit -> int;  (** query result rows produced so far *)
  queries : unit -> int;  (** queries run so far *)
  extra : unit -> (string * float) list;  (** layer metrics only this instance can read *)
  close : unit -> unit;
  check : unit -> string list;
}

type workload = {
  name : string;
  tail_pct : float;  (** the tail percentile reported as [tail_us] *)
  count_ops : int;  (** fixed op count of the counting phases and of [space_amp] *)
  sizes : (string * int) list;
  setup : seed:int -> dir:string -> traced:bool -> instance;
}

(* A child span around one public call the benchmark makes; a no-op when
   tracing is off. *)
let call name f = Trace.with_span ~cat:"bench" name f

let no_explain () = ()
let zero () = 0
let no_extra () = []

(* -- files ----------------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left (fun acc f -> acc + dir_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

(* One field of /proc/<pid>/status, such as "VmHWM". *)
let proc_status pid key =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let prefix = key ^ ":" in
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.starts_with ~prefix line ->
            let n = String.length prefix in
            Some (String.trim (String.sub line n (String.length line - n)))
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Peak resident set of a process in KiB. *)
let vm_hwm_kb pid =
  match proc_status pid "VmHWM" with
  | Some v -> ( try Scanf.sscanf v "%d kB" Fun.id with Scanf.Scan_failure _ | End_of_file -> 0)
  | None -> 0

let self_peak_rss_kb () = vm_hwm_kb "self"

(* -- the paper's inventory schema (§2, §5, §6) ------------------------------ *)

(* One schema for every workload. The constraint is checked on every
   commit that touches an item; the perpetual [restock] trigger fires when
   an item's quantity falls to its reorder level, and its action runs as a
   weakly coupled follow-up transaction that refills the item. Only
   [inventory_oltp] activates it. *)
let schema =
  {|
  class supplier { sname: string; city: string; };
  class stockitem {
    sku: int; name: string; qty: int; reorder_level: int; max_level: int;
    price: float; sup: ref supplier;
    constraint in_stock_bounds: qty >= 0 && qty <= max_level;
    trigger perpetual restock(): qty <= reorder_level ==> { qty := max_level; };
  };
  |}

let cities =
  [| "nyc"; "berkeley hts"; "fishkill"; "austin"; "boston"; "denver"; "seattle"; "murray hill" |]

let define db =
  ignore (Db.define db schema);
  List.iter (Db.create_cluster db) [ "supplier"; "stockitem" ];
  Db.create_index db ~cls:"stockitem" ~field:"sku";
  Db.create_index db ~cls:"stockitem" ~field:"qty"

(* The model of one stock item: what the benchmark expects the database
   to hold for it. *)
type item = {
  oid : Oid.t;
  sku : int;
  name : string;
  mutable qty : int;
  reorder_level : int;
  max_level : int;
  mutable price : float;
  sup : Oid.t;
  mutable versions : int;
}

let item_bytes it = (6 * 8) + String.length it.name

(* Store a fresh item. Quantities start above the reorder level, so
   activating [restock] never fires at once; prices are whole cents. *)
let new_item txn rng ~sku ~sup =
  let reorder_level = 20 + Prng.int rng 80 in
  let max_level = 400 + Prng.int rng 600 in
  let qty = reorder_level + 1 + Prng.int rng (max_level - reorder_level) in
  let price = float_of_int (100 + Prng.int rng 99_900) /. 100. in
  let name = Printf.sprintf "item-%07d" sku in
  let oid =
    Db.pnew txn "stockitem"
      [
        ("sku", Value.Int sku);
        ("name", Value.Str name);
        ("qty", Value.Int qty);
        ("reorder_level", Value.Int reorder_level);
        ("max_level", Value.Int max_level);
        ("price", Value.Float price);
        ("sup", Value.Ref sup);
      ]
  in
  { oid; sku; name; qty; reorder_level; max_level; price; sup; versions = 1 }

(* Suppliers, one transaction; returns (oid, city) in creation order.
   Cities are dealt in a fixed pattern and items are dealt to suppliers
   in turn, so a seed changes the values but never the shape (how many
   items a supplier has, how long each supplier record is). *)
let load_suppliers db n =
  Db.with_txn db (fun txn ->
      Array.init n (fun i ->
          let city = cities.(if i mod 4 = 0 then 0 else 1 + (i mod (Array.length cities - 1))) in
          let oid =
            Db.pnew txn "supplier"
              [ ("sname", Value.Str (Printf.sprintf "sup-%04d" i)); ("city", Value.Str city) ]
          in
          (oid, city)))

let supplier_bytes (sups : (Oid.t * string) array) =
  Array.fold_left (fun acc (_, city) -> acc + 9 + String.length city) 0 sups

(* [n] items over the suppliers, in transactions of 500 items. [f] runs
   inside the item's transaction after it is stored. *)
let load_items ?(f = fun _ _ -> ()) db rng sups n =
  let batch = 500 in
  let items = Array.make n None in
  let i = ref 0 in
  while !i < n do
    Db.with_txn db (fun txn ->
        for j = !i to min n (!i + batch) - 1 do
          let sup = fst sups.(j mod Array.length sups) in
          let it = new_item txn rng ~sku:j ~sup in
          f txn it;
          items.(j) <- Some it
        done);
    i := !i + batch
  done;
  Array.map Option.get items

(* -- engine readings by exported name -------------------------------------- *)

let hist_count name = match Histogram.find name with Some h -> Histogram.count h | None -> 0
let hist_sum_ns name = match Histogram.find name with Some h -> Histogram.sum_ns h | None -> 0

(* Everything the counting phase diffs: engine counters, the histogram
   tallies it divides by, the GC, and the commit LSN. A commit that writes
   appends a commit record and so advances the LSN; a read-only commit
   (every [with_read_txn], every autocommitted query) does not, though it
   still passes through [txn.commit]. *)
type reading = {
  stats : Stats.snapshot;
  commits : int;  (** [txn.commit] histogram count: every commit *)
  lsn : int;  (** commit records appended so far: commits that wrote *)
  page_reads : int;
  page_read_ns : int;
  gc : Gc.stat;
}

let read inst =
  {
    stats = Stats.snapshot ();
    commits = hist_count "txn.commit";
    lsn = (match inst.counting_db with Some db -> Db.lsn db | None -> 0);
    page_reads = hist_count "page.read";
    page_read_ns = hist_sum_ns "page.read";
    gc = Gc.quick_stat ();
  }

(* Begin, run [f], commit (draining trigger actions), each public call
   under its own span. *)
let with_txn db f =
  let txn = call "Database.begin_txn" (fun () -> Db.begin_txn db) in
  match f txn with
  | v ->
      call "Database.commit" (fun () -> Db.commit txn);
      v
  | exception e ->
      (try Db.abort txn with _ -> ());
      raise e

(* -- spans ----------------------------------------------------------------- *)

(* Per span name: how many, total duration, total self time (duration
   minus what its direct children cover), and how many sit under a
   [txn.commit] span. *)
type agg = { mutable n : int; mutable dur : int; mutable self : int; mutable in_commit : int }

type span_totals = {
  by_name : (string, agg) Hashtbl.t;
  mutable spans : int;
  mutable nesting_violations : int;  (** children whose time exceeds their parent's *)
}

let span_totals () = { by_name = Hashtbl.create 64; spans = 0; nesting_violations = 0 }

let agg t name =
  match Hashtbl.find_opt t.by_name name with
  | Some a -> a
  | None ->
      let a = { n = 0; dur = 0; self = 0; in_commit = 0 } in
      Hashtbl.replace t.by_name name a;
      a

(* Fold one trace's spans (one operation, one trace id) into the totals.
   The benchmark is single-threaded, so a span's parent is the innermost
   span that encloses it in time and sits higher in the nesting. Spans are
   visited in start order, parents before their children, and of two
   siblings stamped with the same start the one that ended first comes
   first (the clock is coarser than the shortest calls). A span emitted
   after the fact with depth 0 (the query profiler's [query.execute])
   is placed by time alone. A [txn.commit] span with no [wal.append]
   under it wrote nothing; it is totalled as [txn.commit.read_only], so
   [txn.commit] holds only the commits that write. *)
type open_span = {
  s : Trace.span;
  mutable kids : int;  (** time its direct children cover *)
  under : bool;  (** it sits under a [txn.commit] span *)
  mutable wrote : bool;  (** a [wal.append] sits under it *)
}

let add_trace totals (spans : Trace.span list) =
  let fin (s : Trace.span) = s.sp_start_ns + s.sp_dur_ns in
  let spans =
    List.sort
      (fun (a : Trace.span) b ->
        compare (a.sp_start_ns, a.sp_depth, fin a) (b.sp_start_ns, b.sp_depth, fin b))
      spans
  in
  let stack = ref [] in
  let close_top () =
    match !stack with
    | o :: rest ->
        stack := rest;
        let name =
          if o.s.sp_name = "txn.commit" && not o.wrote then "txn.commit.read_only"
          else o.s.sp_name
        in
        let a = agg totals name in
        a.n <- a.n + 1;
        a.dur <- a.dur + o.s.sp_dur_ns;
        a.self <- a.self + (o.s.sp_dur_ns - o.kids);
        if o.under then a.in_commit <- a.in_commit + 1;
        if o.kids > o.s.sp_dur_ns then totals.nesting_violations <- totals.nesting_violations + 1
    | [] -> ()
  in
  List.iter
    (fun (s : Trace.span) ->
      totals.spans <- totals.spans + 1;
      let rec pop () =
        match !stack with
        | p :: _
          when fin p.s < fin s || (p.s.sp_depth >= s.sp_depth && p.s.sp_depth > 0 && s.sp_depth > 0)
          ->
            close_top ();
            pop ()
        | _ -> ()
      in
      pop ();
      if s.sp_name = "wal.append" then List.iter (fun o -> o.wrote <- true) !stack;
      let under =
        match !stack with
        | p :: _ ->
            p.kids <- p.kids + s.sp_dur_ns;
            p.under || p.s.sp_name = "txn.commit"
        | [] -> false
      in
      stack := { s; kids = 0; under; wrote = false } :: !stack)
    spans;
  while !stack <> [] do
    close_top ()
  done

(* Drain the span ring into [totals], grouping by trace id. Returns the
   number of spans the ring dropped by wrapping (must be 0). *)
let drain_spans totals_list =
  let recorded = Trace.total_recorded () in
  let spans = Trace.spans () in
  let lost = recorded - List.length spans in
  Trace.clear ();
  let by_trace = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      Hashtbl.replace by_trace s.sp_trace
        (s :: Option.value (Hashtbl.find_opt by_trace s.sp_trace) ~default:[]))
    spans;
  Hashtbl.iter (fun _ ss -> List.iter (fun t -> add_trace t ss) totals_list) by_trace;
  lost

(* Collects the final oracle's findings, keeping the first few messages. *)
let problems () =
  let found = ref [] and count = ref 0 in
  let add msg =
    incr count;
    if !count <= 10 then found := msg :: !found
  in
  let result () =
    if !count > 10 then List.rev (Printf.sprintf "... %d problems in all" !count :: !found)
    else List.rev !found
  in
  (add, result)

(* Reopen a closed fixture, run the integrity checker, then [check] it
   against the model inside a read transaction. *)
let reopen_and_check ~dir ~add check =
  let db = open_db dir in
  Fun.protect
    ~finally:(fun () -> Db.close db)
    (fun () ->
      (match Ode.Verify.run db with
      | Ok () -> ()
      | Error errs -> List.iter (fun e -> add ("verify: " ^ e)) errs);
      Db.with_read_txn db (fun txn -> check db txn))

let check_item ~add txn (it : item) =
  match Db.get txn it.oid with
  | None -> add (Printf.sprintf "item %d is missing" it.sku)
  | Some fields ->
      let field f = List.assoc_opt f fields in
      if field "qty" <> Some (Value.Int it.qty) then
        add (Printf.sprintf "item %d: qty differs from the model" it.sku);
      if field "price" <> Some (Value.Float it.price) then
        add (Printf.sprintf "item %d: price differs from the model" it.sku)
