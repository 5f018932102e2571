(* inventory_oltp: the paper's inventory (§2, §5, §6) under a write mix.
   Every operation is one transaction on a uniformly chosen live item:
   60% consume (read qty, lower it, never below 0), 15% receive (a new
   item with its restock trigger), 15% discontinue (delete), 10% revise
   (new version with a new price). Receive and discontinue balance, so
   the extent stays near its initial size. Nearly all the time goes to
   the commit path and no query runs, so a read-path change should leave
   it alone. *)

open Bench

let items = 20_000
let suppliers = 200

(* Live objects of a model, with uniform picks and O(1) removal. *)
type 'a live = { mutable slots : 'a array; mutable len : int }

let live_of_array a = { slots = Array.copy a; len = Array.length a }

let live_add l x =
  if l.len = Array.length l.slots then l.slots <- Array.append l.slots l.slots;
  l.slots.(l.len) <- x;
  l.len <- l.len + 1

let live_pick rng l = l.slots.(Prng.int rng l.len)

let live_take rng l =
  let i = Prng.int rng l.len in
  let x = l.slots.(i) in
  l.slots.(i) <- l.slots.(l.len - 1);
  l.len <- l.len - 1;
  x

let live_iter f l =
  for i = 0 to l.len - 1 do
    f l.slots.(i)
  done

let activate txn (it : item) = ignore (Db.activate txn it.oid "restock" [])

let setup ~seed ~dir ~traced:_ =
  let rng = Prng.create seed in
  let db = open_db dir in
  define db;
  let sups = load_suppliers db suppliers in
  let live = live_of_array (load_items ~f:activate db rng sups items) in
  ignore (Db.analyze db);
  let next_sku = ref items and dead = ref [] in
  let consume () =
    let it = live_pick rng live in
    let k = 1 + Prng.int rng 60 in
    let seen =
      with_txn db (fun txn ->
          let seen = call "Database.get_field" (fun () -> Db.get_field txn it.oid "qty") in
          let qty = max 0 (it.qty - k) in
          call "Database.set_field" (fun () -> Db.set_field txn it.oid "qty" (Value.Int qty));
          seen)
    in
    let ok = seen = Value.Int it.qty in
    let qty = max 0 (it.qty - k) in
    (* The perpetual trigger fires on the edge into [qty <= reorder_level];
       its follow-up transaction refills the item. *)
    it.qty <- (if it.qty > it.reorder_level && qty <= it.reorder_level then it.max_level else qty);
    ok
  in
  let receive () =
    let sup = fst sups.(!next_sku mod suppliers) in
    let it =
      with_txn db (fun txn ->
          let it = call "Database.pnew" (fun () -> new_item txn rng ~sku:!next_sku ~sup) in
          call "Database.activate" (fun () -> activate txn it);
          it)
    in
    incr next_sku;
    live_add live it;
    true
  in
  let discontinue () =
    let it = live_take rng live in
    with_txn db (fun txn -> call "Database.pdelete" (fun () -> Db.pdelete txn it.oid));
    dead := it :: !dead;
    true
  in
  let revise () =
    let it = live_pick rng live in
    let price = float_of_int (100 + Prng.int rng 99_900) /. 100. in
    with_txn db (fun txn ->
        ignore (call "Database.newversion" (fun () -> Db.newversion txn it.oid));
        call "Database.set_field" (fun () -> Db.set_field txn it.oid "price" (Value.Float price)));
    it.price <- price;
    it.versions <- it.versions + 1;
    true
  in
  let op () =
    let r = Prng.int rng 100 in
    if r < 60 then consume ()
    else if r < 75 then receive ()
    else if r < 90 then discontinue ()
    else revise ()
  in
  let check () =
    let add, result = problems () in
    reopen_and_check ~dir ~add (fun db txn ->
        live_iter
          (fun it ->
            check_item ~add txn it;
            let versions = List.length (Db.versions txn it.oid) in
            if versions <> it.versions then
              add (Printf.sprintf "item %d: %d versions, model has %d" it.sku versions it.versions))
          live;
        List.iter
          (fun it ->
            if Db.exists db ~txn it.oid then add (Printf.sprintf "deleted item %d exists" it.sku))
          !dead;
        let n = Ode.Query.count db ~txn ~var:"i" ~cls:"stockitem" () in
        if n <> live.len then
          add (Printf.sprintf "extent holds %d items, model has %d" n live.len));
    result ()
  in
  {
    op;
    count_op = op;
    explain = no_explain;
    user_bytes =
      (fun () ->
        let b = ref (supplier_bytes sups) in
        live_iter (fun it -> b := !b + item_bytes it) live;
        !b);
    peak_rss_kb = self_peak_rss_kb;
    counting_db = Some db;
    results = zero;
    queries = zero;
    extra = no_extra;
    close = (fun () -> Db.close db);
    check;
  }

let workload =
  {
    name = "inventory_oltp";
    tail_pct = 99.;
    count_ops = 2000;
    sizes = [ ("items", items); ("suppliers", suppliers) ];
    setup;
  }
