module Codec = Ode_util.Codec
module Pool = Ode_storage.Buffer_pool

let c_probes = Ode_util.Stats.counter "index_probes"
let c_cursor_pages_read = Ode_util.Stats.counter "cursor_pages_read"
let c_pages_reformatted = Ode_util.Stats.(counter ~group:Recovery "pages_reformatted")

let magic = "ODEBPT01"
let max_entry = 1024

(* Serialized-node budget. Nodes are (de)serialized whole; a node splits when
   its serialized size would exceed this. *)
let node_capacity = Ode_storage.Page.size - 16

type node =
  | Leaf of { mutable entries : (string * string) array; mutable next : int }
  | Internal of { mutable keys : string array; mutable children : int array }
(* Internal invariant: length children = length keys + 1; subtree children.(i)
   holds keys < keys.(i); children.(i+1) holds keys >= keys.(i). *)

type t = {
  pool : Pool.t;
  mutable root : int;
  mutable count : int;
  (* Decoded-node cache: every mutation goes through [write_node], which
     refreshes the entry, so the cache never goes stale. Bounded by periodic
     reset. [cache_mu] guards the table itself so reader domains can probe
     it concurrently; the nodes inside are only mutated by the (exclusive)
     writer, so a cached node handed out under the lock stays valid for the
     duration of the reader's request. *)
  node_cache : (int, node) Hashtbl.t;
  cache_mu : Mutex.t;
}

let cache_limit = 8192

(* -- node (de)serialization ------------------------------------------------ *)

let node_size = function
  | Leaf l ->
      Array.fold_left (fun acc (k, v) -> acc + 4 + String.length k + String.length v) 7 l.entries
  | Internal n ->
      Array.fold_left (fun acc k -> acc + 2 + String.length k + 4) 7 n.keys

(* Frame layout: [u16 size][node], the node encoded as
   [u8 kind][u16 count][u32 next | first child] followed by the entries
   ([u16 klen][key][u16 vlen][value] in a leaf, [u16 klen][key][u32 child]
   in an internal node). [encode] writes it straight into the page. *)
let put_string data off s =
  Bytes.set_uint16_le data off (String.length s);
  Bytes.blit_string s 0 data (off + 2) (String.length s);
  off + 2 + String.length s

let put_u32 data off n =
  Bytes.set_int32_le data off (Int32.of_int n);
  off + 4

let encode data size node =
  Bytes.set_uint16_le data 0 size;
  match node with
  | Leaf l ->
      Bytes.set_uint8 data 2 0;
      Bytes.set_uint16_le data 3 (Array.length l.entries);
      ignore (put_u32 data 5 l.next);
      ignore
        (Array.fold_left (fun off (k, v) -> put_string data (put_string data off k) v) 9 l.entries)
  | Internal n ->
      Bytes.set_uint8 data 2 1;
      Bytes.set_uint16_le data 3 (Array.length n.keys);
      ignore (put_u32 data 5 n.children.(0));
      let off = ref 9 in
      Array.iteri (fun i k -> off := put_u32 data (put_string data !off k) n.children.(i + 1)) n.keys

let decode c =
  match Codec.get_u8 c with
  | 0 ->
      let n = Codec.get_u16 c in
      let next = Codec.get_u32 c in
      let entries =
        Array.init n (fun _ ->
            let klen = Codec.get_u16 c in
            let k = Codec.get_raw c klen in
            let vlen = Codec.get_u16 c in
            let v = Codec.get_raw c vlen in
            (k, v))
      in
      Leaf { entries; next }
  | 1 ->
      let n = Codec.get_u16 c in
      let first = Codec.get_u32 c in
      let keys = Array.make n "" in
      let children = Array.make (n + 1) first in
      for i = 0 to n - 1 do
        let klen = Codec.get_u16 c in
        keys.(i) <- Codec.get_raw c klen;
        children.(i + 1) <- Codec.get_u32 c
      done;
      Internal { keys; children }
  | k -> raise (Codec.Corrupt (Printf.sprintf "bptree: bad node kind %d" k))

let read_node t page =
  match Mutex.protect t.cache_mu (fun () -> Hashtbl.find_opt t.node_cache page) with
  | Some n -> n
  | None ->
      (* A node pointer past the end of the file means the tail was trimmed
         (torn-write repair at open) or the page is rotten: surface it as
         corruption, not as an out-of-range programming error. *)
      if page < 0 || page >= Pool.page_count t.pool then
        raise
          (Codec.Corrupt
             (Printf.sprintf "bptree: node pointer %d beyond end of file (%d pages; truncated?)"
                page (Pool.page_count t.pool)));
      let n =
        Pool.with_page t.pool page (fun f ->
            (* Decoded under the pin; the cursor never outlives it. *)
            let data = Pool.data f in
            let size = Bytes.get_uint16_le data 0 in
            decode (Codec.cursor ~pos:2 ~len:size (Bytes.unsafe_to_string data)))
      in
      Mutex.protect t.cache_mu (fun () ->
          if Hashtbl.length t.node_cache >= cache_limit then Hashtbl.reset t.node_cache;
          Hashtbl.replace t.node_cache page n);
      n

let write_node t page node =
  (* Checked before any byte is written: the page's checksum trailer lies
     just past [node_capacity]. *)
  let size = node_size node in
  assert (size <= node_capacity);
  Pool.with_page t.pool page (fun f ->
      encode (Pool.data f) size node;
      Pool.mark_dirty t.pool f);
  Mutex.protect t.cache_mu (fun () ->
      if Hashtbl.length t.node_cache >= cache_limit then Hashtbl.reset t.node_cache;
      Hashtbl.replace t.node_cache page node)

let alloc_node t node =
  let f = Pool.allocate t.pool in
  let page = Pool.page_no f in
  Pool.unpin t.pool f;
  write_node t page node;
  page

(* -- header ----------------------------------------------------------------- *)

let write_header t =
  Pool.with_page t.pool 0 (fun f ->
      let data = Pool.data f in
      Bytes.fill data 0 Ode_storage.Page.size '\000';
      Bytes.blit_string magic 0 data 0 8;
      ignore (put_u32 data 8 t.root);
      Bytes.set_int64_le data 12 (Int64.of_int t.count);
      Pool.mark_dirty t.pool f)

let attach pool =
  if Pool.page_count pool = 0 then begin
    let f = Pool.allocate pool in
    assert (Pool.page_no f = 0);
    Pool.unpin pool f;
    let t = { pool; root = 0; count = 0; node_cache = Hashtbl.create 256; cache_mu = Mutex.create () } in
    let root = alloc_node t (Leaf { entries = [||]; next = 0 }) in
    t.root <- root;
    write_header t;
    t
  end
  else
    let header =
      Pool.with_page pool 0 (fun f ->
          let data = Pool.data f in
          let got = Bytes.sub_string data 0 8 in
          if got = magic then begin
            let c = Codec.cursor ~pos:8 (Bytes.to_string data) in
            let root = Codec.get_u32 c in
            let count = Int64.to_int (Codec.get_i64 c) in
            `Ok (root, count)
          end
          else if String.for_all (fun ch -> ch = '\000') got then `Never_flushed
          else invalid_arg "bptree: bad magic")
    in
    match header with
    | `Ok (root, count) -> { pool; root; count; node_cache = Hashtbl.create 256; cache_mu = Mutex.create () }
    | `Never_flushed ->
        (* A crash before the first flush left a stamped all-zero header:
           the tree was never durably initialised. Rebuild it empty; any
           other leftover pages are unreachable from the new root. *)
        Ode_util.Stats.incr c_pages_reformatted;
        let t = { pool; root = 0; count = 0; node_cache = Hashtbl.create 256; cache_mu = Mutex.create () } in
        let root = alloc_node t (Leaf { entries = [||]; next = 0 }) in
        t.root <- root;
        write_header t;
        t

(* -- search helpers ---------------------------------------------------------- *)

(* Index of the child to descend into for [key]. *)
let child_index keys key =
  let n = Array.length keys in
  let rec bs lo hi =
    (* smallest i with key < keys.(i); descend child i *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if String.compare key keys.(mid) < 0 then bs lo mid else bs (mid + 1) hi
  in
  bs 0 n

(* Position of [key] in a sorted entry array: Ok i if present, Error i for
   the insertion point. *)
let entry_index entries key =
  let n = Array.length entries in
  let rec bs lo hi =
    if lo >= hi then Error lo
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare key (fst entries.(mid)) in
      if c = 0 then Ok mid else if c < 0 then bs lo mid else bs (mid + 1) hi
  in
  bs 0 n

let rec find_leaf t page key =
  match read_node t page with
  | Leaf _ as l -> (page, l)
  | Internal n -> find_leaf t n.children.(child_index n.keys key) key

(* -- public: lookup ----------------------------------------------------------- *)

let find t key =
  Ode_util.Stats.incr c_probes;
  Ode_util.Trace.instant ~cat:"index" "bptree.find";
  match find_leaf t t.root key with
  | _, Leaf l -> (
      match entry_index l.entries key with
      | Ok i -> Some (snd l.entries.(i))
      | Error _ -> None)
  | _ -> assert false

let mem t key = find t key <> None

(* -- public: insert ----------------------------------------------------------- *)

let array_insert arr i x =
  let n = Array.length arr in
  Array.init (n + 1) (fun j -> if j < i then arr.(j) else if j = i then x else arr.(j - 1))

let array_remove arr i =
  let n = Array.length arr in
  Array.init (n - 1) (fun j -> if j < i then arr.(j) else arr.(j + 1))

(* Insert below [page]; if the node split, return (separator, right page). *)
let rec insert_at t page key value =
  match read_node t page with
  | Leaf l ->
      let entries =
        match entry_index l.entries key with
        | Ok i ->
            let e = Array.copy l.entries in
            e.(i) <- (key, value);
            e
        | Error i ->
            t.count <- t.count + 1;
            array_insert l.entries i (key, value)
      in
      let node = Leaf { entries; next = l.next } in
      if node_size node <= node_capacity then begin
        write_node t page node;
        None
      end
      else begin
        let n = Array.length entries in
        let mid = n / 2 in
        let left = Array.sub entries 0 mid in
        let right = Array.sub entries mid (n - mid) in
        let right_page = alloc_node t (Leaf { entries = right; next = l.next }) in
        write_node t page (Leaf { entries = left; next = right_page });
        Some (fst right.(0), right_page)
      end
  | Internal n -> (
      let ci = child_index n.keys key in
      match insert_at t n.children.(ci) key value with
      | None -> None
      | Some (sep, right_page) ->
          let keys = array_insert n.keys ci sep in
          let children = array_insert n.children (ci + 1) right_page in
          let node = Internal { keys; children } in
          if node_size node <= node_capacity then begin
            write_node t page node;
            None
          end
          else begin
            (* Split internal: middle key moves up. *)
            let k = Array.length keys in
            let mid = k / 2 in
            let up = keys.(mid) in
            let lkeys = Array.sub keys 0 mid in
            let rkeys = Array.sub keys (mid + 1) (k - mid - 1) in
            let lchildren = Array.sub children 0 (mid + 1) in
            let rchildren = Array.sub children (mid + 1) (k - mid) in
            let right_page = alloc_node t (Internal { keys = rkeys; children = rchildren }) in
            write_node t page (Internal { keys = lkeys; children = lchildren });
            Some (up, right_page)
          end)

let insert t key value =
  if key = "" then invalid_arg "bptree: empty key";
  if String.length key + String.length value > max_entry then
    invalid_arg "bptree: entry too large";
  Ode_util.Stats.incr c_probes;
  Ode_util.Trace.instant ~cat:"index" "bptree.insert";
  (match insert_at t t.root key value with
  | None -> ()
  | Some (sep, right) ->
      let root = alloc_node t (Internal { keys = [| sep |]; children = [| t.root; right |] }) in
      t.root <- root);
  write_header t

(* -- public: delete ------------------------------------------------------------ *)

let delete t key =
  Ode_util.Stats.incr c_probes;
  Ode_util.Trace.instant ~cat:"index" "bptree.delete";
  let page, node = find_leaf t t.root key in
  match node with
  | Leaf l -> (
      match entry_index l.entries key with
      | Error _ -> false
      | Ok i ->
          write_node t page (Leaf { entries = array_remove l.entries i; next = l.next });
          t.count <- t.count - 1;
          write_header t;
          true)
  | Internal _ -> assert false

(* -- public: streaming cursor ----------------------------------------------------- *)

(* A cursor holds one leaf's entry array plus the forward link to the next
   leaf. Entry arrays are never mutated in place (inserts and deletes build
   fresh arrays), so the snapshot stays valid even if the tree is written
   between [next] calls — the cursor simply keeps walking the leaf chain it
   seeked into. Page 0 is the tree header, so [cnext = 0] means "no further
   leaf". *)
type cursor = {
  ct : t;
  mutable centries : (string * string) array;
  mutable cidx : int;
  mutable cnext : int;
  chi : string option;
  cinclusive_hi : bool;
}

let cursor t ?lo ?hi ?(inclusive_hi = false) () =
  Ode_util.Stats.incr c_probes;
  Ode_util.Trace.instant ~cat:"index" "bptree.cursor";
  let start_key = Option.value lo ~default:"" in
  match find_leaf t t.root start_key with
  | _, Internal _ -> assert false
  | _, Leaf l ->
      Ode_util.Stats.incr c_cursor_pages_read;
      (* Both [Ok i] and [Error i] index the first entry >= start_key. *)
      let idx = match entry_index l.entries start_key with Ok i -> i | Error i -> i in
      { ct = t; centries = l.entries; cidx = idx; cnext = l.next; chi = hi; cinclusive_hi = inclusive_hi }

let rec cursor_next cur =
  if cur.cidx < Array.length cur.centries then begin
    let (k, _) as entry = cur.centries.(cur.cidx) in
    cur.cidx <- cur.cidx + 1;
    let below_hi =
      match cur.chi with
      | None -> true
      | Some h ->
          let c = String.compare k h in
          if cur.cinclusive_hi then c <= 0 else c < 0
    in
    if below_hi then Some entry
    else begin
      cur.centries <- [||];
      cur.cnext <- 0;
      None
    end
  end
  else if cur.cnext = 0 then None
  else
    match read_node cur.ct cur.cnext with
    | Internal _ -> assert false
    | Leaf l ->
        Ode_util.Stats.incr c_cursor_pages_read;
        cur.centries <- l.entries;
        cur.cidx <- 0;
        cur.cnext <- l.next;
        cursor_next cur

let cursor_prefix t prefix =
  match Ode_util.Key.succ_prefix prefix with
  | Some hi -> cursor t ~lo:prefix ~hi ()
  | None -> cursor t ~lo:prefix ()

(* -- public: range scans --------------------------------------------------------- *)

let iter_range t ?lo ?hi ?inclusive_hi f =
  let cur = cursor t ?lo ?hi ?inclusive_hi () in
  let rec go () =
    match cursor_next cur with
    | None -> ()
    | Some (k, v) -> if f k v then go ()
  in
  go ()

(* Reverse-order scan. Leaves are only forward-linked, so this walks the
   tree top-down visiting children right-to-left; bounds prune subtrees. *)
let iter_range_rev t ?lo ?hi ?(inclusive_hi = false) f =
  Ode_util.Stats.incr c_probes;
  let below_hi k =
    match hi with
    | None -> true
    | Some h ->
        let c = String.compare k h in
        if inclusive_hi then c <= 0 else c < 0
  in
  let above_lo k = match lo with None -> true | Some l -> String.compare k l >= 0 in
  let exception Stop in
  let rec walk page =
    match read_node t page with
    | Leaf l ->
        for i = Array.length l.entries - 1 downto 0 do
          let k, v = l.entries.(i) in
          if below_hi k && above_lo k then if not (f k v) then raise Stop
        done
    | Internal n ->
        for i = Array.length n.children - 1 downto 0 do
          (* child i spans [keys.(i-1), keys.(i)); prune with the bounds *)
          let child_min = if i = 0 then None else Some n.keys.(i - 1) in
          let child_max = if i = Array.length n.keys then None else Some n.keys.(i) in
          let overlaps_lo =
            match (lo, child_max) with
            | Some l, Some cmax -> String.compare cmax l > 0
            | _ -> true
          in
          let overlaps_hi =
            match (hi, child_min) with
            | Some h, Some cmin ->
                if inclusive_hi then String.compare cmin h <= 0 else String.compare cmin h < 0
            | _ -> true
          in
          if overlaps_lo && overlaps_hi then walk n.children.(i)
        done
  in
  try walk t.root with Stop -> ()

let iter_prefix_rev t prefix f =
  match Ode_util.Key.succ_prefix prefix with
  | Some hi -> iter_range_rev t ~lo:prefix ~hi f
  | None -> iter_range_rev t ~lo:prefix f

let iter_prefix t prefix f =
  match Ode_util.Key.succ_prefix prefix with
  | Some hi -> iter_range t ~lo:prefix ~hi f
  | None -> iter_range t ~lo:prefix f

let count t = t.count
let page_count t = Pool.page_count t.pool
let pool t = t.pool
let flush t = Pool.flush_all t.pool

let rec node_height t page =
  match read_node t page with
  | Leaf _ -> 1
  | Internal n -> 1 + node_height t n.children.(0)

let height t = node_height t t.root

(* -- structural check -------------------------------------------------------------- *)

let check t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let exception Bad of string in
  (* Verify key order inside every node, separator bounds, and count. *)
  let seen = ref 0 in
  let rec go page ~lo ~hi =
    match read_node t page with
    | Leaf l ->
        Array.iter
          (fun (k, _) ->
            incr seen;
            (match lo with
            | Some l0 when String.compare k l0 < 0 -> raise (Bad "leaf key below bound")
            | _ -> ());
            match hi with
            | Some h0 when String.compare k h0 >= 0 -> raise (Bad "leaf key above bound")
            | _ -> ())
          l.entries;
        let rec sorted i =
          i >= Array.length l.entries - 1
          || String.compare (fst l.entries.(i)) (fst l.entries.(i + 1)) < 0 && sorted (i + 1)
        in
        if not (sorted 0) then raise (Bad "leaf unsorted")
    | Internal n ->
        let rec sorted i =
          i >= Array.length n.keys - 1
          || String.compare n.keys.(i) n.keys.(i + 1) < 0 && sorted (i + 1)
        in
        if not (sorted 0) then raise (Bad "internal unsorted");
        Array.iteri
          (fun i child ->
            let lo' = if i = 0 then lo else Some n.keys.(i - 1) in
            let hi' = if i = Array.length n.keys then hi else Some n.keys.(i) in
            go child ~lo:lo' ~hi:hi')
          n.children
  in
  match go t.root ~lo:None ~hi:None with
  | () -> if !seen <> t.count then fail "count mismatch: header %d, found %d" t.count !seen else Ok ()
  | exception Bad msg -> Error msg
