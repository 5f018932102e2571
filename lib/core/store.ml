module Codec = Ode_util.Codec
module Oid = Ode_model.Oid
module Value = Ode_model.Value
module Otype = Ode_model.Otype
module Schema = Ode_model.Schema
module Catalog = Ode_model.Catalog
module Bptree = Ode_index.Bptree
open Types

let c_fetched = Ode_util.Stats.counter "objects_fetched"

exception Type_error of string
exception No_cluster of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

type header = Types.header = { hcls : int; hcurrent : int; hversions : int list }

let encode_header h =
  let b = Buffer.create 24 in
  Codec.put_u32 b h.hcls;
  Codec.put_u32 b h.hcurrent;
  Codec.put_u16 b (List.length h.hversions);
  List.iter (Codec.put_u32 b) h.hversions;
  Buffer.contents b

let decode_header s =
  let c = Codec.cursor s in
  let hcls = Codec.get_u32 c in
  let hcurrent = Codec.get_u32 c in
  let n = Codec.get_u16 c in
  { hcls; hcurrent; hversions = List.init n (fun _ -> Codec.get_u32 c) }

(* -- overlay ---------------------------------------------------------------- *)

(* The snapshot a read resolves against: the transaction's read timestamp,
   or "latest" for embedded callers that pass no transaction (max_int makes
   every chain head visible, i.e. the plain committed state). *)
let read_ts_of = function Some t -> t.read_ts | None -> max_int

let read db txn key =
  let from_writes =
    match txn with
    | Some t -> Hashtbl.find_opt t.writes key
    | None -> None
  in
  match from_writes with
  | Some (Put s) -> Some s
  | Some Del -> None
  | None -> (
      match Mvcc.read db.mvcc ~read_ts:(read_ts_of txn) key with
      | Mvcc.Older v -> v
      | Mvcc.Latest -> Kv.get db key)

(* The two overlay choke points: every mutation in this module funnels
   through them. A detached read txn (reader domain) is rejected before the
   overlay — or any shared structure — is touched, so the server can replay
   the request on the writer domain. *)
let write txn key payload =
  if txn.tro then raise Read_only_txn;
  Hashtbl.replace txn.writes key (Put payload)

let remove txn key =
  if txn.tro then raise Read_only_txn;
  Hashtbl.replace txn.writes key Del

(* -- object reads -------------------------------------------------------------- *)

(* Reads go overlay -> decoded-object cache -> committed KV. The cache is
   only consulted and only populated when the transaction has no pending
   write for the key, so it never absorbs or serves uncommitted state. *)

let pending txn key =
  match txn with Some t -> Hashtbl.find_opt t.writes key | None -> None

let get_header db txn oid =
  let key = Keys.header oid in
  match pending txn key with
  | Some (Put s) -> Some (decode_header s)
  | Some Del -> None
  | None -> (
      (* Snapshot resolution before the cache: the decoded-object cache
         holds only the *latest* committed state, so a read that an MVCC
         chain answers (the key changed past this snapshot) bypasses it
         entirely — in both directions: never served from it, never
         populated into it. *)
      match Mvcc.read db.mvcc ~read_ts:(read_ts_of txn) key with
      | Mvcc.Older None -> None
      | Mvcc.Older (Some s) -> Some (decode_header s)
      | Mvcc.Latest -> (
          match Ocache.find db key with
          | Some (Cheader h) -> Some h
          | Some (Cfields _) | None -> (
              match Kv.get db key with
              | None -> None
              | Some s ->
                  let h = decode_header s in
                  Ocache.add db key (Cheader h);
                  Some h)))

let exists db txn oid = get_header db txn oid <> None
let class_of db (oid : Oid.t) = Catalog.find_by_id db.catalog oid.cls

let get_fields_v db txn (vr : Oid.vref) =
  let key = Keys.version vr.oid vr.ver in
  match pending txn key with
  | Some (Put s) ->
      Ode_util.Stats.incr c_fetched;
      Some (Value.fields_decode s)
  | Some Del -> None
  | None -> (
      match Mvcc.read db.mvcc ~read_ts:(read_ts_of txn) key with
      | Mvcc.Older None -> None
      | Mvcc.Older (Some s) ->
          Ode_util.Stats.incr c_fetched;
          Some (Value.fields_decode s)
      | Mvcc.Latest -> (
          match Ocache.find db key with
          | Some (Cfields fs) -> Some fs
          | Some (Cheader _) | None -> (
              match Kv.get db key with
              | None -> None
              | Some s ->
                  Ode_util.Stats.incr c_fetched;
                  let fs = Value.fields_decode s in
                  Ocache.add db key (Cfields fs);
                  Some fs)))

let get_fields db txn oid =
  match get_header db txn oid with
  | None -> None
  | Some h -> get_fields_v db txn { oid; ver = h.hcurrent }

let get_field db txn oid fname =
  match get_fields db txn oid with None -> None | Some fs -> List.assoc_opt fname fs

let get_field_v db txn vr fname =
  match get_fields_v db txn vr with None -> None | Some fs -> List.assoc_opt fname fs

(* -- index plumbing --------------------------------------------------------------- *)

let applicable_indexes db (cls : Schema.cls) =
  let ancestors = List.map (fun (a : Schema.cls) -> a.Schema.name) (Catalog.lineage db.catalog cls) in
  let rec go i = function
    | [] -> []
    | (icls, field) :: rest ->
        if List.mem icls ancestors then (i, field) :: go (i + 1) rest else go (i + 1) rest
  in
  go 0 (Catalog.indexes db.catalog)

let index_ids db ~cls ~field =
  let rec go i = function
    | [] -> None
    | (c, f) :: rest -> if c = cls && f = field then Some i else go (i + 1) rest
  in
  go 0 (Catalog.indexes db.catalog)

let index_put txn ~idx_id ~value ~oid =
  write txn (Keys.index_entry ~idx_id ~valkey:(Value.index_key value) ~oid) ""

let index_del txn ~idx_id ~value ~oid =
  remove txn (Keys.index_entry ~idx_id ~valkey:(Value.index_key value) ~oid)

let field_value fields fname =
  match List.assoc_opt fname fields with Some v -> v | None -> Value.Null

(* -- conformance -------------------------------------------------------------------- *)

let check_conform db cls_name (field : Schema.field) v =
  let class_of oid = Option.map (fun (c : Schema.cls) -> c.Schema.name) (class_of db oid) in
  let subclass ~sub ~super = Catalog.is_subclass db.catalog ~sub ~super in
  if not (Otype.conforms ~subclass field.ftype v ~class_of) then
    type_error "class %s: field %s expects %s, got %a" cls_name field.fname
      (Otype.to_string field.ftype) Value.pp v

(* -- mutations ------------------------------------------------------------------------ *)

let touch txn oid = Hashtbl.replace txn.touched oid ()

let create txn (cls : Schema.cls) inits =
  let db = txn.tdb in
  (* Guard before the next_num bump and catalog_dirty flag: [create] mutates
     shared schema state ahead of its overlay writes. *)
  if txn.tro then raise Read_only_txn;
  if not (Catalog.has_cluster db.catalog cls) then raise (No_cluster cls.Schema.name);
  let fields = Catalog.all_fields db.catalog cls in
  let names = Schema.field_names fields in
  List.iter
    (fun (n, _) -> if not (List.mem n names) then type_error "class %s has no field %s" cls.Schema.name n)
    inits;
  let values =
    List.map
      (fun (f : Schema.field) ->
        let v =
          match List.assoc_opt f.fname inits with
          | Some v -> v
          | None -> (
              (* Member initializer if declared, else the type's zero.
                 Initializers are closed expressions (enforced at class
                 definition time), so the detached evaluator suffices. *)
              match f.fdefault with
              | Some e -> (
                  match
                    Ode_model.Eval.eval Ode_model.Eval.null_hooks ~vars:[] ~this:None e
                  with
                  | v -> v
                  | exception Ode_model.Eval.Error msg ->
                      type_error "class %s: default for %s failed: %s" cls.Schema.name f.fname msg)
              | None -> Otype.default_value f.ftype)
        in
        check_conform db cls.Schema.name f v;
        (f.fname, v))
      fields
  in
  let num = cls.Schema.next_num in
  cls.Schema.next_num <- num + 1;
  txn.catalog_dirty <- true;
  let oid : Oid.t = { cls = cls.Schema.id; num } in
  write txn (Keys.header oid) (encode_header { hcls = cls.Schema.id; hcurrent = 0; hversions = [ 0 ] });
  write txn (Keys.version oid 0) (Value.fields_encode values);
  List.iter
    (fun (idx_id, fname) -> index_put txn ~idx_id ~value:(field_value values fname) ~oid)
    (applicable_indexes db cls);
  txn.created <- oid :: txn.created;
  touch txn oid;
  oid

let require_header db txn oid =
  match get_header db txn oid with
  | Some h -> h
  | None -> type_error "no such object %a" Oid.pp oid

let cls_of_header db (h : header) =
  match Catalog.find_by_id db.catalog h.hcls with
  | Some c -> c
  | None -> type_error "object of unknown class id %d" h.hcls

let update_fields txn oid updates =
  let db = txn.tdb in
  let h = require_header db (Some txn) oid in
  let cls = cls_of_header db h in
  let schema_fields = Catalog.all_fields db.catalog cls in
  let old_fields =
    match get_fields_v db (Some txn) { oid; ver = h.hcurrent } with
    | Some fs -> fs
    | None -> type_error "object %a: missing current version" Oid.pp oid
  in
  List.iter
    (fun (n, v) ->
      match Schema.find_field schema_fields n with
      | None -> type_error "class %s has no field %s" cls.Schema.name n
      | Some f -> check_conform db cls.Schema.name f v)
    updates;
  let new_fields =
    List.map
      (fun (n, old) ->
        match List.assoc_opt n updates with Some v -> (n, v) | None -> (n, old))
      old_fields
  in
  write txn (Keys.version oid h.hcurrent) (Value.fields_encode new_fields);
  (* Refresh index entries whose field changed. *)
  List.iter
    (fun (idx_id, fname) ->
      let old_v = field_value old_fields fname in
      let new_v = field_value new_fields fname in
      if not (Value.equal old_v new_v) then begin
        index_del txn ~idx_id ~value:old_v ~oid;
        index_put txn ~idx_id ~value:new_v ~oid
      end)
    (applicable_indexes db cls);
  touch txn oid

let delete_object txn oid =
  let db = txn.tdb in
  let h = require_header db (Some txn) oid in
  let cls = cls_of_header db h in
  let cur_fields =
    match get_fields_v db (Some txn) { oid; ver = h.hcurrent } with Some fs -> fs | None -> []
  in
  List.iter (fun ver -> remove txn (Keys.version oid ver)) h.hversions;
  remove txn (Keys.header oid);
  List.iter
    (fun (idx_id, fname) -> index_del txn ~idx_id ~value:(field_value cur_fields fname) ~oid)
    (applicable_indexes db cls);
  touch txn oid

let new_version txn oid =
  let db = txn.tdb in
  let h = require_header db (Some txn) oid in
  let cur =
    match get_fields_v db (Some txn) { oid; ver = h.hcurrent } with
    | Some fs -> fs
    | None -> type_error "object %a: missing current version" Oid.pp oid
  in
  (* [hversions] is newest-first, so the next version number is one past the
     head — no list traversal or append. *)
  let next = match h.hversions with [] -> 0 | newest :: _ -> newest + 1 in
  write txn (Keys.version oid next) (Value.fields_encode cur);
  write txn (Keys.header oid)
    (encode_header { h with hcurrent = next; hversions = next :: h.hversions });
  (* The new version is current and has the same field values, so index
     entries are already correct. *)
  touch txn oid;
  next

let delete_version txn (vr : Oid.vref) =
  let db = txn.tdb in
  let h = require_header db (Some txn) vr.oid in
  if not (List.mem vr.ver h.hversions) then
    type_error "object %a has no version %d" Oid.pp vr.oid vr.ver;
  let remaining = List.filter (fun v -> v <> vr.ver) h.hversions in
  match remaining with
  | [] -> delete_object txn vr.oid
  | _ ->
      let cls = cls_of_header db h in
      if vr.ver = h.hcurrent then begin
        (* Promote the newest remaining version (the list is newest-first);
           the index must now reflect its field values instead of the
           deleted current's. *)
        let new_current = List.hd remaining in
        let old_fields =
          match get_fields_v db (Some txn) { oid = vr.oid; ver = h.hcurrent } with
          | Some fs -> fs
          | None -> []
        in
        let new_fields =
          match get_fields_v db (Some txn) { oid = vr.oid; ver = new_current } with
          | Some fs -> fs
          | None -> []
        in
        List.iter
          (fun (idx_id, fname) ->
            let old_v = field_value old_fields fname in
            let new_v = field_value new_fields fname in
            if not (Value.equal old_v new_v) then begin
              index_del txn ~idx_id ~value:old_v ~oid:vr.oid;
              index_put txn ~idx_id ~value:new_v ~oid:vr.oid
            end)
          (applicable_indexes db cls);
        write txn (Keys.header vr.oid)
          (encode_header { h with hcurrent = new_current; hversions = remaining })
      end
      else write txn (Keys.header vr.oid) (encode_header { h with hversions = remaining });
      remove txn (Keys.version vr.oid vr.ver);
      touch txn vr.oid

(* -- apply (commit & recovery) ----------------------------------------------------------- *)

let apply_op db key op =
  if Keys.is_index_key key then begin
    let tkey = Keys.index_tree_key key in
    match op with
    | Put _ -> Bptree.insert db.idx tkey ""
    | Del -> ignore (Bptree.delete db.idx tkey)
  end
  else
    match op with
    | Put payload ->
        (* The stats hook rides the single apply choke point, so commit
           apply, recovery replay and standby apply all maintain the same
           cardinality counters; a replayed/replicated analyze snapshot
           installs itself the same way. *)
        if key = Keys.stats then Ostats.install db payload
        else if Ostats.is_header_key key && not (Kv.mem db key) then
          Ostats.note_create db key;
        Kv.put db key payload
    | Del ->
        if Ostats.is_header_key key && Kv.mem db key then Ostats.note_delete db key;
        Kv.delete db key

(* The current committed value of a logical key — the pre-image the MVCC
   layer records as a new chain's base entry just before a commit applies
   over it. Index entries live in the index tree (present = [Some ""]),
   everything else in the KV. Called under the exclusive latch. *)
let committed_image db key =
  if Keys.is_index_key key then
    if Bptree.find db.idx (Keys.index_tree_key key) <> None then Some "" else None
  else Kv.get db key
