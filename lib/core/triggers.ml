(* Triggers (paper §6).

   Triggers are declared in classes and *activated* per object; activation
   returns a trigger id usable for explicit deactivation. Two kinds:
   once-only (deactivated automatically after firing) and perpetual. Timed
   triggers carry a [within t] deadline on a logical clock: if the condition
   does not come true by the deadline, the timeout action runs instead.

   Conditions are conceptually evaluated at the end of each transaction; we
   evaluate them over the write set of the committing transaction, for the
   objects it touched. A firing only *schedules* the action: the action runs
   as its own transaction after the triggering one commits ("weak
   coupling"), so actions of an aborted transaction never run. *)

module Codec = Ode_util.Codec
module Oid = Ode_model.Oid
module Value = Ode_model.Value
module Schema = Ode_model.Schema
module Catalog = Ode_model.Catalog
module Eval = Ode_model.Eval
open Types

let c_fired = Ode_util.Stats.counter "triggers_fired"

exception Trigger_error of string

let err fmt = Format.kasprintf (fun s -> raise (Trigger_error s)) fmt

(* -- persistence of activation records ------------------------------------- *)

let encode_activation (a : activation) =
  let b = Buffer.create 64 in
  Codec.put_int b a.tid;
  Oid.encode b a.aoid;
  Codec.put_string b a.tcls;
  Codec.put_string b a.tname;
  Codec.put_u16 b (List.length a.targs);
  List.iter (Value.encode b) a.targs;
  Codec.put_bool b a.perpetual;
  (match a.deadline with
  | None -> Codec.put_bool b false
  | Some d ->
      Codec.put_bool b true;
      Codec.put_int b d);
  Codec.put_bool b a.active;
  Buffer.contents b

let decode_activation s =
  let c = Codec.cursor s in
  let tid = Codec.get_int c in
  let aoid = Oid.decode c in
  let tcls = Codec.get_string c in
  let tname = Codec.get_string c in
  let n = Codec.get_u16 c in
  let targs = List.init n (fun _ -> Value.decode c) in
  let perpetual = Codec.get_bool c in
  let deadline = if Codec.get_bool c then Some (Codec.get_int c) else None in
  let active = Codec.get_bool c in
  { tid; aoid; tcls; tname; targs; perpetual; deadline; active }

(* -- in-memory mirror --------------------------------------------------------- *)

let register db a =
  Hashtbl.replace db.activations a.tid a;
  let existing = Option.value (Hashtbl.find_opt db.by_oid a.aoid) ~default:[] in
  if not (List.mem a.tid existing) then Hashtbl.replace db.by_oid a.aoid (a.tid :: existing)

let unregister db tid =
  match Hashtbl.find_opt db.activations tid with
  | None -> ()
  | Some a ->
      Hashtbl.remove db.activations tid;
      let remaining =
        List.filter (fun t -> t <> tid) (Option.value (Hashtbl.find_opt db.by_oid a.aoid) ~default:[])
      in
      if remaining = [] then Hashtbl.remove db.by_oid a.aoid
      else Hashtbl.replace db.by_oid a.aoid remaining

let load_all db =
  Kv.iter_prefix db Keys.trigger_prefix (fun _ payload ->
      let a = decode_activation payload in
      if a.active then register db a;
      true)

(* -- activation / deactivation -------------------------------------------------- *)

let find_decl db oid tname =
  match Store.class_of db oid with
  | None -> err "object %a has unknown class" Oid.pp oid
  | Some cls -> (
      match Catalog.find_trigger db.catalog cls tname with
      | Some g ->
          (* Report the class that declares the trigger. *)
          let decl_cls =
            List.find
              (fun (a : Schema.cls) ->
                List.exists (fun (t : Schema.trigger) -> t.gname = tname) a.own_triggers)
              (List.rev (Catalog.lineage db.catalog cls))
          in
          (g, decl_cls.Schema.name)
      | None -> err "class %s has no trigger %s" cls.Schema.name tname)

let activate txn oid tname args =
  let db = txn.tdb in
  (* Guard before the next_tid bump below: activation mutates shared meta
     state ahead of its overlay write. *)
  if txn.tro then raise Types.Read_only_txn;
  if not (Store.exists db (Some txn) oid) then err "cannot activate trigger on dead object %a" Oid.pp oid;
  let g, tcls = find_decl db oid tname in
  if List.length args <> List.length g.gparams then
    err "trigger %s expects %d arguments, got %d" tname (List.length g.gparams) (List.length args);
  let deadline =
    match g.gwithin with
    | None -> None
    | Some e -> (
        let vars = List.map2 (fun (p : Schema.field) v -> (p.fname, v)) g.gparams args in
        match Runtime.eval db (Some txn) ~vars ~this:(Value.Ref oid) e with
        | Value.Int t -> Some (db.meta.clock + t)
        | v -> err "trigger %s: 'within' must be an int, got %a" tname Value.pp v)
  in
  let tid = db.meta.next_tid in
  db.meta.next_tid <- tid + 1;
  txn.meta_dirty <- true;
  let a = { tid; aoid = oid; tcls; tname; targs = args; perpetual = g.gperpetual; deadline; active = true } in
  Store.write txn (Keys.trigger tid) (encode_activation a);
  (* Conditions are evaluated at the end of each transaction (paper §6); an
     activation whose condition already holds fires when the activating
     transaction commits, so mark the object for evaluation. *)
  Hashtbl.replace txn.touched oid ();
  tid

let deactivate txn tid =
  let db = txn.tdb in
  let current =
    match Store.read db (Some txn) (Keys.trigger tid) with
    | Some s -> decode_activation s
    | None -> err "no such trigger activation %d" tid
  in
  Store.write txn (Keys.trigger tid) (encode_activation { current with active = false })

(* -- commit-time evaluation --------------------------------------------------------- *)

(* The transaction's own trigger writes, digested once per commit:
   tid -> activation overrides, plus per-oid activations new in this txn. *)
type txn_trigger_view = {
  overrides : (int, activation) Hashtbl.t;
  new_by_oid : (Oid.t, activation list) Hashtbl.t;
}

let txn_view txn =
  let db = txn.tdb in
  let view = { overrides = Hashtbl.create 8; new_by_oid = Hashtbl.create 8 } in
  Hashtbl.iter
    (fun key op ->
      if String.length key > 0 && key.[0] = 'T' then
        match op with
        | Put payload ->
            let a = decode_activation payload in
            Hashtbl.replace view.overrides a.tid a;
            let committed = Option.value (Hashtbl.find_opt db.by_oid a.aoid) ~default:[] in
            if not (List.mem a.tid committed) then
              Hashtbl.replace view.new_by_oid a.aoid
                (a :: Option.value (Hashtbl.find_opt view.new_by_oid a.aoid) ~default:[])
        | Del -> ())
    txn.writes;
  view

(* Activations relevant to [oid] as this transaction sees them: committed
   state adjusted by the transaction's own trigger writes. *)
let effective_activations txn view oid =
  let db = txn.tdb in
  let committed = Option.value (Hashtbl.find_opt db.by_oid oid) ~default:[] in
  let of_committed =
    List.filter_map
      (fun tid ->
        match Hashtbl.find_opt view.overrides tid with
        | Some a -> Some a
        | None -> Hashtbl.find_opt db.activations tid)
      committed
  in
  of_committed @ List.rev (Option.value (Hashtbl.find_opt view.new_by_oid oid) ~default:[])

let condition_holds db txn (a : activation) g =
  let vars = List.map2 (fun (p : Schema.field) v -> (p.fname, v)) g.Schema.gparams a.targs in
  match Runtime.eval db txn ~vars ~this:(Value.Ref a.aoid) g.Schema.gcond with
  | v -> ( match Eval.truthy v with b -> b | exception Eval.Error _ -> false)
  | exception Eval.Error _ -> false

(* Firing discipline. The paper: "An active trigger fires when its condition
   *becomes* true."

   - Perpetual triggers are edge-triggered: they fire only on a false→true
     transition across the committing transaction (pre-state = committed
     state, post-state = through the write set). Without this, an action
     that leaves its own condition true would fire itself forever.
   - Once-only triggers fire whenever the condition holds at an evaluation
     point (they deactivate immediately, so there is no loop to prevent),
     which also gives the useful "fires at activation if already true"
     behaviour.
   - An activation created by this very transaction has no pre-state: its
     pre-condition counts as false. *)
let should_fire db txn view (a : activation) g =
  condition_holds db (Some txn) a g
  &&
  if not a.perpetual then true
  else
    let txn_local =
      match Hashtbl.find_opt view.new_by_oid a.aoid with
      | Some news -> List.exists (fun (x : activation) -> x.tid = a.tid) news
      | None -> false
    in
    txn_local || not (condition_holds db None a g)

(* Evaluate conditions for the committing transaction; returns the firings
   and buffers the bookkeeping writes (once-only deactivation, activation
   removal for deleted objects) into the same transaction. *)
let evaluate txn =
  Ode_util.Trace.with_span ~cat:"trigger" "triggers.evaluate" @@ fun () ->
  let db = txn.tdb in
  let firings = ref [] in
  let view = txn_view txn in
  Hashtbl.iter
    (fun oid () ->
      let acts = effective_activations txn view oid in
      if Store.exists db (Some txn) oid then
        List.iter
          (fun a ->
            if (a : activation).active then
              match find_decl db a.aoid a.tname with
              | g, _ ->
                  if should_fire db txn view a g then begin
                    Ode_util.Stats.incr c_fired;
                    Ode_util.Trace.instant ~cat:"trigger" ~args:[ ("trigger", a.tname) ]
                      "trigger.fired";
                    firings := { f_act = a; f_kind = Fired } :: !firings;
                    if not a.perpetual then
                      Store.write txn (Keys.trigger a.tid) (encode_activation { a with active = false })
                  end
              | exception Trigger_error _ -> ())
          acts
      else
        (* The object died in this transaction: its activations go away. *)
        List.iter (fun a -> Store.remove txn (Keys.trigger a.tid)) acts)
    txn.touched;
  List.rev !firings

(* After a successful commit, fold the transaction's trigger writes into the
   in-memory mirror. *)
let sync_after_commit db txn =
  Hashtbl.iter
    (fun key op ->
      if String.length key > 0 && key.[0] = 'T' then
        match op with
        | Put payload ->
            let a = decode_activation payload in
            if a.active then register db a else unregister db a.tid
        | Del ->
            (* Key layout: 'T' ++ int key; recover the tid. *)
            let c = Codec.cursor ~pos:1 key in
            let raw = Codec.get_raw c 8 in
            let tid =
              let v = ref 0L in
              String.iter (fun ch -> v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code ch))) raw;
              Int64.to_int (Int64.logxor !v Int64.min_int)
            in
            unregister db tid)
    txn.writes

(* -- timed triggers -------------------------------------------------------------------- *)

(* Activations whose deadline has passed; the caller deactivates them and
   runs the timeout actions, each in its own transaction. *)
let expired db =
  Hashtbl.fold
    (fun _ a acc ->
      match a.deadline with
      | Some d when a.active && d <= db.meta.clock -> a :: acc
      | _ -> acc)
    db.activations []
