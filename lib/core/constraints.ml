(* Constraint checking (paper §5).

   Constraints are boolean conditions attached to classes; an object must
   satisfy every constraint of its class, including inherited ones — this is
   what makes constraint-based specialization work (a [female : person]
   subclass adds [sex == "f"]). Checks run at transaction commit over every
   object the transaction wrote; a violation aborts the transaction
   ("Violation of a constraint will cause the transaction ... to be aborted
   and rolled back"). *)

module Value = Ode_model.Value
module Schema = Ode_model.Schema
module Catalog = Ode_model.Catalog
module Eval = Ode_model.Eval
open Types

let c_checked = Ode_util.Stats.counter "constraints_checked"

let check_object db txn oid =
  match Store.get_header db txn oid with
  | None -> () (* deleted in this transaction: nothing to satisfy *)
  | Some h -> (
      match Catalog.find_by_id db.catalog h.Store.hcls with
      | None -> ()
      | Some cls ->
          let hooks = Runtime.hooks db txn in
          List.iter
            (fun (k : Schema.constr) ->
              Ode_util.Stats.incr c_checked;
              let ok =
                match Eval.eval hooks ~vars:[] ~this:(Some (Value.Ref oid)) k.kexpr with
                | v -> Eval.truthy v
                | exception Eval.Error _ -> false
              in
              if not ok then
                raise (Constraint_violation { cls = cls.Schema.name; cname = k.kname; oid }))
            (Catalog.all_constraints db.catalog cls))

let check_txn txn =
  Ode_util.Trace.with_span ~cat:"constraints"
    ~args:[ ("touched", string_of_int (Hashtbl.length txn.touched)) ]
    "constraints.check" (fun () ->
      Hashtbl.iter (fun oid () -> check_object txn.tdb (Some txn) oid) txn.touched)
