module Ast = Ode_lang.Ast
module Oid = Ode_model.Oid
module Value = Ode_model.Value
module Schema = Ode_model.Schema
module Catalog = Ode_model.Catalog
module Eval = Ode_model.Eval
module Bptree = Ode_index.Bptree
open Types

let c_scanned = Ode_util.Stats.counter "objects_scanned"
let c_fused_joins = Ode_util.Stats.counter "planner.fused_joins"
let c_hash_joins = Ode_util.Stats.counter "planner.hash_joins"
let c_nested_joins = Ode_util.Stats.counter "planner.nested_joins"

let class_ids db classes =
  List.filter_map
    (fun name -> Option.map (fun (c : Schema.cls) -> c.Schema.id) (Catalog.find db.catalog name))
    classes

(* Does the (live) object [oid] belong to one of the accepted clusters? *)
let accept_class ids (oid : Oid.t) = List.mem oid.cls ids

(* Ordered merge of MVCC chain keys into a streaming key scan. An object
   overwritten or deleted after the scanning snapshot was taken may have no
   directory or index entry left to stream from — its pre-image lives only
   in a version chain — so the chained keys under the scan's range are
   interleaved into the stream in key order. Every merged candidate is
   re-verified against the snapshot by [accept] (invisible ones, e.g.
   created-after-snapshot chains, drop out there); a chained key still
   present in the tree collapses onto the stream's copy. [chained] must be
   sorted (as {!Mvcc.keys_matching} returns), [iter] must stream in key
   order. *)
let merge_chained chained emit iter =
  match chained with
  | [] -> iter (fun key -> emit key; true)
  | _ ->
      let rest = ref chained in
      let drain_below key =
        let rec go () =
          match !rest with
          | ck :: tl when ck < key ->
              rest := tl;
              emit ck;
              go ()
          | ck :: tl when ck = key -> rest := tl
          | _ -> ()
        in
        go ()
      in
      iter (fun key ->
          drain_below key;
          emit key;
          true);
      List.iter emit !rest

(* Committed extent of one class, in creation order. Keys-only: the header
   payload is never needed here, and [accept]'s [Store.exists] re-verifies
   liveness per candidate, so the scan reads directory leaves only. Chained
   header keys are merged in so objects deleted after the snapshot still
   surface ([Mvcc.keys_matching] is a single atomic load when no chains
   exist — the no-concurrent-snapshot common case). *)
let committed_candidates db ?txn cls_id f =
  let prefix = Keys.header_prefix_class cls_id in
  let chained =
    match txn with
    | None -> []
    | Some _ -> Mvcc.keys_matching db.mvcc (fun k -> String.starts_with ~prefix k)
  in
  merge_chained chained
    (fun key -> f (Keys.oid_of_header_key key))
    (fun g -> Kv.iter_prefix_keys db ?txn prefix g)

(* Transaction-local additions: objects created (or touched — their state may
   newly match an indexed predicate) in the active transaction. *)
let txn_candidates txn ids f =
  match txn with
  | None -> ()
  | Some t ->
      List.iter (fun oid -> if accept_class ids oid then f oid) (List.rev t.created);
      Hashtbl.iter (fun oid () -> if accept_class ids oid then f oid) t.touched

(* Index entries are chain-recorded under their 'I'-prefixed logical key;
   the index tree stores them without the tag, so chained keys are stripped
   (order-preserving: they share the leading 'I') before merging. *)
let chained_index_keys db txn pred =
  match txn with
  | None -> []
  | Some _ ->
      List.map Keys.index_tree_key
        (Mvcc.keys_matching db.mvcc (fun k ->
             Keys.is_index_key k && pred (Keys.index_tree_key k)))

let index_candidates db ?txn (access : Planner.access) f =
  match access with
  | Planner.Full_scan -> invalid_arg "index_candidates: full scan"
  | Planner.Index_eq { idx_id; value; _ } ->
      let prefix = Keys.index_tree_key (Keys.index_value_prefix ~idx_id ~valkey:(Value.index_key value)) in
      let chained = chained_index_keys db txn (String.starts_with ~prefix) in
      merge_chained chained
        (fun key -> f (Keys.oid_of_index_key key))
        (fun g -> Bptree.iter_prefix db.idx prefix (fun key _ -> g key))
  | Planner.Index_range { idx_id; lo; hi; _ } ->
      let tree_prefix = Keys.index_tree_key (Keys.index_prefix ~idx_id) in
      let lo_key =
        match lo with
        | None -> Some tree_prefix
        | Some (v, incl) ->
            let vk = tree_prefix ^ Value.index_key v in
            if incl then Some vk
            else
              (* strictly greater: skip every entry with this exact value *)
              Ode_util.Key.succ_prefix vk
      in
      let hi_key =
        match hi with
        | None -> Ode_util.Key.succ_prefix tree_prefix
        | Some (v, incl) ->
            let vk = tree_prefix ^ Value.index_key v in
            if incl then Ode_util.Key.succ_prefix vk else Some vk
      in
      let lo_key = Option.value lo_key ~default:tree_prefix in
      let chained =
        chained_index_keys db txn (fun tk ->
            tk >= lo_key && match hi_key with None -> true | Some h -> tk < h)
      in
      merge_chained chained
        (fun key -> f (Keys.oid_of_index_key key))
        (fun g -> Bptree.iter_range db.idx ~lo:lo_key ?hi:hi_key (fun key _ -> g key))

(* [by x.f asc] over a single cluster with an index on [f] can stream in
   index order instead of materializing and sorting — but only when the
   transaction has no pending writes on that cluster (a dirty write set
   would have to be merge-sorted in; we fall back to sorting then), and the
   index carries no version chains for the snapshot (a post-snapshot
   reindex moved entries; the sort path re-evaluates keys under the
   snapshot, the stream would emit at the new position). *)
let index_order_plan db txn (plan : Planner.plan) by =
  match (by, plan.p_classes) with
  | Some (Ast.Field (Ast.Var v, f), order), [ only_cls ] when v = plan.p_var -> (
      let txn_dirty =
        match txn with
        | None -> false
        | Some t -> Hashtbl.length t.writes > 0
      in
      let unchained idx_id =
        txn = None
        || Mvcc.keys_matching db.mvcc
             (String.starts_with ~prefix:(Keys.index_prefix ~idx_id))
           = []
      in
      if txn_dirty then None
      else
        match (plan.p_access, Store.index_ids db ~cls:only_cls ~field:f) with
        | (Planner.Full_scan | Planner.Index_range _), None -> (
            (* the index may be declared on an ancestor *)
            let cls = Catalog.find_exn db.catalog only_cls in
            let rec pick i = function
              | [] -> None
              | (icls, fld) :: rest ->
                  if fld = f && Catalog.is_subclass db.catalog ~sub:only_cls ~super:icls then
                    Some i
                  else pick (i + 1) rest
            in
            match pick 0 (Catalog.indexes db.catalog) with
            | Some idx_id when unchained idx_id -> Some (idx_id, order, cls.Schema.id)
            | Some _ | None -> None)
        | (Planner.Full_scan | Planner.Index_range _), Some idx_id ->
            if unchained idx_id then
              let cls = Catalog.find_exn db.catalog only_cls in
              Some (idx_id, order, cls.Schema.id)
            else None
        | Planner.Index_eq _, _ -> None)
  | _ -> None

(* -- per-node profiling (EXPLAIN ANALYZE, paper §3.1 "query optimization") --

   The executor streams: candidates flow one at a time through access →
   filter → (order) → body, so a node's cost is not one contiguous interval.
   Attribution is mark-based instead: the profiler keeps the timestamp and
   Stats snapshot of the previous attribution point, and charging a node
   means "add (now - mark, stats - mark) to it and advance the mark". Every
   instant and every counter bump between two marks lands in exactly one
   node, so the per-node sums equal the query totals by construction. *)

type node_stats = {
  ns_kind : Planner.node_kind;
  ns_label : string;
  mutable ns_rows : int;
  mutable ns_ns : int;
  ns_stats : Ode_util.Stats.snapshot;
}

type profile = {
  pf_plan : string;
  pf_nodes : node_stats list;
  pf_rows : int;
  pf_total_ns : int;
  pf_stats : Ode_util.Stats.snapshot;
}

type prof_state = {
  mutable mark_ns : int;
  mutable mark_stats : Ode_util.Stats.snapshot; (* full mode only *)
  (* Full mode (explicit [profile]): time and every counter attributed
     exactly per node, at a clock read and a [Stats.snapshot] per
     candidate transition. Light mode (armed slow log, tracer) pays
     nothing per candidate: rows are counted at the call sites, and time
     and counters are taken once at the query boundaries. The per-
     candidate work is unaffordable on an always-armed path — counter-
     cell reads cost hundreds of ns each in a real scan (the candidates'
     own data traffic keeps evicting the cells), pricing the slow log at
     ~35% of a query, and even the clock mark alone is ~5%. *)
  pr_full : bool;
  pr_access : node_stats;
  pr_filter : node_stats option;
  pr_order : node_stats option;
  pr_output : node_stats;
  pr_start_ns : int;
  pr_start_stats : Ode_util.Stats.snapshot;
}

let attr p node =
  if p.pr_full then begin
    let t = Ode_util.Trace.now_ns () in
    node.ns_ns <- node.ns_ns + (t - p.mark_ns);
    let s = Ode_util.Stats.snapshot () in
    Ode_util.Stats.accum ~into:node.ns_stats s p.mark_stats;
    p.mark_stats <- s;
    p.mark_ns <- t
  end

let h_query = Ode_util.Histogram.create "query.execute"

let run_profiled db ?txn ?(env = []) ~var ~cls ?(deep = false) ?suchthat ?filter ?by
    ?(fixpoint = false) ?(full = false) ~profiled body =
  let txn = match txn with Some t -> Some t | None -> db.active in
  if fixpoint && by <> None then invalid_arg "query: fixpoint iteration cannot be ordered";
  let plan = Planner.plan db ?txn ~env ~var ~cls ~deep ~suchthat () in
  let ids = class_ids db plan.p_classes in
  let hooks = Runtime.hooks db txn in
  let iop = index_order_plan db txn plan by in
  let prof =
    if profiled || Ode_util.Trace.enabled () then begin
      let node (kind, label) =
        { ns_kind = kind; ns_label = label; ns_rows = 0; ns_ns = 0;
          ns_stats = Ode_util.Stats.zero () }
      in
      let base = List.map node (Planner.nodes ?suchthat plan) in
      let norder =
        match by with
        | None -> None
        | Some (e, ord) ->
            let dir = match ord with Ast.Asc -> "" | Ast.Desc -> " desc" in
            let how = if iop <> None then " (streamed in index order)" else " (sort)" in
            Some (node (Planner.Order, "order by " ^ Ode_lang.Pp.expr_to_string e ^ dir ^ how))
      in
      let t0 = Ode_util.Trace.now_ns () in
      let s0 = Ode_util.Stats.snapshot () in
      Some
        { mark_ns = t0; mark_stats = s0; pr_full = full;
          pr_access = List.hd base;
          pr_filter = List.nth_opt base 1; pr_order = norder;
          pr_output = node (Planner.Output, "output (loop body)");
          pr_start_ns = t0; pr_start_stats = s0 }
    end
    else None
  in
  (* The loop body, with output-node attribution around it. *)
  let obody =
    match prof with
    | None -> body
    | Some p ->
        fun oid -> (
          p.pr_output.ns_rows <- p.pr_output.ns_rows + 1;
          match body oid with
          | () -> attr p p.pr_output
          | exception e ->
              attr p p.pr_output;
              raise e)
  in
  let accept oid =
    Ode_util.Stats.incr c_scanned;
    let live = accept_class ids oid && Store.exists db txn oid in
    (match prof with
    | Some p ->
        p.pr_access.ns_rows <- p.pr_access.ns_rows + 1;
        attr p p.pr_access
    | None -> ());
    if not live then false
    else begin
      let ok =
        (match suchthat with
        | None -> true
        | Some e -> (
            let vars = (var, Value.Ref oid) :: env in
            match Eval.eval hooks ~vars ~this:None e with
            | v -> ( try Eval.truthy v with Eval.Error _ -> false)
            | exception Eval.Error _ -> false))
        && match filter with None -> true | Some f -> f oid
      in
      (match prof with
      | Some p -> (
          match p.pr_filter with
          | Some nf ->
              if ok then nf.ns_rows <- nf.ns_rows + 1;
              attr p nf
          | None -> attr p p.pr_access)
      | None -> ());
      ok
    end
  in
  let use_index = match plan.p_access with Planner.Full_scan -> false | _ -> not fixpoint in
  let emit_in_order f =
    if use_index then begin
      (* Index entries reflect committed state only; candidates are always
         re-verified against the transaction's view, and txn-local objects
         are appended as extra candidates. *)
      let seen = Hashtbl.create 64 in
      let once oid =
        if not (Hashtbl.mem seen oid) then begin
          Hashtbl.replace seen oid ();
          if accept oid then f oid
        end
      in
      index_candidates db ?txn plan.p_access once;
      txn_candidates txn ids once
    end
    else begin
      List.iter (fun cid -> committed_candidates db ?txn cid (fun oid -> if accept oid then f oid)) ids;
      match txn with
      | None -> ()
      | Some t ->
          List.iter
            (fun oid -> if accept_class ids oid && accept oid then f oid)
            (List.rev t.created)
    end
  in
  (* Charge order-node work (key evaluation / sort) when profiling. *)
  let attr_order () =
    match prof with
    | Some ({ pr_order = Some no; _ } as p) -> attr p no
    | _ -> ()
  in
  (match by with
  | Some (key_expr, order) -> (
      match iop with
      | Some (idx_id, ord, cls_id) ->
          (* Stream the index in key order; entries for other classes of a
             shared ancestor index are filtered by the oid's class id. *)
          let tree_prefix = Keys.index_tree_key (Keys.index_prefix ~idx_id) in
          let step f key _ =
            let oid = Keys.oid_of_index_key key in
            if oid.Oid.cls = cls_id && accept oid then f oid;
            true
          in
          (match ord with
          | Ast.Asc -> Bptree.iter_prefix db.idx tree_prefix (step obody)
          | Ast.Desc -> Bptree.iter_prefix_rev db.idx tree_prefix (step obody))
      | None ->
          let rows = ref [] in
          emit_in_order (fun oid ->
              let vars = (var, Value.Ref oid) :: env in
              let k =
                match Eval.eval hooks ~vars ~this:None key_expr with
                | v -> v
                | exception Eval.Error _ -> Value.Null
              in
              rows := (k, oid) :: !rows;
              (match prof with
              | Some ({ pr_order = Some no; _ } as p) ->
                  no.ns_rows <- no.ns_rows + 1;
                  attr p no
              | _ -> ()));
          let cmp (a, _) (b, _) =
            match order with Ast.Asc -> Value.compare a b | Ast.Desc -> Value.compare b a
          in
          let sorted = List.stable_sort cmp (List.rev !rows) in
          attr_order ();
          List.iter (fun (_, oid) -> obody oid) sorted)
  | None ->
      if not fixpoint then emit_in_order obody
      else begin
        (* Fixpoint semantics: the body may pnew into the cluster; newly
           created objects are fed back into the iteration until quiescence. *)
        let t =
          match txn with
          | Some t -> t
          | None -> invalid_arg "query: fixpoint iteration requires a transaction"
        in
        let processed = Hashtbl.create 64 in
        let process oid =
          if not (Hashtbl.mem processed oid) then begin
            Hashtbl.replace processed oid ();
            if accept oid then obody oid
          end
        in
        List.iter (fun cid -> committed_candidates db ?txn cid process) ids;
        let rec drain () =
          let fresh =
            List.filter
              (fun oid -> accept_class ids oid && not (Hashtbl.mem processed oid))
              (List.rev t.created)
          in
          if fresh <> [] then begin
            List.iter process fresh;
            drain ()
          end
        in
        drain ()
      end);
  match prof with
  | None -> None
  | Some p ->
      (* Final tail (cursor wind-down, loop epilogue) goes to the access
         node using the same instant that defines the totals, so the
         per-node sums equal the totals exactly. In light mode [attr] is
         a no-op and [mark_ns] never moved, so take the end instant here. *)
      attr p p.pr_access;
      if not p.pr_full then p.mark_ns <- Ode_util.Trace.now_ns ();
      let nodes =
        (p.pr_access :: Option.to_list p.pr_filter)
        @ Option.to_list p.pr_order
        @ [ p.pr_output ]
      in
      let pf =
        {
          pf_plan = Planner.explain plan;
          pf_nodes = nodes;
          pf_rows = p.pr_output.ns_rows;
          pf_total_ns = p.mark_ns - p.pr_start_ns;
          (* Light mode never advances [mark_stats]; one full snapshot at
             the end still gives the whole-query totals. *)
          pf_stats =
            (if p.pr_full then Ode_util.Stats.diff p.mark_stats p.pr_start_stats
             else Ode_util.Stats.diff (Ode_util.Stats.snapshot ()) p.pr_start_stats);
        }
      in
      if Ode_util.Trace.enabled () then begin
        Ode_util.Trace.emit ~cat:"query"
          ~args:[ ("cls", cls); ("plan", pf.pf_plan); ("rows", string_of_int pf.pf_rows) ]
          ~start_ns:p.pr_start_ns ~dur_ns:pf.pf_total_ns "query.execute";
        (* One span per plan node, full mode only — light profiles carry
           no per-node times, and a lane of zero-width spans is noise.
           Node times are aggregates over an interleaved streaming
           execution, so the spans are laid out sequentially inside the
           parent rather than at their (many) actual intervals. *)
        if p.pr_full then begin
          let off = ref p.pr_start_ns in
          List.iter
            (fun n ->
              Ode_util.Trace.emit ~cat:"query" ~depth:1
                ~args:[ ("rows", string_of_int n.ns_rows) ]
                ~start_ns:!off ~dur_ns:n.ns_ns n.ns_label;
              off := !off + n.ns_ns)
            nodes
        end
      end;
      Some pf

(* When the slow-query log is armed, every query runs light-profiled
   (rows per node, whole-query time and counter totals) and the
   resulting profile is stashed domain-locally: the session layer, which
   times the whole request against the threshold, collects it from here
   if (and only if) the request turns out slow. Domain-local because a
   request executes entirely on one domain — concurrent readers each see
   their own last profile. *)
let last_profile_key = Domain.DLS.new_key (fun () : profile option -> None)

let take_last_profile () =
  let pf = Domain.DLS.get last_profile_key in
  if pf <> None then Domain.DLS.set last_profile_key None;
  pf

let run db ?txn ?env ~var ~cls ?deep ?suchthat ?filter ?by ?fixpoint body =
  Ode_util.Histogram.time h_query (fun () ->
      let slow = Ode_util.Slowlog.armed () in
      match
        run_profiled db ?txn ?env ~var ~cls ?deep ?suchthat ?filter ?by ?fixpoint ~profiled:slow
          body
      with
      | Some pf when slow -> Domain.DLS.set last_profile_key (Some pf)
      | _ -> ())

let profile db ?txn ?env ~var ~cls ?deep ?suchthat ?by ?(body = fun _ -> ()) () =
  Ode_util.Histogram.time h_query (fun () ->
      match
        run_profiled db ?txn ?env ~var ~cls ?deep ?suchthat ?by ~full:true ~profiled:true body
      with
      | Some pf -> pf
      | None -> assert false)

(* The physical-work columns of a profile, in the order both renderings
   print them: column label, then the counter it reads. *)
let profile_counters =
  [ ("pages", "pages_read"); ("probes", "index_probes"); ("scanned", "objects_scanned");
    ("fetched", "objects_fetched"); ("cursor", "cursor_pages_read") ]

let profile_to_string pf =
  let open Ode_util in
  let num = string_of_int in
  let header = [ "node"; "rows"; "time" ] @ List.map fst profile_counters in
  let counters s = List.map (fun (_, name) -> num (Stats.get s name)) profile_counters in
  let rows =
    header
    :: List.map
         (fun n -> [ n.ns_label; num n.ns_rows; Histogram.format_ns n.ns_ns ] @ counters n.ns_stats)
         pf.pf_nodes
    @ [ [ "total"; num pf.pf_rows; Histogram.format_ns pf.pf_total_ns ] @ counters pf.pf_stats ]
  in
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w c -> max w (String.length c)) ws row)
      (List.map (fun _ -> 0) header)
      rows
  in
  let render row =
    String.concat "  "
      (List.mapi
         (fun i (w, c) -> if i = 0 then Printf.sprintf "%-*s" w c else Printf.sprintf "%*s" w c)
         (List.combine widths row))
  in
  "plan: " ^ pf.pf_plan ^ "\n" ^ String.concat "\n" (List.map render rows)

(* The same attribution as [profile_to_string], rendered as one JSON
   object for the slow-query log. *)
let profile_to_json pf =
  let open Ode_util in
  let esc = Metrics.json_escape in
  let counters s =
    String.concat ","
      (List.map
         (fun (label, name) -> Printf.sprintf "\"%s\":%d" label (Stats.get s name))
         profile_counters)
  in
  let node n =
    Printf.sprintf "{\"label\":\"%s\",\"rows\":%d,\"ns\":%d,%s}" (esc n.ns_label) n.ns_rows
      n.ns_ns (counters n.ns_stats)
  in
  (* Whole-query counter totals: under a light profile (armed slow log)
     the per-node counters are all zero, so the totals object is where
     the log entry's physical-work numbers live. *)
  let totals = "{" ^ counters pf.pf_stats ^ "}" in
  Printf.sprintf "{\"plan\":\"%s\",\"rows\":%d,\"total_ns\":%d,\"totals\":%s,\"nodes\":[%s]}"
    (esc pf.pf_plan) pf.pf_rows pf.pf_total_ns totals
    (String.concat "," (List.map node pf.pf_nodes))

let fold db ?txn ?env ~var ~cls ?deep ?suchthat ?filter ?by ~init f =
  let acc = ref init in
  run db ?txn ?env ~var ~cls ?deep ?suchthat ?filter ?by (fun oid -> acc := f !acc oid);
  !acc

let to_list db ?txn ?env ~var ~cls ?deep ?suchthat ?filter ?by () =
  List.rev (fold db ?txn ?env ~var ~cls ?deep ?suchthat ?filter ?by ~init:[] (fun acc o -> o :: acc))

let count db ?txn ?deep ?suchthat ~var ~cls () =
  fold db ?txn ~var ~cls ?deep ?suchthat ~init:0 (fun n _ -> n + 1)

(* Early exit through the whole scan stack: the exception unwinds the
   streaming cursor in [Kv.iter_prefix] (or the index walk), so no further
   pages are read after the first match. *)
let exists db ?txn ?env ?deep ?suchthat ~var ~cls () =
  let exception Found in
  match run db ?txn ?env ~var ~cls ?deep ?suchthat (fun _ -> raise Found) with
  | () -> false
  | exception Found -> true

(* -- two-extent joins (collection-join fusion) ------------------------------ *)

(* Execute a planned two-extent join. Pair emission is always outer-major
   (outer rows in extent order); within one outer row the inner order may
   differ between strategies, which [forall] nesting does not specify.
   Every emitted pair re-checks the full inner predicate with both
   variables bound, so a fused strategy can only skip non-matching work,
   never change results. *)
let run_join db ?txn ?(env = []) ~outer:(ovar, ocls, odeep) ~inner:(ivar, icls, ideep)
    ?outer_suchthat ?inner_suchthat body =
  let txn = match txn with Some t -> Some t | None -> db.active in
  let jp =
    Planner.plan_join db ?txn ~env ~outer:(ovar, ocls, odeep) ~inner:(ivar, icls, ideep)
      ?outer_suchthat ?inner_suchthat ()
  in
  let hooks = Runtime.hooks db txn in
  let inner_ids = class_ids db (if ideep then Catalog.subclasses db.catalog icls else [ icls ]) in
  let live i = accept_class inner_ids i && Store.exists db txn i in
  let check_pair o i =
    match inner_suchthat with
    | None -> true
    | Some e -> (
        let vars = (ivar, Value.Ref i) :: (ovar, Value.Ref o) :: env in
        match Eval.eval hooks ~vars ~this:None e with
        | v -> ( try Eval.truthy v with Eval.Error _ -> false)
        | exception Eval.Error _ -> false)
  in
  let field_of var oid f =
    match Eval.eval hooks ~vars:((var, Value.Ref oid) :: env) ~this:None (Ast.Field (Ast.Var var, f)) with
    | v -> v
    | exception Eval.Error _ -> Value.Null
  in
  let run_outer f =
    run db ?txn ~env ~var:ovar ~cls:ocls ~deep:odeep ?suchthat:outer_suchthat f
  in
  match jp.j_strategy with
  | Planner.Nested_loop ->
      Ode_util.Stats.incr c_nested_joins;
      run_outer (fun o ->
          run db ?txn
            ~env:((ovar, Value.Ref o) :: env)
            ~var:ivar ~cls:icls ~deep:ideep ?suchthat:inner_suchthat
            (fun i -> body o i))
  | Planner.Fused_deref f ->
      Ode_util.Stats.incr c_fused_joins;
      run_outer (fun o ->
          match field_of ovar o f with
          | Value.Ref i when live i && check_pair o i -> body o i
          | _ -> ())
  | Planner.Fused_member f ->
      Ode_util.Stats.incr c_fused_joins;
      run_outer (fun o ->
          match field_of ovar o f with
          | Value.VSet vs | Value.VList vs ->
              (* A list may hold the same ref twice; the nested loop would
                 still emit the pair once (the inner extent is the driver
                 there), so deduplicate per outer row. *)
              let seen = Hashtbl.create 8 in
              List.iter
                (fun v ->
                  match v with
                  | Value.Ref i when not (Hashtbl.mem seen i) ->
                      Hashtbl.replace seen i ();
                      if live i && check_pair o i then body o i
                  | _ -> ())
                vs
          | _ -> ())
  | Planner.Hash_join { outer_field; inner_field } ->
      Ode_util.Stats.incr c_hash_joins;
      (* One streamed pass over the inner extent (MVCC chain merging and
         txn-local candidates come with [run] for free), keyed by the
         order-preserving byte encoding of the join field. *)
      let tbl : (string, Oid.t) Hashtbl.t = Hashtbl.create 256 in
      run db ?txn ~env ~var:ivar ~cls:icls ~deep:ideep ?suchthat:jp.j_inner_only (fun i ->
          match field_of ivar i inner_field with
          | v when Planner.indexable_value v -> Hashtbl.add tbl (Value.index_key v) i
          | _ -> ());
      run_outer (fun o ->
          match field_of ovar o outer_field with
          | v when Planner.indexable_value v ->
              List.iter
                (fun i -> if live i && check_pair o i then body o i)
                (* find_all returns latest-first; restore build order. *)
                (List.rev (Hashtbl.find_all tbl (Value.index_key v)))
          | _ -> ())

let explain_join db ?txn ?env ~outer ~inner ?outer_suchthat ?inner_suchthat () =
  Planner.explain_join
    (Planner.plan_join db ?txn ?env ~outer ~inner ?outer_suchthat ?inner_suchthat ())

let join2 db ?txn ~outer:(ovar, ocls) ~inner:(ivar, icls) ?(deep = false) ?suchthat body =
  run_join db ?txn ~outer:(ovar, ocls, deep) ~inner:(ivar, icls, deep) ?inner_suchthat:suchthat
    body

let explain db ?env ~var ~cls ?(deep = false) ?suchthat () =
  Planner.explain (Planner.plan db ?env ~var ~cls ~deep ~suchthat ())

(* -- aggregates ------------------------------------------------------------- *)

(* The paper's §3.1 loops ("average income of all persons") packaged as
   combinators: evaluate [expr] for every qualifying object and combine.
   Null results of [expr] are skipped, like SQL aggregates skip NULL. *)

let eval_key db txn hooks env var key_expr oid =
  ignore db;
  ignore txn;
  let vars = (var, Value.Ref oid) :: env in
  match Eval.eval hooks ~vars ~this:None key_expr with
  | v -> v
  | exception Eval.Error _ -> Value.Null

let aggregate db ?txn ?(env = []) ~var ~cls ?deep ?suchthat ~expr ~init ~combine () =
  let txn = match txn with Some t -> Some t | None -> db.active in
  let hooks = Runtime.hooks db txn in
  let acc = ref init in
  run db ?txn ~env ~var ~cls ?deep ?suchthat (fun oid ->
      match eval_key db txn hooks env var expr oid with
      | Value.Null -> ()
      | v -> acc := combine !acc v);
  !acc

let as_float = function
  | Value.Int n -> float_of_int n
  | Value.Float f -> f
  | v -> raise (Eval.Error (Fmt.str "aggregate over non-numeric value %a" Value.pp v))

let sum db ?txn ?env ~var ~cls ?deep ?suchthat ~expr () =
  aggregate db ?txn ?env ~var ~cls ?deep ?suchthat ~expr ~init:0.0
    ~combine:(fun acc v -> acc +. as_float v)
    ()

let average db ?txn ?env ~var ~cls ?deep ?suchthat ~expr () =
  let total, n =
    aggregate db ?txn ?env ~var ~cls ?deep ?suchthat ~expr ~init:(0.0, 0)
      ~combine:(fun (t, n) v -> (t +. as_float v, n + 1))
      ()
  in
  if n = 0 then None else Some (total /. float_of_int n)

let minimum db ?txn ?env ~var ~cls ?deep ?suchthat ~expr () =
  aggregate db ?txn ?env ~var ~cls ?deep ?suchthat ~expr ~init:None
    ~combine:(fun acc v ->
      match acc with Some m when Value.compare m v <= 0 -> acc | _ -> Some v)
    ()

let maximum db ?txn ?env ~var ~cls ?deep ?suchthat ~expr () =
  aggregate db ?txn ?env ~var ~cls ?deep ?suchthat ~expr ~init:None
    ~combine:(fun acc v ->
      match acc with Some m when Value.compare m v >= 0 -> acc | _ -> Some v)
    ()

(* [group_count db ~expr ...] — how many objects per value of [expr]; the
   building block of the paper's per-class reports. *)
let group_count db ?txn ?env ~var ~cls ?deep ?suchthat ~expr () =
  let groups : (Value.t, int) Hashtbl.t = Hashtbl.create 16 in
  let (_ : int) =
    aggregate db ?txn ?env ~var ~cls ?deep ?suchthat ~expr ~init:0
      ~combine:(fun n v ->
        Hashtbl.replace groups v (1 + Option.value (Hashtbl.find_opt groups v) ~default:0);
        n + 1)
      ()
  in
  List.sort
    (fun (a, _) (b, _) -> Value.compare a b)
    (Hashtbl.fold (fun v n acc -> (v, n) :: acc) groups [])
