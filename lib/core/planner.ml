module Ast = Ode_lang.Ast
module Value = Ode_model.Value
module Schema = Ode_model.Schema
module Otype = Ode_model.Otype
module Catalog = Ode_model.Catalog
module Eval = Ode_model.Eval
module Dist = Ode_util.Histogram.Dist
open Types

let c_stats_hits = Ode_util.Stats.counter "planner.stats_hits"
let c_fallbacks = Ode_util.Stats.counter "planner.fallbacks"

type access =
  | Full_scan
  | Index_eq of { idx_id : int; field : string; value : Value.t }
  | Index_range of {
      idx_id : int;
      field : string;
      lo : (Value.t * bool) option;
      hi : (Value.t * bool) option;
    }

(* Cardinality/cost estimate attached to every plan. Costs are abstract
   work units (~one unit per object touched); they only need to order
   alternatives, not predict wall time. *)
type estimate = {
  est_rows : float;  (** candidates the access path will emit *)
  est_out : float;  (** rows expected to survive the filter *)
  est_cost : float;  (** total access cost *)
  est_stats : bool;  (** true when derived from analyze statistics *)
}

type plan = {
  p_cls : string;
  p_deep : bool;
  p_classes : string list;
  p_access : access;
  p_residual : Ast.expr option;
  p_var : string;
  p_est : estimate;
}

(* -- conjunct analysis ------------------------------------------------------ *)

let rec conjuncts (e : Ast.expr) =
  match e with
  | Binop (And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let rec conjoin = function
  | [] -> None
  | [ e ] -> Some e
  | e :: rest -> ( match conjoin rest with Some r -> Some (Ast.Binop (And, e, r)) | None -> Some e)

(* An expression is constant for the scan if it never mentions the loop
   variable or [this]; such expressions are evaluated once up front. *)
let rec closed_for var (e : Ast.expr) =
  match e with
  | Var x -> x <> var
  | This -> false
  | Null | Int _ | Float _ | Bool _ | Str _ -> true
  | Field (b, _) -> closed_for var b
  | Binop (_, a, b) -> closed_for var a && closed_for var b
  | Unop (_, a) -> closed_for var a
  | Call (recv, _, args) ->
      Option.fold ~none:true ~some:(closed_for var) recv && List.for_all (closed_for var) args
  | Is (a, _) -> closed_for var a
  | SetLit es | ListLit es -> List.for_all (closed_for var) es

(* A sargable conjunct: [var.field OP closed-expr] (or mirrored). Returns
   (field, op-normalized-with-field-on-the-left, constant value). *)
type sarg = { s_field : string; s_op : Ast.binop; s_const : Value.t }

let flip_op : Ast.binop -> Ast.binop = function
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le
  | op -> op

let as_sarg db txn env var (e : Ast.expr) =
  let eval_const c =
    match Runtime.eval db txn ~vars:env c with v -> Some v | exception Eval.Error _ -> None
  in
  match e with
  | Binop (((Eq | Lt | Le | Gt | Ge) as op), Field (Var v, f), c) when v = var && closed_for var c
    -> (
      match eval_const c with
      | Some value -> Some { s_field = f; s_op = op; s_const = value }
      | None -> None)
  | Binop (((Eq | Lt | Le | Gt | Ge) as op), c, Field (Var v, f)) when v = var && closed_for var c
    -> (
      match eval_const c with
      | Some value -> Some { s_field = f; s_op = flip_op op; s_const = value }
      | None -> None)
  | _ -> None

(* -- cost model ------------------------------------------------------------- *)

(* Without statistics the planner prices plans with textbook defaults; after
   [analyze] the defaults are replaced by histogram fractions. *)
let default_card = 1000.0
let probe_cost = 4.0 (* per index candidate: header fetch + liveness + re-check *)
let descent_cost = 8.0 (* positioning a tree cursor *)
let default_eq_sel = 0.05
let default_range_sel = 0.30
let default_misc_sel = 0.33

let default_sel_of_op (op : Ast.binop) =
  match op with Eq -> default_eq_sel | Lt | Le | Gt | Ge -> default_range_sel | _ -> default_misc_sel

(* Histograms are trusted only while fresh; stale or absent statistics send
   the planner down the original heuristic path. *)
let fresh_stats db = Ostats.analyzed db && not (Ostats.stale db)

let extent_card db classes =
  List.fold_left
    (fun acc cname ->
      match Catalog.find db.catalog cname with
      | None -> acc
      | Some (c : Schema.cls) -> acc +. float_of_int (Option.value (Ostats.card db c.Schema.id) ~default:0))
    0.0 classes

let indexable_value (v : Value.t) =
  match v with Null | Int _ | Float _ | Bool _ | Str _ | Ref _ -> true | _ -> false

(* The index may be declared on an ancestor: find it up the lineage. *)
let pick_index db cls field =
  match Catalog.find db.catalog cls with
  | None -> None
  | Some c ->
      let ancestors =
        List.map (fun (a : Schema.cls) -> a.Schema.name) (Catalog.lineage db.catalog c)
      in
      let rec go i = function
        | [] -> None
        | (icls, f) :: rest ->
            if f = field && List.mem icls ancestors then Some i else go (i + 1) rest
      in
      go 0 (Catalog.indexes db.catalog)

(* Fraction of an index's entries matched by a sargable conjunct, from its
   analyze-time key histogram. None when the histogram cannot answer. *)
let hist_sel db idx_id (s : sarg) =
  match Ostats.idx_stat db idx_id with
  | Some st when st.is_total > 0 && indexable_value s.s_const -> (
      let d = st.is_hist in
      let k = Value.index_key s.s_const in
      match s.s_op with
      | Ast.Eq -> Some (Dist.eq_fraction d k)
      | Ast.Lt -> Some (Dist.range_fraction d None (Some (k, false)))
      | Ast.Le -> Some (Dist.range_fraction d None (Some (k, true)))
      | Ast.Gt -> Some (Dist.range_fraction d (Some (k, false)) None)
      | Ast.Ge -> Some (Dist.range_fraction d (Some (k, true)) None)
      | _ -> None)
  | _ -> None

(* Selectivity of one conjunct, for sizing the filter output. *)
let conjunct_sel db ~use_stats ~cls (_, sarg) =
  match sarg with
  | Some s -> (
      let from_stats =
        if use_stats then
          match pick_index db cls s.s_field with Some idx_id -> hist_sel db idx_id s | None -> None
        else None
      in
      match from_stats with Some f -> f | None -> default_sel_of_op s.s_op)
  | None -> default_misc_sel

(* -- plan construction ------------------------------------------------------ *)

(* A candidate access path: [c_used] conjuncts are consumed (dropped from the
   residual), [c_counted] ones are already reflected in [c_rows] and must not
   be charged again when sizing the filter output. *)
type cand = {
  c_access : access;
  c_used : Ast.expr list;
  c_counted : Ast.expr list;
  c_rows : float;
  c_cost : float;
}

let plan db ?txn ?(env = []) ~var ~cls ~deep ~suchthat () =
  let _ = Catalog.find_exn db.catalog cls in
  let classes = if deep then Catalog.subclasses db.catalog cls else [ cls ] in
  let indexed = Catalog.indexes_on db.catalog cls in
  (* Constant-conjunct evaluation reads through the planning transaction's
     view; [db.active] is only a writer-domain fallback. *)
  let txn = match txn with Some _ as t -> t | None -> db.active in
  let use_stats = fresh_stats db in
  let n = if Ostats.analyzed db then extent_card db classes else default_card in
  match suchthat with
  | None ->
      {
        p_cls = cls; p_deep = deep; p_classes = classes; p_access = Full_scan;
        p_residual = None; p_var = var;
        p_est = { est_rows = n; est_out = n; est_cost = n; est_stats = use_stats };
      }
  | Some e ->
      if use_stats then Ode_util.Stats.incr c_stats_hits
      else Ode_util.Stats.incr c_fallbacks;
      let cs = conjuncts e in
      let tagged = List.map (fun c -> (c, as_sarg db txn env var c)) cs in
      let indexed_sargs =
        List.filter_map
          (fun (c, s) ->
            match s with
            | Some s when List.mem s.s_field indexed && indexable_value s.s_const -> Some (c, s)
            | _ -> None)
          tagged
      in
      (* Index entries matched by an access path, and its cost. *)
      let idx_total idx_id =
        match Ostats.idx_stat db idx_id with Some st -> float_of_int st.is_total | None -> 0.0
      in
      let index_cand rows access used counted =
        { c_access = access; c_used = used; c_counted = counted;
          c_rows = rows; c_cost = descent_cost +. (rows *. probe_cost) }
      in
      let eq_cand (c, s) =
        match pick_index db cls s.s_field with
        | None -> None
        | Some idx_id ->
            let rows =
              match (use_stats, hist_sel db idx_id s) with
              | true, Some frac -> frac *. idx_total idx_id
              | _ -> default_eq_sel *. n
            in
            Some
              (index_cand rows (Index_eq { idx_id; field = s.s_field; value = s.s_const }) [ c ]
                 [ c ])
      in
      (* Combine the range conjuncts on one indexed field into the tightest
         bounds: max of the lows, min of the highs, strict beating inclusive
         on ties (x > 10 && x > 5 must plan > 10). The conjuncts stay in the
         residual, so an imperfect combination can never produce wrong
         results, only a wider scan. *)
      let tighter_lo cur (v, incl) =
        match cur with
        | None -> Some (v, incl)
        | Some (v0, incl0) ->
            let c = Value.compare v v0 in
            if c > 0 then Some (v, incl) else if c < 0 then cur else Some (v0, incl0 && incl)
      in
      let tighter_hi cur (v, incl) =
        match cur with
        | None -> Some (v, incl)
        | Some (v0, incl0) ->
            let c = Value.compare v v0 in
            if c < 0 then Some (v, incl) else if c > 0 then cur else Some (v0, incl0 && incl)
      in
      let range_cand field =
        let same = List.filter (fun (_, s) -> s.s_field = field) indexed_sargs in
        let lo, hi =
          List.fold_left
            (fun (lo, hi) (_, s) ->
              match s.s_op with
              | Ast.Gt -> (tighter_lo lo (s.s_const, false), hi)
              | Ast.Ge -> (tighter_lo lo (s.s_const, true), hi)
              | Ast.Lt -> (lo, tighter_hi hi (s.s_const, false))
              | Ast.Le -> (lo, tighter_hi hi (s.s_const, true))
              | _ -> (lo, hi))
            (None, None) same
        in
        match pick_index db cls field with
        | Some idx_id when lo <> None || hi <> None ->
            let counted = List.map fst (List.filter (fun (_, s) -> s.s_op <> Ast.Eq) same) in
            let bound_key = Option.map (fun (v, incl) -> (Value.index_key v, incl)) in
            let rows =
              match Ostats.idx_stat db idx_id with
              | Some st when use_stats && st.is_total > 0 ->
                  Dist.range_fraction st.is_hist (bound_key lo) (bound_key hi)
                  *. float_of_int st.is_total
              | _ ->
                  let frac =
                    if lo <> None && hi <> None then default_range_sel /. 2.0
                    else default_range_sel
                  in
                  frac *. n
            in
            Some (index_cand rows (Index_range { idx_id; field; lo; hi }) [] counted)
        | _ -> None
      in
      let full = { c_access = Full_scan; c_used = []; c_counted = []; c_rows = n; c_cost = n } in
      let chosen =
        if use_stats then begin
          (* Cost-based: price every candidate access path and take the
             cheapest; full scan wins ties (it is the simplest plan). *)
          let range_fields =
            List.sort_uniq compare
              (List.filter_map
                 (fun (_, s) -> if s.s_op <> Ast.Eq then Some s.s_field else None)
                 indexed_sargs)
          in
          let cands =
            List.filter_map eq_cand (List.filter (fun (_, s) -> s.s_op = Ast.Eq) indexed_sargs)
            @ List.filter_map range_cand range_fields
          in
          List.fold_left (fun best c -> if c.c_cost < best.c_cost then c else best) full cands
        end
        else begin
          (* Heuristic (no trustworthy statistics): prefer an equality probe,
             otherwise range-bound the first indexed field that has bounds. *)
          match List.find_opt (fun (_, s) -> s.s_op = Ast.Eq) indexed_sargs with
          | Some eq -> ( match eq_cand eq with Some c -> c | None -> full)
          | None -> (
              match indexed_sargs with
              | [] -> full
              | (_, s0) :: _ -> ( match range_cand s0.s_field with Some c -> c | None -> full))
        end
      in
      let residual_cs = List.filter (fun c -> not (List.memq c chosen.c_used)) cs in
      let res_sel =
        List.fold_left
          (fun acc ((c, _) as tc) ->
            if List.memq c chosen.c_counted then acc
            else acc *. conjunct_sel db ~use_stats ~cls tc)
          1.0 tagged
      in
      {
        p_cls = cls; p_deep = deep; p_classes = classes; p_access = chosen.c_access;
        p_residual = conjoin residual_cs; p_var = var;
        p_est =
          {
            est_rows = chosen.c_rows;
            est_out = chosen.c_rows *. res_sel;
            est_cost = chosen.c_cost;
            est_stats = use_stats;
          };
      }

let access_label p =
  match p.p_access with
  | Full_scan ->
      Printf.sprintf "full scan of cluster %s%s" p.p_cls (if p.p_deep then " (deep)" else "")
  | Index_eq { field; value; _ } ->
      Printf.sprintf "index probe %s(%s) = %s" p.p_cls field (Value.to_string value)
  | Index_range { field; lo; hi; _ } ->
      let bound (v, incl) op = Printf.sprintf "%s%s %s" op (if incl then "=" else "") (Value.to_string v) in
      let parts =
        List.filter_map Fun.id
          [ Option.map (fun x -> bound x ">") lo; Option.map (fun x -> bound x "<") hi ]
      in
      Printf.sprintf "index range %s(%s) %s" p.p_cls field (String.concat " and " parts)

let estimate_label est =
  Printf.sprintf "est ~%.0f rows, cost ~%.0f (%s)" est.est_out est.est_cost
    (if est.est_stats then "stats" else "heuristic")

let explain p =
  let b = Buffer.create 64 in
  Buffer.add_string b (access_label p);
  Buffer.add_string b (" — " ^ estimate_label p.p_est);
  (match p.p_residual with
  | Some e -> Buffer.add_string b (" — residual: " ^ Ode_lang.Pp.expr_to_string e)
  | None -> ());
  Buffer.contents b

(* -- per-node plan annotation (for EXPLAIN ANALYZE / Query.profile) -------- *)

type node_kind = Access | Filter | Order | Output

let nodes ?suchthat p =
  let est = p.p_est in
  let access =
    (Access, Printf.sprintf "%s [~%.0f rows, cost ~%.0f]" (access_label p) est.est_rows est.est_cost)
  in
  (* The executor re-evaluates the whole [suchthat] per candidate even when
     a conjunct became the index bound (the overlay may hold uncommitted
     writes the index does not reflect), so the filter node carries the
     residual when one exists and the full re-checked predicate otherwise. *)
  let flabel tag e =
    Printf.sprintf "filter%s: %s [~%.0f rows]" tag (Ode_lang.Pp.expr_to_string e) est.est_out
  in
  let filter =
    match (p.p_residual, suchthat) with
    | Some e, _ -> [ (Filter, flabel "" e) ]
    | None, Some e -> [ (Filter, flabel " (re-check)" e) ]
    | None, None -> []
  in
  access :: filter

(* -- join planning (collection-join fusion, paper §3.1) --------------------- *)

type join_strategy =
  | Nested_loop
  | Fused_deref of string
  | Fused_member of string
  | Hash_join of { outer_field : string; inner_field : string }

type join_plan = {
  j_ovar : string;
  j_ivar : string;
  j_outer : plan;
  j_inner_cls : string;
  j_inner_deep : bool;
  j_inner_only : Ast.expr option;
  j_strategy : join_strategy;
  j_rows : float;
  j_cost : float;
  j_nested_cost : float;
  j_stats : bool;
}

(* Only fields of a statically scalar type can key a hash join: container
   values have no order-preserving byte encoding to hash on. *)
let scalar_field db cls_name f =
  match Catalog.find db.catalog cls_name with
  | None -> false
  | Some c -> (
      match Schema.find_field (Catalog.all_fields db.catalog c) f with
      | Some fd -> (
          match fd.Schema.ftype with
          | Otype.TInt | Otype.TFloat | Otype.TBool | Otype.TString | Otype.TRef _ -> true
          | Otype.TSet _ | Otype.TList _ -> false)
      | None -> false)

let plan_join db ?txn ?(env = []) ~outer:(ovar, ocls, odeep) ~inner:(ivar, icls, ideep)
    ?outer_suchthat ?inner_suchthat () =
  let _ = Catalog.find_exn db.catalog icls in
  let txn = match txn with Some _ as t -> t | None -> db.active in
  let op = plan db ?txn ~env ~var:ovar ~cls:ocls ~deep:odeep ~suchthat:outer_suchthat () in
  let iclasses = if ideep then Catalog.subclasses db.catalog icls else [ icls ] in
  let cs = match inner_suchthat with None -> [] | Some e -> conjuncts e in
  (* Conjuncts that never mention the outer variable filter the inner side
     alone; the rest link the two extents and are re-checked per pair. *)
  let inner_only_cs, cross = List.partition (closed_for ovar) cs in
  let use_stats = fresh_stats db in
  let n_in = if Ostats.analyzed db then extent_card db iclasses else default_card in
  let n_out = op.p_est.est_out in
  let itagged = List.map (fun c -> (c, as_sarg db txn env ivar c)) inner_only_cs in
  let isel =
    List.fold_left (fun acc tc -> acc *. conjunct_sel db ~use_stats ~cls:icls tc) 1.0 itagged
  in
  let m_in = n_in *. isel in
  (* Link shapes, strongest first: [i == o.f] reaches the inner object
     through the outer's ref field (no inner scan at all); [i in o.fs]
     through its set/list field; [i.g == o.f] can hash-partition. *)
  let deref_link =
    List.find_map
      (fun (c : Ast.expr) ->
        match c with
        | Binop (Eq, Var v, Field (Var o, f)) when v = ivar && o = ovar -> Some f
        | Binop (Eq, Field (Var o, f), Var v) when v = ivar && o = ovar -> Some f
        | _ -> None)
      cross
  in
  let member_link =
    List.find_map
      (fun (c : Ast.expr) ->
        match c with
        | Binop (In, Var v, Field (Var o, f)) when v = ivar && o = ovar -> Some f
        | _ -> None)
      cross
  in
  let hash_link =
    List.find_map
      (fun (c : Ast.expr) ->
        match c with
        | Binop (Eq, Field (Var a, g), Field (Var b, f)) when a = ivar && b = ovar -> Some (f, g)
        | Binop (Eq, Field (Var b, f), Field (Var a, g)) when a = ivar && b = ovar -> Some (f, g)
        | _ -> None)
      cross
  in
  let join_eq_sel g =
    match (if use_stats then pick_index db icls g else None) with
    | Some idx_id -> (
        match Ostats.idx_stat db idx_id with
        | Some st when st.is_distinct > 0 -> 1.0 /. float_of_int st.is_distinct
        | _ -> default_eq_sel)
    | None -> default_eq_sel
  in
  let cross_sel =
    List.fold_left
      (fun acc (c : Ast.expr) ->
        acc
        *.
        match c with
        | Binop (Eq, Field (Var a, g), Field (Var _, _)) when a = ivar -> join_eq_sel g
        | Binop (Eq, Field (Var _, _), Field (Var a, g)) when a = ivar -> join_eq_sel g
        | _ -> default_misc_sel)
      1.0 cross
  in
  let nested_rows = n_out *. m_in *. cross_sel in
  (* Per-outer-row cost of the unfused inner loop: an index on the inner
     join field turns it into a probe, anything else rescans the extent. *)
  let inner_per_probe =
    match hash_link with
    | Some (_, g) when pick_index db icls g <> None ->
        descent_cost +. (join_eq_sel g *. n_in *. probe_cost)
    | _ -> n_in
  in
  let nested_cost = op.p_est.est_cost +. (n_out *. inner_per_probe) in
  let strategy, rows, cost =
    match (deref_link, member_link, hash_link) with
    | Some f, _, _ -> (Fused_deref f, n_out *. isel, op.p_est.est_cost +. (n_out *. 2.0))
    | None, Some f, _ ->
        (* Average container size is unknowable without field statistics;
           price it as a small constant fan-out. *)
        (Fused_member f, n_out *. 4.0 *. isel, op.p_est.est_cost +. (n_out *. 4.0))
    | None, None, Some (f, g) when use_stats && scalar_field db icls g && scalar_field db ocls f
      ->
        let hash_rows = n_out *. m_in *. join_eq_sel g in
        let hash_cost = op.p_est.est_cost +. n_in +. (n_out *. 2.0) +. hash_rows in
        if hash_cost < nested_cost then
          (Hash_join { outer_field = f; inner_field = g }, hash_rows, hash_cost)
        else (Nested_loop, nested_rows, nested_cost)
    | None, None, _ -> (Nested_loop, nested_rows, nested_cost)
  in
  {
    j_ovar = ovar;
    j_ivar = ivar;
    j_outer = op;
    j_inner_cls = icls;
    j_inner_deep = ideep;
    j_inner_only = conjoin inner_only_cs;
    j_strategy = strategy;
    j_rows = rows;
    j_cost = cost;
    j_nested_cost = nested_cost;
    j_stats = use_stats;
  }

let explain_join jp =
  let strat =
    match jp.j_strategy with
    | Nested_loop ->
        Printf.sprintf "nested-loop join (inner %s replanned per outer row)" jp.j_inner_cls
    | Fused_deref f ->
        Printf.sprintf "fused join: deref %s.%s (no %s scan)" jp.j_ovar f jp.j_inner_cls
    | Fused_member f ->
        Printf.sprintf "fused join: members of %s.%s (no %s scan)" jp.j_ovar f jp.j_inner_cls
    | Hash_join { outer_field; inner_field } ->
        Printf.sprintf "hash join: build %s on %s.%s, probe with %s.%s" jp.j_inner_cls jp.j_ivar
          inner_field jp.j_ovar outer_field
  in
  Printf.sprintf "%s — est ~%.0f rows, cost ~%.0f (%s; nested loop ~%.0f)\n  outer: %s" strat
    jp.j_rows jp.j_cost
    (if jp.j_stats then "stats" else "heuristic")
    jp.j_nested_cost (explain jp.j_outer)
