open Ast

exception Parse_error of string * int

type state = { toks : (Lexer.token * int) array; mutable pos : int }

let err st fmt =
  let off = match st.toks.(st.pos) with _, o -> o in
  Format.kasprintf (fun s -> raise (Parse_error (s, off))) fmt

let peek st = fst st.toks.(st.pos)
let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let next st =
  let t = peek st in
  advance st;
  t

let accept_punct st p =
  match peek st with
  | Lexer.PUNCT q when q = p ->
      advance st;
      true
  | _ -> false

let accept_kw st k =
  match peek st with
  | Lexer.KW q when q = k ->
      advance st;
      true
  | _ -> false

let expect_punct st p =
  if not (accept_punct st p) then err st "expected %S, got %a" p Lexer.pp_token (peek st)

let expect_kw st k =
  if not (accept_kw st k) then err st "expected keyword %s, got %a" k Lexer.pp_token (peek st)

let ident st =
  match next st with
  | Lexer.IDENT s -> s
  | t -> err st "expected identifier, got %a" Lexer.pp_token t

(* -- types -------------------------------------------------------------- *)

let rec type_expr st =
  match next st with
  | Lexer.KW "int" -> TyInt
  | Lexer.KW "float" -> TyFloat
  | Lexer.KW "bool" -> TyBool
  | Lexer.KW "string" -> TyString
  | Lexer.KW "ref" -> TyRef (ident st)
  | Lexer.KW "set" ->
      expect_punct st "<";
      let t = type_expr st in
      expect_punct st ">";
      TySet t
  | Lexer.KW "list" ->
      expect_punct st "<";
      let t = type_expr st in
      expect_punct st ">";
      TyList t
  | t -> err st "expected a type, got %a" Lexer.pp_token t

(* -- expressions --------------------------------------------------------- *)

let rec expr_or st =
  let lhs = expr_and st in
  if accept_punct st "||" || accept_kw st "or" then Binop (Or, lhs, expr_or st) else lhs

and expr_and st =
  let lhs = expr_not st in
  if accept_punct st "&&" || accept_kw st "and" then Binop (And, lhs, expr_and st) else lhs

and expr_not st =
  if accept_punct st "!" || accept_kw st "not" then Unop (Not, expr_not st) else expr_cmp st

and expr_cmp st =
  let lhs = expr_add st in
  let binop op = Binop (op, lhs, expr_add st) in
  match peek st with
  | Lexer.PUNCT "==" | Lexer.PUNCT "=" ->
      advance st;
      binop Eq
  | Lexer.PUNCT "!=" ->
      advance st;
      binop Ne
  | Lexer.PUNCT "<" ->
      advance st;
      binop Lt
  | Lexer.PUNCT "<=" ->
      advance st;
      binop Le
  | Lexer.PUNCT ">" ->
      advance st;
      binop Gt
  | Lexer.PUNCT ">=" ->
      advance st;
      binop Ge
  | Lexer.KW "in" ->
      advance st;
      binop In
  | Lexer.KW "is" ->
      advance st;
      Is (lhs, ident st)
  | _ -> lhs

and expr_add st =
  let rec go lhs =
    if accept_punct st "+" then go (Binop (Add, lhs, expr_mul st))
    else if accept_punct st "-" then go (Binop (Sub, lhs, expr_mul st))
    else lhs
  in
  go (expr_mul st)

and expr_mul st =
  let rec go lhs =
    if accept_punct st "*" then go (Binop (Mul, lhs, expr_unary st))
    else if accept_punct st "/" then go (Binop (Div, lhs, expr_unary st))
    else if accept_punct st "%" then go (Binop (Mod, lhs, expr_unary st))
    else lhs
  in
  go (expr_unary st)

and expr_unary st =
  if accept_punct st "-" then Unop (Neg, expr_unary st) else expr_postfix st

and expr_postfix st =
  let rec go e =
    if accept_punct st "." then begin
      let name = ident st in
      if accept_punct st "(" then go (Call (Some e, name, args st)) else go (Field (e, name))
    end
    else e
  in
  go (expr_primary st)

and args st =
  if accept_punct st ")" then []
  else
    let rec go acc =
      let e = expr_or st in
      if accept_punct st "," then go (e :: acc)
      else begin
        expect_punct st ")";
        List.rev (e :: acc)
      end
    in
    go []

and expr_primary st =
  match next st with
  | Lexer.INT n -> Int n
  | Lexer.FLOAT f -> Float f
  | Lexer.STRING s -> Str s
  | Lexer.KW "true" -> Bool true
  | Lexer.KW "false" -> Bool false
  | Lexer.KW "null" -> Null
  | Lexer.KW "this" -> This
  | Lexer.KW (("int" | "float") as conv) ->
      (* Conversion builtins share their name with the type keywords. *)
      expect_punct st "(";
      Call (None, conv, args st)
  | Lexer.IDENT name -> if accept_punct st "(" then Call (None, name, args st) else Var name
  | Lexer.PUNCT "(" ->
      let e = expr_or st in
      expect_punct st ")";
      e
  | Lexer.PUNCT "{" ->
      if accept_punct st "}" then SetLit []
      else
        let rec go acc =
          let e = expr_or st in
          if accept_punct st "," then go (e :: acc)
          else begin
            expect_punct st "}";
            SetLit (List.rev (e :: acc))
          end
        in
        go []
  | Lexer.PUNCT "[" ->
      if accept_punct st "]" then ListLit []
      else
        let rec go acc =
          let e = expr_or st in
          if accept_punct st "," then go (e :: acc)
          else begin
            expect_punct st "]";
            ListLit (List.rev (e :: acc))
          end
        in
        go []
  | t -> err st "expected an expression, got %a" Lexer.pp_token t

let expression st = expr_or st

(* -- statements ----------------------------------------------------------- *)

let field_inits st =
  expect_punct st "{";
  if accept_punct st "}" then []
  else
    let rec go acc =
      let f = ident st in
      expect_punct st "=";
      let e = expression st in
      if accept_punct st "," then go ((f, e) :: acc)
      else begin
        expect_punct st "}";
        List.rev ((f, e) :: acc)
      end
    in
    go []

let rec block st =
  expect_punct st "{";
  let rec go acc = if accept_punct st "}" then List.rev acc else go (statement st :: acc) in
  go []

and forall_head st =
  let q_var = ident st in
  expect_kw st "in";
  let q_cls = ident st in
  let q_deep = accept_punct st "*" in
  let q_suchthat = if accept_kw st "suchthat" then Some (expression st) else None in
  let q_by =
    if accept_kw st "by" then begin
      let e = expression st in
      let ord = if accept_kw st "desc" then Desc else (ignore (accept_kw st "asc"); Asc) in
      Some (e, ord)
    end
    else None
  in
  { q_var; q_cls; q_deep; q_suchthat; q_by; q_body = [] }

and statement st =
  match peek st with
  | Lexer.KW "print" ->
      advance st;
      let rec go acc =
        let e = expression st in
        if accept_punct st "," then go (e :: acc)
        else begin
          expect_punct st ";";
          SPrint (List.rev (e :: acc))
        end
      in
      go []
  | Lexer.KW "pdelete" ->
      advance st;
      let e = expression st in
      expect_punct st ";";
      SDelete e
  | Lexer.KW "newversion" ->
      advance st;
      let e = expression st in
      expect_punct st ";";
      SNewVersion e
  | Lexer.KW "deactivate" ->
      advance st;
      let e = expression st in
      expect_punct st ";";
      SDeactivate e
  | Lexer.KW "insert" ->
      advance st;
      let e = expression st in
      expect_kw st "into";
      let target = expression st in
      expect_punct st ";";
      (match target with
      | Field (obj, f) -> SInsert (e, f, obj)
      | _ -> err st "insert target must be object.field")
  | Lexer.KW "remove" ->
      advance st;
      let e = expression st in
      expect_kw st "from";
      let target = expression st in
      expect_punct st ";";
      (match target with
      | Field (obj, f) -> SRemove (e, f, obj)
      | _ -> err st "remove target must be object.field")
  | Lexer.KW "if" ->
      advance st;
      expect_punct st "(";
      let cond = expression st in
      expect_punct st ")";
      let then_ = block st in
      let else_ = if accept_kw st "else" then block st else [] in
      ignore (accept_punct st ";");
      SIf (cond, then_, else_)
  | Lexer.KW "forall" ->
      advance st;
      let head = forall_head st in
      let body = block st in
      ignore (accept_punct st ";");
      SForall { head with q_body = body }
  | Lexer.KW "return" ->
      advance st;
      let e = expression st in
      expect_punct st ";";
      SReturn e
  | Lexer.KW "pnew" ->
      advance st;
      let cls = ident st in
      let inits = field_inits st in
      expect_punct st ";";
      SNew (None, cls, inits)
  | Lexer.KW "activate" ->
      advance st;
      let e = expr_postfix st in
      expect_punct st ";";
      (match e with
      | Call (Some recv, name, a) -> SActivate (None, recv, name, a)
      | _ -> err st "activate expects object.trigger(args)")
  | _ ->
      (* expression-led: assignment, field update, or bare expression *)
      let e = expression st in
      if accept_punct st ":=" then begin
        let rhs_new st =
          let cls = ident st in
          let inits = field_inits st in
          (cls, inits)
        in
        match (e, peek st) with
        | Var x, Lexer.KW "pnew" ->
            advance st;
            let cls, inits = rhs_new st in
            expect_punct st ";";
            SNew (Some x, cls, inits)
        | Var x, Lexer.KW "activate" ->
            advance st;
            let call = expr_postfix st in
            expect_punct st ";";
            (match call with
            | Call (Some recv, name, a) -> SActivate (Some x, recv, name, a)
            | _ -> err st "activate expects object.trigger(args)")
        | Var x, _ ->
            let rhs = expression st in
            expect_punct st ";";
            SAssign (x, rhs)
        | Field (obj, f), _ ->
            let rhs = expression st in
            expect_punct st ";";
            SSetField (obj, f, rhs)
        | _ -> err st "invalid assignment target"
      end
      else begin
        expect_punct st ";";
        SExpr e
      end

(* -- class declarations ------------------------------------------------------ *)

let params st =
  expect_punct st "(";
  if accept_punct st ")" then []
  else
    let rec go acc =
      let fd_name = ident st in
      expect_punct st ":";
      let fd_type = type_expr st in
      let p = { fd_name; fd_type; fd_default = None } in
      if accept_punct st "," then go (p :: acc)
      else begin
        expect_punct st ")";
        List.rev (p :: acc)
      end
    in
    go []

let class_decl st =
  let c_name = ident st in
  let c_parents =
    if accept_punct st ":" then
      let rec go acc =
        let p = ident st in
        if accept_punct st "," then go (p :: acc) else List.rev (p :: acc)
      in
      go []
    else []
  in
  expect_punct st "{";
  let fields = ref [] and methods = ref [] and constraints = ref [] and triggers = ref [] in
  let rec members () =
    if accept_punct st "}" then ()
    else begin
      (match peek st with
      | Lexer.KW "method" ->
          advance st;
          let m_name = ident st in
          let m_params = params st in
          expect_punct st ":";
          let m_ret = type_expr st in
          expect_punct st "=";
          let m_body = expression st in
          expect_punct st ";";
          methods := { m_name; m_params; m_ret; m_body } :: !methods
      | Lexer.KW "constraint" ->
          advance st;
          let k_name = ident st in
          expect_punct st ":";
          let k_expr = expression st in
          expect_punct st ";";
          constraints := { k_name; k_expr } :: !constraints
      | Lexer.KW "trigger" ->
          advance st;
          let g_perpetual = accept_kw st "perpetual" in
          let g_name = ident st in
          let g_params = params st in
          expect_punct st ":";
          let g_within =
            if accept_kw st "within" then begin
              let e = expression st in
              expect_punct st ":";
              Some e
            end
            else None
          in
          let g_cond = expression st in
          expect_punct st "==>";
          let g_action = block st in
          let g_timeout = if accept_kw st "timeout" then block st else [] in
          expect_punct st ";";
          triggers := { g_name; g_params; g_perpetual; g_within; g_cond; g_action; g_timeout } :: !triggers
      | _ ->
          let fd_name = ident st in
          expect_punct st ":";
          let fd_type = type_expr st in
          let fd_default = if accept_punct st "=" then Some (expression st) else None in
          expect_punct st ";";
          fields := { fd_name; fd_type; fd_default } :: !fields);
      members ()
    end
  in
  members ();
  ignore (accept_punct st ";");
  {
    c_name;
    c_parents;
    c_fields = List.rev !fields;
    c_methods = List.rev !methods;
    c_constraints = List.rev !constraints;
    c_triggers = List.rev !triggers;
  }

(* -- top level ------------------------------------------------------------------ *)

let top st =
  match peek st with
  | Lexer.KW "class" ->
      advance st;
      TClass (class_decl st)
  | Lexer.KW "create" ->
      advance st;
      if accept_kw st "cluster" then begin
        let c = ident st in
        expect_punct st ";";
        TCreateCluster c
      end
      else begin
        expect_kw st "index";
        expect_kw st "on";
        let c = ident st in
        expect_punct st "(";
        let f = ident st in
        expect_punct st ")";
        expect_punct st ";";
        TCreateIndex (c, f)
      end
  | Lexer.KW "begin" ->
      advance st;
      expect_punct st ";";
      TBegin
  | Lexer.KW "commit" ->
      advance st;
      expect_punct st ";";
      TCommit
  | Lexer.KW "abort" ->
      advance st;
      expect_punct st ";";
      TAbort
  | Lexer.KW "show" ->
      advance st;
      if accept_kw st "stats" then begin
        expect_punct st ";";
        TShowStats
      end
      else begin
        expect_kw st "classes";
        expect_punct st ";";
        TShowClasses
      end
  | Lexer.KW "verify" ->
      advance st;
      expect_punct st ";";
      TVerify
  | Lexer.KW "dump" ->
      advance st;
      expect_punct st ";";
      TDump
  | Lexer.KW "load" ->
      advance st;
      let path = match next st with
        | Lexer.STRING s -> s
        | t -> err st "load expects a file name string, got %a" Lexer.pp_token t
      in
      expect_punct st ";";
      TLoad path
  | Lexer.KW "explain" ->
      advance st;
      expect_kw st "forall";
      let head = forall_head st in
      expect_punct st ";";
      TExplain head
  | Lexer.KW "analyze" ->
      advance st;
      expect_punct st ";";
      TAnalyze
  | Lexer.KW "advance" ->
      advance st;
      expect_kw st "time";
      let e = expression st in
      expect_punct st ";";
      TAdvance e
  | _ -> TStmt (statement st)

let make_state src =
  { toks = Array.of_list (Lexer.tokenize src); pos = 0 }

let program src =
  let st = make_state src in
  let rec go acc = if peek st = Lexer.EOF then List.rev acc else go (top st :: acc) in
  go []

let forall_query src =
  let st = make_state src in
  ignore (accept_kw st "explain");
  expect_kw st "forall";
  let head = forall_head st in
  let q_body = if peek st = Lexer.PUNCT "{" then block st else [] in
  ignore (accept_punct st ";");
  if peek st <> Lexer.EOF then err st "trailing input after forall query";
  { head with q_body }

let expr src =
  let st = make_state src in
  let e = expression st in
  if peek st <> Lexer.EOF then err st "trailing input after expression";
  e

let stmts src =
  let st = make_state src in
  let rec go acc = if peek st = Lexer.EOF then List.rev acc else go (statement st :: acc) in
  go []
