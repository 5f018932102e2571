(** Recursive-descent parser for the O++-like surface language.

    Grammar sketch (see README for the full reference):
    {v
      class C : P1, P2 {
        f : int;  g : ref D;  h : set<string>;
        method m(a: int) : float = expr;
        constraint k : expr;
        trigger [perpetual] t(a: int) : [within e :] cond ==> { stmts } [timeout { stmts }];
      };
      create cluster C;        create index on C(f);
      x := pnew C { f = 1, g = y };
      forall x in C[*] [suchthat e] [by e [desc]] { stmts };
    v} *)

exception Parse_error of string * int
(** message and byte offset *)

val program : string -> Ast.top list
(** Parse a whole input (shell script / schema file). *)

val forall_query : string -> Ast.forall
(** Parse one forall query, with or without a body and a final [;]
    ([explain] may lead it): the argument of the shell's [.explain] and
    [.profile] and of the server's [Query] request. *)

val expr : string -> Ast.expr
(** Parse a single expression (used for stored constraints). *)

val stmts : string -> Ast.stmt list
(** Parse a statement sequence (used for stored trigger actions). *)
