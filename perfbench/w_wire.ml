(* wire_session: one client session against a server forked with
   [Server.spawn], in a closed loop (the session waits for each reply).
   80% of requests are [Client.query] point lookups by sku, 20% are
   [Client.exec] one-object autocommit updates that keep the constraint
   true. It is the only workload that crosses the protocol, the poll
   loop, the session and the language front end on every request.

   The traced run also replays the same kind of request texts in-process,
   on a second copy of the fixture, through Protocol encode/decode, the
   parser and [Session.handle], which separates their cost from socket and
   poll-loop time. *)

open Bench
module Server = Ode_served.Server
module Client = Ode_served.Client
module Protocol = Ode_served.Protocol
module Session = Ode_served.Session

let items = 10_000
let suppliers = 100

(* Build the fixture, closed, in [dir]; returns the item model. *)
let build ~seed ~dir =
  let rng = Prng.create seed in
  let db = open_db dir in
  define db;
  let sups = load_suppliers db suppliers in
  let model = load_items db rng sups items in
  ignore (Db.analyze db);
  Db.close db;
  (model, supplier_bytes sups)

type request = Lookup of item | Update of item * int

let next_request rng model =
  let it = model.(Prng.int rng items) in
  if Prng.int rng 100 < 80 then Lookup it else Update (it, Prng.int rng (it.max_level + 1))

let text = function
  | Lookup it -> Printf.sprintf "forall i in stockitem suchthat i.sku == %d" it.sku
  | Update (it, qty) ->
      Printf.sprintf "forall i in stockitem suchthat i.sku == %d { i.qty := %d; };" it.sku qty

(* The front end's work on one request text: a bodiless forall parses as
   the statement of an explain. *)
let parse req =
  match req with
  | Lookup _ -> Ode_lang.Parser.program ("explain " ^ text req ^ ";")
  | Update _ -> Ode_lang.Parser.program (text req)

(* A looked-up row must be the item, with the model's quantity; rows
   render as [<oid> {sku = 5, name = "...", qty = 7, ...}]. *)
let row_ok it = function
  | [ row ] ->
      let fields = String.split_on_char ',' row in
      List.hd fields = Fmt.str "%a {sku = %d" Oid.pp it.oid it.sku
      && List.mem (Printf.sprintf " qty = %d" it.qty) fields
  | _ -> false

(* count and mean (ns) of the server's own [server.request] histogram *)
let server_hist client =
  Scanf.sscanf (Client.dot client ".hist server.request")
    "server.request count %d p50 %_d p95 %_d p99 %_d max %_d mean %d" (fun n mean -> (n, mean))

let check_dir ~dir ~add model =
  reopen_and_check ~dir ~add (fun _ txn -> Array.iter (check_item ~add txn) model)

(* The in-process replay: its own fixture copy, model and session. *)
type replay = {
  r_op : unit -> bool;
  r_db : Db.t;
  r_results : int ref;
  r_queries : int ref;
  r_close : unit -> unit;
  r_check : (string -> unit) -> unit;
}

let replay ~seed ~dir =
  let model, _ = build ~seed ~dir in
  let db = open_db dir in
  let session = Session.create db in
  let rng = Prng.create (seed + 1) in
  let results = ref 0 and queries = ref 0 and id = ref 0 in
  let frame_body b =
    let s = Buffer.contents b in
    String.sub s 4 (String.length s - 4)
  in
  let op () =
    let req = next_request rng model in
    let src = text req in
    incr id;
    let rq_op = match req with Lookup _ -> Protocol.Query src | Update _ -> Protocol.Exec src in
    let b = Buffer.create 128 in
    call "Protocol.encode_request" (fun () ->
        Protocol.encode_request b
          { Protocol.rq_id = !id; rq_trace = Trace.current_trace_id (); rq_op });
    let rq = call "Protocol.decode_request" (fun () -> Protocol.decode_request (frame_body b)) in
    ignore (call "Parser.program" (fun () -> parse req));
    let rs = call "Session.handle" (fun () -> Session.handle session rq) in
    let b = Buffer.create 256 in
    call "Protocol.encode_response" (fun () -> Protocol.encode_response b rs);
    let rs = call "Protocol.decode_response" (fun () -> Protocol.decode_response (frame_body b)) in
    (* Both kinds of request run one query; an update's result is the
       one item it updates. *)
    incr queries;
    match (req, rs.rs_reply) with
    | Lookup it, Protocol.Rows rows ->
        results := !results + List.length rows;
        row_ok it rows
    | Update (it, qty), Protocol.Output "" ->
        incr results;
        it.qty <- qty;
        true
    | _ -> false
  in
  let close () =
    Session.close session;
    Db.close db
  in
  {
    r_op = op;
    r_db = db;
    r_results = results;
    r_queries = queries;
    r_close = close;
    r_check = (fun add -> check_dir ~dir ~add model);
  }

let lookup_plan = Ode_lang.Parser.expr "i.sku == 42"

let setup ~seed ~dir ~traced =
  let model, sup_bytes = build ~seed ~dir in
  Gc.compact ();
  let pid, port = Server.spawn ~durability ~db_dir:dir () in
  let client = Client.connect ~host:"127.0.0.1" ~port () in
  Client.ping client;
  let rng = Prng.create seed in
  let h0 = server_hist client in
  let client_ns = ref 0 and client_n = ref 0 in
  let op () =
    let req = next_request rng model in
    let t0 = Trace.now_ns () in
    let ok =
      match req with
      | Lookup it -> row_ok it (call "Client.query" (fun () -> Client.query client (text req)))
      | Update (it, qty) ->
          let out = call "Client.exec" (fun () -> Client.exec client (text req)) in
          it.qty <- qty;
          out = ""
    in
    client_ns := !client_ns + (Trace.now_ns () - t0);
    incr client_n;
    ok
  in
  let replay = if traced then Some (replay ~seed ~dir:(dir ^ "-replay")) else None in
  let extra () =
    let n1, mean1 = server_hist client in
    let n0, mean0 = h0 in
    let server_us =
      if n1 > n0 then float_of_int ((n1 * mean1) - (n0 * mean0)) /. float_of_int (n1 - n0) /. 1e3
      else 0.
    in
    let client_us =
      if !client_n = 0 then 0. else float_of_int !client_ns /. float_of_int !client_n /. 1e3
    in
    [ ("server.request_us", server_us); ("wire.overhead_us", client_us -. server_us) ]
  in
  let exit_status = ref None in
  let close () =
    (try Client.close client with _ -> ());
    Unix.kill pid Sys.sigterm;
    exit_status := Some (snd (Unix.waitpid [] pid));
    Option.iter (fun r -> r.r_close ()) replay
  in
  let check () =
    let add, result = problems () in
    if !exit_status <> Some (Unix.WEXITED 0) then add "the server did not exit cleanly on SIGTERM";
    check_dir ~dir ~add model;
    Option.iter (fun r -> r.r_check add) replay;
    result ()
  in
  let from_replay f default = match replay with Some r -> f r | None -> default in
  {
    op;
    count_op = from_replay (fun r -> r.r_op) op;
    explain =
      from_replay
        (fun r () ->
          ignore
            (call "Query.explain" (fun () ->
                 Ode.Query.explain r.r_db ~var:"i" ~cls:"stockitem" ~suchthat:lookup_plan ())))
        no_explain;
    user_bytes = (fun () -> Array.fold_left (fun acc it -> acc + item_bytes it) sup_bytes model);
    peak_rss_kb = (fun () -> vm_hwm_kb (string_of_int pid));
    counting_db = Option.map (fun r -> r.r_db) replay;
    results = from_replay (fun r () -> !(r.r_results)) zero;
    queries = from_replay (fun r () -> !(r.r_queries)) zero;
    extra;
    close;
    check;
  }

let workload =
  {
    name = "wire_session";
    tail_pct = 95.;
    count_ops = 2000;
    sizes =
      [ ("items", items); ("suppliers", suppliers); ("server_domains", 1); ("connections", 1) ];
    setup;
  }
