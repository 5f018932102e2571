(* Wire-protocol codec: fuzzed round trips through the frame reader, plus
   the rejection paths (truncation, oversized frames, garbage handshakes)
   the server leans on to survive hostile peers, and the one-version
   handshake. *)

module P = Ode_served.Protocol
module Codec = Ode_util.Codec
module Prng = Ode_util.Prng
module Server = Ode_served.Server
module Client = Ode_served.Client

(* Random binary payload, including NULs and high bytes. *)
let rand_payload rng =
  String.init (Prng.int rng 2048) (fun _ -> Char.chr (Prng.int rng 256))

let rand_op rng : P.op =
  match Prng.int rng 5 with
  | 0 -> Ping
  | 1 -> Exec (rand_payload rng)
  | 2 -> Query (rand_payload rng)
  | 3 -> Dot (rand_payload rng)
  | _ -> Close

let rand_reply rng : P.reply =
  match Prng.int rng 5 with
  | 0 -> Pong
  | 1 -> Output (rand_payload rng)
  | 2 -> Rows (List.init (Prng.int rng 20) (fun _ -> rand_payload rng))
  | 3 -> Err_conflict (rand_payload rng)
  | _ -> Error (rand_payload rng)

let op_eq (a : P.op) (b : P.op) = a = b
let reply_eq (a : P.reply) (b : P.reply) = a = b

(* Feed [data] to a reader in random-sized slices, as a socket would. *)
let feed_in_chunks rng rd data =
  let n = String.length data in
  let pos = ref 0 in
  while !pos < n do
    let k = 1 + Prng.int rng (max 1 (n - !pos)) in
    let k = min k (n - !pos) in
    P.feed rd (Bytes.of_string (String.sub data !pos k)) k;
    pos := !pos + k
  done

let fuzz_requests () =
  let rng = Prng.create 401 in
  let rd = P.reader () in
  for round = 0 to 99 do
    (* A burst of frames arrives as one byte stream split arbitrarily. *)
    let reqs =
      List.init (1 + Prng.int rng 5) (fun i ->
          {
            P.rq_id = (round * 10) + i;
            rq_trace = Prng.int rng 1_000_000;
            rq_op = rand_op rng;
          })
    in
    let b = Buffer.create 4096 in
    List.iter (P.encode_request b) reqs;
    feed_in_chunks rng rd (Buffer.contents b);
    let decoded =
      List.map
        (fun _ ->
          match P.next_frame rd with
          | Some body -> P.decode_request body
          | None -> Alcotest.fail "frame should be complete")
        reqs
    in
    List.iter2
      (fun (a : P.request) (b : P.request) ->
        Tutil.check_int "id" a.rq_id b.rq_id;
        Tutil.check_int "trace" a.rq_trace b.rq_trace;
        Tutil.check_bool "op" true (op_eq a.rq_op b.rq_op))
      reqs decoded;
    Tutil.check_bool "drained" true (P.next_frame rd = None)
  done;
  Tutil.check_int "no leftover bytes" 0 (P.buffered rd)

let fuzz_responses () =
  let rng = Prng.create 402 in
  for i = 0 to 199 do
    let resp = { P.rs_id = i; rs_lsn = Prng.int rng 1_000_000; rs_reply = rand_reply rng } in
    let b = Buffer.create 4096 in
    P.encode_response b resp;
    let rd = P.reader () in
    feed_in_chunks rng rd (Buffer.contents b);
    match P.next_frame rd with
    | None -> Alcotest.fail "complete frame expected"
    | Some body ->
        let got = P.decode_response body in
        Tutil.check_int "id" resp.rs_id got.rs_id;
        Tutil.check_int "lsn" resp.rs_lsn got.rs_lsn;
        Tutil.check_bool "reply" true (reply_eq resp.rs_reply got.rs_reply)
  done

let truncated_frame () =
  let b = Buffer.create 64 in
  P.encode_request b { rq_id = 7; rq_trace = 0; rq_op = Exec "print 1;" };
  let whole = Buffer.contents b in
  (* Every proper prefix must yield "need more bytes", never a frame. *)
  for n = 0 to String.length whole - 1 do
    let rd = P.reader () in
    P.feed rd (Bytes.of_string (String.sub whole 0 n)) n;
    Tutil.check_bool "incomplete" true (P.next_frame rd = None)
  done;
  (* A truncated *body* (length prefix lies) is Corrupt at decode. *)
  let body =
    let rd = P.reader () in
    P.feed rd (Bytes.of_string whole) (String.length whole);
    match P.next_frame rd with Some body -> body | None -> assert false
  in
  let clipped = String.sub body 0 (String.length body - 1) in
  (match P.decode_request clipped with
  | _ -> Alcotest.fail "expected Corrupt on clipped body"
  | exception Codec.Corrupt _ -> ());
  (* ... and so are trailing bytes. *)
  match P.decode_request (body ^ "x") with
  | _ -> Alcotest.fail "expected Corrupt on trailing bytes"
  | exception Codec.Corrupt _ -> ()

let oversized_frame () =
  (* A hostile header announcing a huge body must be rejected from the 4
     header bytes alone — before any body arrives or is buffered. *)
  let b = Buffer.create 8 in
  Codec.put_u32 b (P.max_frame_len + 1);
  let hdr = Buffer.contents b in
  let rd = P.reader () in
  P.feed rd (Bytes.of_string hdr) (String.length hdr);
  (match P.next_frame rd with
  | _ -> Alcotest.fail "expected Corrupt on oversized header"
  | exception Codec.Corrupt _ -> ());
  (* The encoder refuses to build such a frame in the first place. *)
  match P.encode_request (Buffer.create 16) { rq_id = 1; rq_trace = 0; rq_op = Exec (String.make (P.max_frame_len + 1) 'x') } with
  | _ -> Alcotest.fail "expected Invalid_argument on oversized encode"
  | exception Invalid_argument _ -> ()

let garbage_handshake () =
  let rng = Prng.create 403 in
  Tutil.check_bool "good hello" true (P.parse_hello P.hello = Ok P.version);
  Tutil.check_bool "good reply" true (P.parse_hello_reply (P.hello_reply Accepted) = Ok P.version);
  (* Busy / version-mismatch replies render reasons. *)
  (match P.parse_hello_reply (P.hello_reply Busy) with
  | Error msg -> Tutil.check_bool "busy reason" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "busy must not parse as accepted");
  (match P.parse_hello_reply (P.hello_reply Bad_version) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad version must not parse as accepted");
  (* Random garbage of the right length: rejected unless it happens to start
     with the magic (the prng won't produce that). *)
  for _ = 0 to 99 do
    let g = String.init P.hello_len (fun _ -> Char.chr (Prng.int rng 256)) in
    if String.sub g 0 4 <> P.magic then
      Tutil.check_bool "garbage hello rejected" true (Result.is_error (P.parse_hello g))
  done;
  (* Wrong lengths are rejected outright. *)
  Tutil.check_bool "short hello" true (Result.is_error (P.parse_hello "OD"));
  Tutil.check_bool "long hello" true (Result.is_error (P.parse_hello (P.hello ^ "x")));
  Tutil.check_bool "short reply" true (Result.is_error (P.parse_hello_reply "ODEP"))

(* There is one protocol version, so negotiation is all-or-nothing. A
   client hello at any other version gets a [Bad_version] reply and a
   hang-up; a client meeting a server of another version is rejected with
   both versions named; a standby hello at another version is refused. A
   frame carries the trace id, and the strict trailing-bytes check rejects
   a frame with bytes left over rather than misreading it. *)
let hello_at magic v =
  let b = Buffer.create 8 in
  Buffer.add_string b magic;
  Codec.put_u16 b v;
  Buffer.contents b

let rec write_all fd s pos =
  if pos < String.length s then
    write_all fd s (pos + Unix.write_substring fd s pos (String.length s - pos))

(* Everything the peer sends until it hangs up. *)
let read_to_eof fd =
  let b = Buffer.create 16 and buf = Bytes.create 64 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes b buf 0 n;
        go ()
    | exception Unix.Unix_error (ECONNRESET, _, _) -> ()
  in
  go ();
  Buffer.contents b

let dial port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let with_fd fd f =
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () -> f fd)

(* A server of protocol version [v]: answers one hello with [Bad_version]
   and exits. *)
let foreign_server v =
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port = match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  match Unix.fork () with
  | 0 ->
      (try
         let c, _ = Unix.accept lfd in
         let hello = Bytes.create P.hello_len in
         ignore (Unix.read c hello 0 P.hello_len);
         write_all c (hello_at P.magic v ^ "\002") 0;
         Unix.close c
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close lfd;
      (pid, port)

let version_negotiation () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Tutil.temp_dir "ode-proto" in
  let pid, port, rport, _ = Server.spawn_full ~repl_port:0 ~db_dir:dir () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      List.iter
        (fun v ->
          with_fd (dial port) (fun fd ->
              write_all fd (hello_at P.magic v) 0;
              let got = read_to_eof fd in
              Tutil.check_bool (Printf.sprintf "v%d answered Bad_version, then hung up" v) true
                (got = P.hello_reply Bad_version)))
        [ 2; 3; 5 ];
      let c = Client.connect ~timeout:10. ~host:"127.0.0.1" ~port () in
      Client.ping c;
      Client.close c;
      (* A standby at another version: the primary hangs up without a word. *)
      let repl_hello = Buffer.create 16 in
      P.encode_repl repl_hello (P.R_hello 0);
      List.iter
        (fun v ->
          with_fd (dial rport) (fun fd ->
              write_all fd (hello_at P.repl_magic v ^ Buffer.contents repl_hello) 0;
              Tutil.check_string (Printf.sprintf "repl v%d refused" v) "" (read_to_eof fd)))
        [ 3; 5 ];
      with_fd (dial rport) (fun fd ->
          write_all fd (P.repl_hello ^ Buffer.contents repl_hello) 0;
          Tutil.check_bool "repl at our version answered" true
            (Unix.read fd (Bytes.create 64) 0 64 > 0)));
  Tutil.check_bool "own repl hello" true (P.parse_repl_hello P.repl_hello = Ok ());
  List.iter
    (fun v ->
      Tutil.check_bool "other repl version" true
        (Result.is_error (P.parse_repl_hello (hello_at P.repl_magic v))))
    [ 2; 3; 5 ];
  let fpid, fport = foreign_server 5 in
  (match Client.connect ~timeout:10. ~host:"127.0.0.1" ~port:fport () with
  | c ->
      Client.close c;
      Alcotest.fail "a version-5 server must be rejected"
  | exception Client.Rejected msg ->
      Tutil.check_string "names both versions"
        (Printf.sprintf "protocol version mismatch (server 5, client %d)" P.version)
        msg);
  ignore (Unix.waitpid [] fpid);
  let rq = { P.rq_id = 42; rq_trace = 0xbeef; rq_op = Exec "print 1;" } in
  let b = Buffer.create 64 in
  P.encode_request b rq;
  let rd = P.reader () in
  P.feed rd (Buffer.to_bytes b) (Buffer.length b);
  match P.next_frame rd with
  | None -> Alcotest.fail "complete frame expected"
  | Some body ->
      Tutil.check_bool "request round trip with trace id" true (P.decode_request body = rq);
      Tutil.check_bool "trailing byte rejected" true
        (match P.decode_request (body ^ "\000") with
        | _ -> false
        | exception Codec.Corrupt _ -> true)

(* No downgrade: the conflict reply round-trips under its own tag (4), not
   as an ordinary error with a "conflict: " prefix. *)
let conflict_downgrade () =
  let b = Buffer.create 64 in
  P.encode_response b { P.rs_id = 9; rs_lsn = 17; rs_reply = Err_conflict "root last" };
  let rd = P.reader () in
  P.feed rd (Buffer.to_bytes b) (Buffer.length b);
  match P.next_frame rd with
  | None -> Alcotest.fail "complete frame expected"
  | Some body ->
      Tutil.check_int "conflict tag" 4 (Char.code body.[4 + 8]);
      Tutil.check_bool "conflict round trip" true
        ((P.decode_response body).P.rs_reply = Err_conflict "root last")

let reader_take () =
  let rd = P.reader () in
  P.feed rd (Bytes.of_string "abcdef") 6;
  Tutil.check_bool "short take" true (P.take rd 7 = None);
  Tutil.check_bool "take 4" true (P.take rd 4 = Some "abcd");
  Tutil.check_int "left" 2 (P.buffered rd);
  Tutil.check_bool "take rest" true (P.take rd 2 = Some "ef");
  Tutil.check_int "empty" 0 (P.buffered rd)

let suite =
  [
    ( "protocol",
      [
        Alcotest.test_case "fuzz request round-trips" `Quick fuzz_requests;
        Alcotest.test_case "fuzz response round-trips" `Quick fuzz_responses;
        Alcotest.test_case "truncated frames wait or reject" `Quick truncated_frame;
        Alcotest.test_case "oversized frames rejected early" `Quick oversized_frame;
        Alcotest.test_case "garbage handshakes rejected" `Quick garbage_handshake;
        Alcotest.test_case "version negotiation framing" `Quick version_negotiation;
        Alcotest.test_case "conflict reply downgrade" `Quick conflict_downgrade;
        Alcotest.test_case "reader take semantics" `Quick reader_take;
      ] );
  ]
