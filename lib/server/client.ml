(* Blocking client: synchronous request/response over one socket, with a
   configurable retry budget. Timeouts ride on SO_RCVTIMEO/SO_SNDTIMEO, so a
   stuck server surfaces as Timeout instead of a hung process.

   Failover: the write pool is the primary followed by the [replicas] — a
   transient connection failure or a "read-only replica" redirect rotates to
   the next endpoint with exponential backoff and jitter, which is exactly
   the promotion dance: the old primary dies, writes bounce off standbys
   until one is promoted, then stick there. Reads route to a replica
   connection when [replicas] were given, with read-your-writes stickiness:
   every response carries the server's commit LSN, the client remembers the
   highest it has seen from the write pool, and a replica answer behind that
   watermark is discarded in favor of the primary. *)

exception Server_error of string
exception Conflict of string
exception Rejected of string
exception Disconnected of string
exception Timeout

exception Pipeline_broken of { acked : (string, string) result list; pending : int }

type t = {
  endpoints : (string * int) array; (* write pool: primary first, then replicas *)
  mutable active : int;             (* current write endpoint *)
  replicas : (string * int) array;  (* read pool *)
  mutable ractive : int;
  timeout : float;
  retries : int;
  backoff : float;
  mutable fd : Unix.file_descr option;  (* write-pool connection *)
  mutable rfd : Unix.file_descr option; (* read-pool connection *)
  mutable next_id : int;
  mutable seen_lsn : int; (* read-your-writes watermark *)
  mutable last_trace : int; (* trace id of the most recent request *)
  jitter : Random.State.t;
}

(* Raised internally when the peer hangs up mid-exchange; converted to a
   rotate-and-retry or Disconnected. *)
exception Conn_lost of string

let rec write_all fd s pos len =
  if len > 0 then
    match Unix.write_substring fd s pos len with
    | exception Unix.Unix_error (EINTR, _, _) -> write_all fd s pos len
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> raise Timeout
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
        raise (Conn_lost "connection closed while sending")
    | n -> write_all fd s (pos + n) (len - n)

let read_exact fd n =
  let buf = Bytes.create n in
  let rec go pos =
    if pos < n then
      match Unix.read fd buf pos (n - pos) with
      | exception Unix.Unix_error (EINTR, _, _) -> go pos
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> raise Timeout
      | exception Unix.Unix_error (ECONNRESET, _, _) ->
          raise (Conn_lost "connection reset by server")
      | 0 -> raise (Conn_lost "connection closed by server")
      | k -> go (pos + k)
  in
  go 0;
  Bytes.to_string buf

let open_socket ~timeout ~host ~port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    write_all fd Protocol.hello 0 Protocol.hello_len;
    let reply =
      try read_exact fd Protocol.hello_reply_len
      with Conn_lost msg -> raise (Rejected ("handshake: " ^ msg))
    in
    (match Protocol.parse_hello_reply reply with
    | Ok _ -> ()
    | Error msg -> raise (Rejected msg));
    fd
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let connect ?(timeout = 30.) ?(retries = 4) ?(backoff = 0.05) ?(replicas = []) ~host ~port
    () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let t =
    {
      endpoints = Array.of_list ((host, port) :: replicas);
      active = 0;
      replicas = Array.of_list replicas;
      ractive = 0;
      timeout;
      retries = max 0 retries;
      backoff = Float.max 0. backoff;
      fd = None;
      rfd = None;
      next_id = 0;
      seen_lsn = -1;
      last_trace = 0;
      jitter = Random.State.make_self_init ();
    }
  in
  t.fd <- Some (open_socket ~timeout ~host ~port);
  t

let drop_socket t =
  match t.fd with
  | None -> ()
  | Some fd ->
      t.fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let drop_replica_socket t =
  match t.rfd with
  | None -> ()
  | Some fd ->
      t.rfd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let socket t =
  match t.fd with
  | Some fd -> fd
  | None ->
      (* First use after a lost connection: the current write endpoint. *)
      let host, port = t.endpoints.(t.active) in
      let fd = open_socket ~timeout:t.timeout ~host ~port in
      t.fd <- Some fd;
      fd

(* Every request gets a fresh client-assigned trace id (nonzero, from the
   client's own PRNG): the id rides the request frame, the server stamps it on
   the request's spans and into the WAL commit record, and [last_trace_id]
   lets a caller correlate its request with server-side dumps and logs. *)
let fresh_trace t =
  let rec go () =
    let id = Int64.to_int (Random.State.bits64 t.jitter) land max_int in
    if id = 0 then go () else id
  in
  let id = go () in
  t.last_trace <- id;
  id

(* One request/response over [fd]. [timeout], when given, overrides the
   connection default for just this exchange. *)
let raw_exchange ?timeout t fd op : Protocol.response =
  (match timeout with
  | Some s ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
  | None -> ());
  t.next_id <- t.next_id + 1;
  let id = t.next_id in
  let b = Buffer.create 256 in
  Protocol.encode_request b { rq_id = id; rq_trace = fresh_trace t; rq_op = op };
  let frame = Buffer.contents b in
  write_all fd frame 0 (String.length frame);
  let len_bytes = read_exact fd 4 in
  let len = Ode_util.Codec.get_u32 (Ode_util.Codec.cursor len_bytes) in
  if len > Protocol.max_frame_len then
    raise (Ode_util.Codec.Corrupt (Printf.sprintf "client: %d-byte response frame" len));
  let resp = Protocol.decode_response (read_exact fd len) in
  (match timeout with
  | Some _ ->
      (* Restore the defaults for the next exchange. *)
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.timeout;
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.timeout
       with Unix.Unix_error _ -> ())
  | None -> ());
  if resp.rs_id <> id then
    raise
      (Ode_util.Codec.Corrupt
         (Printf.sprintf "client: response id %d for request %d" resp.rs_id id));
  resp

let exchange ?timeout t op = raw_exchange ?timeout t (socket t) op

(* The rendered form of [Read_only_store]: this prefix is the server telling
   us to take our writes elsewhere (see lib/core/shell.ml). *)
let redirect_prefix = "read-only replica"

let is_redirect msg =
  String.length msg >= String.length redirect_prefix
  && String.sub msg 0 (String.length redirect_prefix) = redirect_prefix

let rotate_endpoint t = t.active <- (t.active + 1) mod Array.length t.endpoints

(* Exponential backoff with jitter: base * 2^attempt, capped, scaled by a
   uniform [0.5, 1.0) draw so a thundering herd of retrying clients spreads
   out. *)
let backoff_sleep t attempt =
  let d = Float.min (t.backoff *. (2. ** float_of_int attempt)) 2.0 in
  let d = d *. (0.5 +. Random.State.float t.jitter 0.5) in
  if d > 0. then Unix.sleepf d

(* Run [op] against the write pool, burning the retry budget on transient
   connection failures, read-only redirects (each rotates endpoints: the
   promoted standby is somewhere in the pool) and first-committer-wins
   conflicts (same endpoint, same session — re-executing the request
   replays the transaction against a fresh snapshot; with jittered backoff
   so two colliding writers do not collide again in lockstep). Successful
   responses advance the read-your-writes watermark. *)
let response ?timeout t op : Protocol.response =
  let rec go attempt =
    let retry msg =
      drop_socket t;
      if attempt >= t.retries then raise (Disconnected msg)
      else begin
        rotate_endpoint t;
        backoff_sleep t attempt;
        go (attempt + 1)
      end
    in
    match exchange ?timeout t op with
    | resp -> (
        match resp.rs_reply with
        | Protocol.Error msg
          when is_redirect msg && attempt < t.retries && Array.length t.endpoints > 1 ->
            (* A standby answered: rotate until we find the primary (or a
               freshly promoted one). *)
            drop_socket t;
            rotate_endpoint t;
            backoff_sleep t attempt;
            go (attempt + 1)
        | Protocol.Err_conflict msg ->
            (* The server already aborted the losing transaction; the
               session and socket are fine — retry right here. Budget
               exhausted: surface the retryable error for the caller to
               replay at its own pace. *)
            if attempt >= t.retries then raise (Conflict msg)
            else begin
              backoff_sleep t attempt;
              go (attempt + 1)
            end
        | _ ->
            if resp.rs_lsn > t.seen_lsn then t.seen_lsn <- resp.rs_lsn;
            resp)
    | exception Conn_lost msg -> retry msg
    | exception
        Unix.Unix_error
          ( (ECONNREFUSED | ECONNRESET | EHOSTUNREACH | ENETUNREACH | ETIMEDOUT | EPIPE),
            _,
            _ ) ->
        retry "connect failed"
  in
  go 0

let call ?timeout t op = (response ?timeout t op).rs_reply

let unexpected what (reply : Protocol.reply) =
  match reply with
  | Error msg -> raise (Server_error msg)
  (* [response] retries conflicts and raises {!Conflict} past the budget,
     so this arm only fires for replies that bypassed it. *)
  | Err_conflict msg -> raise (Conflict msg)
  | Pong -> failwith (what ^ ": unexpected Pong reply")
  | Output _ -> failwith (what ^ ": unexpected Output reply")
  | Rows _ -> failwith (what ^ ": unexpected Rows reply")

(* -- read routing --------------------------------------------------------- *)

(* Best-effort read against the read pool: [None] means "use the primary" —
   no replica reachable, the answer was behind the watermark (stickiness),
   or the replica session couldn't run the query (e.g. it references shell
   variables bound on the primary session). *)
let replica_response ?timeout t op =
  let n = Array.length t.replicas in
  let rec go tries =
    if tries = 0 then None
    else
      let fd =
        match t.rfd with
        | Some fd -> Some fd
        | None -> (
            let host, port = t.replicas.(t.ractive) in
            match open_socket ~timeout:t.timeout ~host ~port with
            | fd ->
                t.rfd <- Some fd;
                Some fd
            | exception
                ( Rejected _
                | Unix.Unix_error
                    ( ( ECONNREFUSED | ECONNRESET | EHOSTUNREACH | ENETUNREACH
                      | ETIMEDOUT | EPIPE ),
                      _,
                      _ ) ) ->
                None)
      in
      match fd with
      | None ->
          t.ractive <- (t.ractive + 1) mod n;
          go (tries - 1)
      | Some fd -> (
          match raw_exchange ?timeout t fd op with
          | resp -> if resp.rs_lsn >= t.seen_lsn then Some resp else None
          | exception (Conn_lost _ | Timeout) ->
              drop_replica_socket t;
              t.ractive <- (t.ractive + 1) mod n;
              go (tries - 1))
  in
  if n = 0 then None else go n

(* -- operations ----------------------------------------------------------- *)

let ping ?timeout t =
  match call ?timeout t Ping with Pong -> () | r -> unexpected "ping" r

let exec ?timeout t src =
  match call ?timeout t (Exec src) with Output s -> s | r -> unexpected "exec" r

let query ?timeout t src =
  match replica_response ?timeout t (Query src) with
  | Some { rs_reply = Rows rs; _ } -> rs
  | Some _ | None -> (
      match call ?timeout t (Query src) with
      | Rows rs -> rs
      | r -> unexpected "query" r)

let dot ?timeout t line =
  match call ?timeout t (Dot line) with Output s -> s | r -> unexpected "dot" r

let last_seen_lsn t = t.seen_lsn
let last_trace_id t = t.last_trace

(* Pipelining: write a whole batch of requests in one send, then collect
   the responses in order. The server executes them in arrival order within
   one scheduler tick, so under group durability the entire batch (plus
   whatever other connections contributed that tick) shares one WAL fsync.
   Errors come back per-request rather than as exceptions — a failed
   statement must not abandon the responses queued behind it. No implicit
   reconnect or retry: a batch is not idempotent-retry-safe. Instead, a
   connection that dies mid-pipeline raises {!Pipeline_broken} carrying the
   responses that did arrive, so the caller knows exactly which requests
   were acknowledged and how many are in doubt.

   First-committer-wins conflicts are the one retry exception: the server
   already aborted the losing statement (each pipelined [Exec] is its own
   transaction), so once the whole batch has drained off the socket, each
   conflicted entry is replayed individually through {!exec} — which
   carries its own backoff-and-retry budget — and its result spliced back
   into place. *)
let exec_many t srcs =
  if srcs = [] then []
  else begin
    let fd = socket t in
    let b = Buffer.create 1024 in
    let ids =
      List.map
        (fun src ->
          t.next_id <- t.next_id + 1;
          Protocol.encode_request b
            { rq_id = t.next_id; rq_trace = fresh_trace t; rq_op = Exec src };
          (t.next_id, src))
        srcs
    in
    let frame = Buffer.contents b in
    let total = List.length ids in
    let acked = ref [] in
    let broken msg =
      drop_socket t;
      ignore msg;
      raise (Pipeline_broken { acked = List.rev !acked; pending = total - List.length !acked })
    in
    (try write_all fd frame 0 (String.length frame) with Conn_lost msg -> broken msg);
    (* Phase 1: drain every response in order. A conflict cannot be retried
       here — a fresh request written now would interleave with responses
       still queued on the socket — so it is only marked for phase 2. *)
    let raws =
      List.map
        (fun (id, src) ->
          let r =
            try
              let len_bytes = read_exact fd 4 in
              let len = Ode_util.Codec.get_u32 (Ode_util.Codec.cursor len_bytes) in
              if len > Protocol.max_frame_len then
                raise
                  (Ode_util.Codec.Corrupt (Printf.sprintf "client: %d-byte response frame" len));
              let resp = Protocol.decode_response (read_exact fd len) in
              if resp.rs_id <> id then
                raise
                  (Ode_util.Codec.Corrupt
                     (Printf.sprintf "client: response id %d for request %d" resp.rs_id id));
              if resp.rs_lsn > t.seen_lsn then t.seen_lsn <- resp.rs_lsn;
              match resp.rs_reply with
              | Output s -> `Ok s
              | Error msg -> `Err msg
              | Err_conflict msg -> `Conflict (src, msg)
              | Pong | Rows _ -> failwith "exec_many: unexpected reply kind"
            with Conn_lost msg -> broken msg
          in
          (acked :=
             (match r with
             | `Ok s -> Ok s
             | `Err msg -> Error msg
             | `Conflict (_, msg) -> Error ("conflict: " ^ msg))
             :: !acked);
          r)
        ids
    in
    (* Phase 2: the socket is quiet again — replay the losers. *)
    List.map
      (function
        | `Ok s -> Ok s
        | `Err msg -> Error msg
        | `Conflict (src, _) -> (
            match exec t src with
            | s -> Ok s
            | exception Server_error m -> Error m
            | exception Conflict m -> Error ("conflict: " ^ m)))
      raws
  end

let close t =
  (match t.fd with
  | None -> ()
  | Some fd -> ( try ignore (raw_exchange t fd Close) with _ -> ()));
  drop_socket t;
  drop_replica_socket t
