module Codec = Ode_util.Codec
module Stats = Ode_util.Stats
module Failpoint = Ode_util.Failpoint

(* wal.sync covers the append of the pending batch (short/flipped/skipped
   batches model torn log tails and lying disks); wal.fsync the durability
   barrier itself; wal.reset the post-checkpoint truncation; wal.lsn the
   window between persisting the base-LSN sidecar and the truncation it
   licenses (a crash there leaves both the sidecar and the old records —
   recovery must reconcile them). *)
let fp_sync = Failpoint.site "wal.sync"
let fp_fsync = Failpoint.site "wal.fsync"
let fp_reset = Failpoint.site "wal.reset"
let fp_lsn = Failpoint.site "wal.lsn"

let c_appends = Stats.counter "wal_appends"
let c_syncs = Stats.counter "wal_syncs"
(* A group-commit sync that makes g pending commits durable at once adds
   g - 1: the fsyncs the batch avoided. *)
let c_sync_saved = Stats.counter "wal_sync_saved"
let c_torn_bytes = Stats.(counter ~group:Recovery "wal_torn_bytes")
let c_io_retries = Stats.(counter ~group:Recovery "io_retries")

type record =
  | Begin of int
  | Commit of int * int * int (* xid, originating trace id (0 = untraced),
                                 commit timestamp (the commit's own LSN;
                                 0 in logs written before MVCC) *)
  | Put of int * string * string
  | Delete of int * string
  | Checkpoint of int

type file_sink = { fd : Unix.file_descr; mutable wpos : int }

type sink =
  | File of file_sink
  | Memory of Buffer.t

(* [pending_commits] counts Commit records appended since the last [sync]:
   the transactions whose durability is still deferred. Group commit rides on
   it — one sync acknowledges them all — and the accounting below turns each
   sync into a [wal.group_size] observation plus the fsyncs the batch saved.

   Commit LSNs: every [Commit] record appended is assigned the next LSN
   ([last_lsn]); [durable_lsn] trails it until a sync's barrier holds. The
   physical log starts at [base_lsn] (everything up to it was checkpointed
   away); the [lsn_path] sidecar persists that base across truncations, and
   [Checkpoint] records carry the exact LSN so replay reconciles a stale
   sidecar (lost or crashed truncation) back to the true count. *)
type t = {
  sink : sink;
  mutable pending : bytes; (* frames appended since the last sync: the first [pending_len] bytes *)
  mutable pending_len : int;
  mutable pending_commits : int;
  mutable last_lsn : int;
  mutable durable_lsn : int;
  mutable base_lsn : int;
  lsn_path : string option;
  mutable on_sync : (data:string -> from_lsn:int -> to_lsn:int -> unit) option;
}

(* -- record codec --------------------------------------------------------
   Body: [u8 tag][i64 xid | lsn] then, per tag, [i64 trace][i64 cts] (Commit;
   an optional suffix), [u32 len][key][u32 len][payload] (Put) or
   [u32 len][key] (Delete). Bodies are encoded straight into the pending
   frame buffer, so their size is computed first. *)

let body_size = function
  | Begin _ | Checkpoint _ -> 9
  | Commit (_, trace, cts) -> if cts <> 0 then 25 else if trace <> 0 then 17 else 9
  | Put (_, k, v) -> 17 + String.length k + String.length v
  | Delete (_, k) -> 13 + String.length k

let set_int b off n =
  Bytes.set_int64_le b off (Int64.of_int n);
  off + 8

let set_string b off s =
  Bytes.set_int32_le b off (Int32.of_int (String.length s));
  Bytes.blit_string s 0 b (off + 4) (String.length s);
  off + 4 + String.length s

(* Write [r]'s body ([body_size r] bytes) at [off] in [b]. *)
let encode_body b off r =
  let tag = match r with Begin _ -> 1 | Commit _ -> 2 | Put _ -> 3 | Delete _ -> 4 | Checkpoint _ -> 5 in
  Bytes.set_uint8 b off tag;
  let off = off + 1 in
  match r with
  | Begin tx -> ignore (set_int b off tx)
  | Commit (tx, trace, cts) ->
      let off = set_int b off tx in
      (* The optional-suffix discipline: trace and commit-ts ride only when
         the commit-ts is present (it always is for records written by this
         version), so a standby re-logging the same records produces
         byte-identical files (E21 diffs them) and old logs still decode. *)
      if cts <> 0 || trace <> 0 then begin
        let off = set_int b off trace in
        if cts <> 0 then ignore (set_int b off cts)
      end
  | Put (tx, k, v) -> ignore (set_string b (set_string b (set_int b off tx) k) v)
  | Delete (tx, k) -> ignore (set_string b (set_int b off tx) k)
  | Checkpoint lsn -> ignore (set_int b off lsn)

let decode c =
  match Codec.get_u8 c with
  | 1 -> Begin (Codec.get_int c)
  | 2 ->
      let tx = Codec.get_int c in
      (* Layered compatibility: pre-tracing logs stop after the xid; pre-MVCC
         logs stop after the trace id. Absent fields read as 0. *)
      let trace = if Codec.at_end c then 0 else Codec.get_int c in
      let cts = if Codec.at_end c then 0 else Codec.get_int c in
      Commit (tx, trace, cts)
  | 3 ->
      let tx = Codec.get_int c in
      let k = Codec.get_string c in
      let v = Codec.get_string c in
      Put (tx, k, v)
  | 4 ->
      let tx = Codec.get_int c in
      Delete (tx, Codec.get_string c)
  | 5 ->
      (* Pre-LSN logs wrote a bare checkpoint tag; read it as LSN 0. *)
      Checkpoint (if Codec.at_end c then 0 else Codec.get_int c)
  | n -> raise (Codec.Corrupt (Printf.sprintf "wal: bad tag %d" n))

(* -- framing -------------------------------------------------------------
   A frame is [u32 body length][i64 fnv64 of the body][body]. [intact_frame]
   checks the frame at [off] in [contents] and returns its body length, or
   -1 when the frame is torn or fails its checksum. *)

let intact_frame contents off =
  let len = String.length contents in
  if off + 12 > len then -1
  else
    let c = Codec.cursor ~pos:off contents in
    let blen = Codec.get_u32 c in
    if off + 12 + blen > len then -1
    else if
      Codec.get_i64 c
      <> Codec.fnv64_bytes (Bytes.unsafe_of_string contents) ~pos:(off + 12) ~len:blen
    then -1
    else blen

let frame_record contents off blen = decode (Codec.cursor ~pos:(off + 12) ~len:blen contents)

(* Scan intact frames from [contents], calling [f] on each decoded record;
   returns the byte offset just past the last intact frame. *)
let scan contents f =
  let rec go off =
    let blen = intact_frame contents off in
    if blen < 0 then off
    else begin
      (match f with Some fn -> fn (frame_record contents off blen) | None -> ());
      go (off + 12 + blen)
    end
  in
  go 0

(* The LSN a log's records advance to, starting from [base]: Commits count
   up; a Checkpoint record restores the exact value it recorded, which
   reconciles replay over records a lost truncation left behind (they were
   already counted before the checkpoint was taken). *)
let lsn_after_scan ~base contents =
  let lsn = ref base in
  ignore
    (scan contents
       (Some (function Commit _ -> incr lsn | Checkpoint l -> lsn := l | _ -> ())));
  !lsn

(* -- construction --------------------------------------------------------- *)

let rec retry f =
  match f () with
  | v -> v
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) ->
      Stats.incr c_io_retries;
      retry f

let read_all fd =
  let len = (Unix.fstat fd).Unix.st_size in
  let buf = Bytes.create len in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let rec fill pos =
    if pos < len then
      let k = retry (fun () -> Unix.read fd buf pos (len - pos)) in
      if k = 0 then pos else fill (pos + k)
    else pos
  in
  let got = fill 0 in
  Bytes.sub_string buf 0 got

(* The base-LSN sidecar: a tiny text file beside the log holding the LSN of
   the last commit the latest truncation discarded. Written and fsynced
   *before* the truncation (see [reset]), so a crash between the two leaves
   the sidecar ahead of the log — which the Checkpoint record still in the
   log corrects during [lsn_after_scan]. *)
let read_base_lsn path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> ( match int_of_string_opt (String.trim s) with Some n -> n | None -> 0)
  | exception Sys_error _ -> 0

let write_base_lsn path lsn =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let s = string_of_int lsn ^ "\n" in
  let rec go pos =
    if pos < String.length s then
      go (pos + retry (fun () -> Unix.write_substring fd s pos (String.length s - pos)))
  in
  go 0;
  Unix.fsync fd;
  Unix.close fd;
  Unix.rename tmp path

let open_file path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let contents = read_all fd in
  let intact = scan contents None in
  (* Drop any torn tail so future appends start at a clean boundary. *)
  if intact < String.length contents then begin
    Stats.add c_torn_bytes (String.length contents - intact);
    Unix.ftruncate fd intact
  end;
  ignore (Unix.lseek fd intact Unix.SEEK_SET);
  let lsn_path = path ^ ".lsn" in
  let base = read_base_lsn lsn_path in
  let lsn = lsn_after_scan ~base (String.sub contents 0 intact) in
  {
    sink = File { fd; wpos = intact };
    pending = Bytes.create 4096;
    pending_len = 0;
    pending_commits = 0;
    last_lsn = lsn;
    durable_lsn = lsn;
    base_lsn = base;
    lsn_path = Some lsn_path;
    on_sync = None;
  }

let in_memory () =
  {
    sink = Memory (Buffer.create 4096);
    pending = Bytes.create 4096;
    pending_len = 0;
    pending_commits = 0;
    last_lsn = 0;
    durable_lsn = 0;
    base_lsn = 0;
    lsn_path = None;
    on_sync = None;
  }

let append t r =
  Stats.incr c_appends;
  Ode_util.Trace.instant ~cat:"wal" "wal.append";
  (match r with
  | Commit _ ->
      t.pending_commits <- t.pending_commits + 1;
      t.last_lsn <- t.last_lsn + 1
  | _ -> ());
  let blen = body_size r in
  let off = t.pending_len in
  let need = off + 12 + blen in
  if need > Bytes.length t.pending then begin
    let bigger = Bytes.create (max need (2 * Bytes.length t.pending)) in
    Bytes.blit t.pending 0 bigger 0 off;
    t.pending <- bigger
  end;
  encode_body t.pending (off + 12) r;
  Bytes.set_int32_le t.pending off (Int32.of_int blen);
  Bytes.set_int64_le t.pending (off + 4) (Codec.fnv64_bytes t.pending ~pos:(off + 12) ~len:blen);
  t.pending_len <- need

let pending_commits t = t.pending_commits
let last_lsn t = t.last_lsn
let durable_lsn t = t.durable_lsn
let base_lsn t = t.base_lsn
let set_on_sync t f = t.on_sync <- f

let write_fully fd bytes pos len =
  let rec go pos len =
    if len > 0 then begin
      let k = retry (fun () -> Unix.write fd bytes pos len) in
      if k = 0 then failwith "wal: write returned 0 bytes (device full?)";
      go (pos + k) (len - k)
    end
  in
  go pos len

(* Append [bytes] at the write cursor, interpreting an armed wal.sync fault:
   a short or bit-flipped batch models a torn log tail (then dies); a skipped
   batch models a lying disk that acks without persisting (and lives on). *)
let faulted_append f bytes len =
  ignore (Unix.lseek f.fd f.wpos Unix.SEEK_SET);
  match Failpoint.hit fp_sync with
  | None ->
      write_fully f.fd bytes 0 len;
      f.wpos <- f.wpos + len
  | Some Failpoint.Crash_site -> Failpoint.crash fp_sync
  | Some (Failpoint.Short_effect frac) ->
      let keep = max 0 (min (len - 1) (int_of_float (frac *. float_of_int len))) in
      if keep > 0 then write_fully f.fd bytes 0 keep;
      Failpoint.crash fp_sync
  | Some (Failpoint.Flip_bit bit) ->
      let byte = bit / 8 mod len in
      Bytes.set bytes byte
        (Char.chr (Char.code (Bytes.get bytes byte) lxor (1 lsl (bit mod 8))));
      write_fully f.fd bytes 0 len;
      Failpoint.crash fp_sync
  | Some Failpoint.Skip_effect -> f.wpos <- f.wpos + len

let h_sync = Ode_util.Histogram.create "wal.sync"

(* Commits per durability barrier: 1 under eager (full) durability, the
   batch size under group commit. Counts, not nanoseconds. *)
let h_group = Ode_util.Histogram.create "wal.group_size"

let sync t =
  Stats.incr c_syncs;
  Ode_util.Histogram.time h_sync (fun () ->
      Ode_util.Trace.with_span ~cat:"wal" "wal.sync" (fun () ->
          let len = t.pending_len in
          t.pending_len <- 0;
          (match t.sink with
          | Memory b -> Buffer.add_subbytes b t.pending 0 len
          | File f -> (
              if len > 0 then faulted_append f t.pending len;
              match Failpoint.hit fp_fsync with
              | Some Failpoint.Skip_effect -> ()
              | Some Failpoint.Crash_site -> Failpoint.crash fp_fsync
              | Some _ -> Failpoint.crash fp_fsync
              | None -> Unix.fsync f.fd));
          (* Only after the barrier held: the batch is durable, every pending
             commit is acknowledged by this one fsync. *)
          if t.pending_commits > 0 then begin
            Ode_util.Histogram.observe h_group t.pending_commits;
            Stats.add c_sync_saved (t.pending_commits - 1);
            t.pending_commits <- 0
          end;
          let from_lsn = t.durable_lsn in
          t.durable_lsn <- t.last_lsn;
          (* Ship the batch only now that it is durable here: a replica can
             never hold records its primary could still lose. *)
          match t.on_sync with
          | Some notify when len > 0 ->
              notify ~data:(Bytes.sub_string t.pending 0 len) ~from_lsn ~to_lsn:t.durable_lsn
          | _ -> ()))

let contents t =
  match t.sink with
  | Memory b -> Buffer.contents b
  | File f ->
      ignore f.wpos;
      read_all f.fd

let replay t f = ignore (scan (contents t) (Some f))

(* The raw frames of everything after [lsn]: what a replica that has applied
   up to [lsn] still needs. [None] when the log no longer reaches back that
   far (checkpointed away — ship a snapshot) or the replica claims commits we
   never made durable (divergence — also a snapshot). *)
let tail_from t ~lsn =
  if lsn < t.base_lsn || lsn > t.durable_lsn then None
  else begin
    let contents = contents t in
    let len = String.length contents in
    (* Count commits from the sidecar base. If a truncation was lost, the
       physical log still starts before the last checkpoint and this count
       transiently overshoots — detected when a Checkpoint record disagrees
       with the running count. Any cut found under the bad count is
       discarded; the Checkpoint record restores exactness from there on. *)
    let cut = ref (if lsn = t.base_lsn then Some 0 else None) in
    let cur = ref t.base_lsn in
    let rec go off =
      let blen = intact_frame contents off in
      if blen >= 0 then begin
        (match frame_record contents off blen with
        | Commit _ -> incr cur
        | Checkpoint l ->
            if l <> !cur then begin
              cut := None;
              cur := l
            end
        | _ -> ());
        let after = off + 12 + blen in
        if !cut = None && !cur = lsn then cut := Some after;
        go after
      end
    in
    go 0;
    match !cut with
    | Some off -> Some (String.sub contents off (len - off))
    | None -> None
  end

let reset t =
  t.pending_len <- 0;
  t.pending_commits <- 0;
  match t.sink with
  | Memory b ->
      Buffer.clear b;
      t.base_lsn <- t.durable_lsn
  | File f -> (
      match Failpoint.hit fp_reset with
      | Some Failpoint.Crash_site -> Failpoint.crash fp_reset
      | Some Failpoint.Skip_effect ->
          (* Lost truncation: the old records stay and are replayed over
             checkpointed state on recovery, which must be idempotent. *)
          ()
      | Some _ | None -> (
          (* Persist the new base *before* discarding the records that prove
             it: a crash in between leaves a sidecar ahead of the log, which
             the Checkpoint record still in the log reconciles on reopen. The
             reverse order could truncate away the proof and under-count every
             LSN thereafter. *)
          (match t.lsn_path with
          | Some p -> write_base_lsn p t.durable_lsn
          | None -> ());
          match Failpoint.hit fp_lsn with
          | Some Failpoint.Crash_site -> Failpoint.crash fp_lsn
          | Some Failpoint.Skip_effect ->
              (* Treated as a lost truncation (sidecar written, records kept):
                 replay reconciles. Truncating *without* the sidecar write is
                 the one order that loses the count, so it is not modeled. *)
              ()
          | Some _ | None ->
              Unix.ftruncate f.fd 0;
              f.wpos <- 0;
              Unix.fsync f.fd;
              t.base_lsn <- t.durable_lsn))

let size_bytes t =
  (match t.sink with Memory b -> Buffer.length b | File f -> f.wpos)
  + t.pending_len

let close t = match t.sink with Memory _ -> () | File f -> Unix.close f.fd
