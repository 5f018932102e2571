(* Page-granular storage backends.

   The file backend stamps a checksum (Codec.page_sum, XXH64) into the
   trailer of every page it writes and verifies it on every read, so torn
   or bit-flipped pages are detected (Codec.Corrupt) instead of silently
   decoded. Multi-page flushes go through a double-write journal: the batch
   is first written and fsynced to a side file, then applied in place, so a
   crash anywhere in the middle leaves either the journal (replayed at
   open) or the data file intact — never a mix of old and new pages.

   Files written before the page checksum was XXH64 (FNV-1a trailers, an
   "ODEDWJ01" journal) are refused at open with Codec.Corrupt and left
   untouched; such a database must be reloaded from a dump.

   Failpoint sites cover every side-effecting step so the crash-torture
   harness can kill the process between any two syscalls. *)

module Stats = Ode_util.Stats
module Codec = Ode_util.Codec
module Failpoint = Ode_util.Failpoint

(* [image] is the double-write journal image, reused (and grown) across
   batches under [t.mu]. *)
type file = { fd : Unix.file_descr; journal : string; mutable pages : int; mutable image : bytes }
type mem = { mutable arr : bytes array; mutable used : int }

type backend =
  | File of file
  | Memory of mem

(* [mu] serializes every page-granular operation: the file backend
   positions with lseek before read/write, so two domains sharing the fd
   (e.g. two reader domains both missing in the buffer pool) would
   otherwise interleave seek and transfer and tear pages. *)
type t = { backend : backend; mu : Mutex.t }

let fp_write = Failpoint.site "disk.write"
let fp_sync = Failpoint.site "disk.sync"
let fp_journal_write = Failpoint.site "disk.journal.write"
let fp_journal_clear = Failpoint.site "disk.journal.clear"

let c_pages_read = Stats.counter "pages_read"
let c_pages_written = Stats.counter "pages_written"
let c_checksum_failures = Stats.(counter ~group:Recovery "checksum_failures")
let c_journal_pages_restored = Stats.(counter ~group:Recovery "journal_pages_restored")
let c_io_retries = Stats.(counter ~group:Recovery "io_retries")

(* -- resilient syscall wrappers ------------------------------------------ *)

let rec retry f =
  match f () with
  | v -> v
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) ->
      Stats.incr c_io_retries;
      retry f

let read_fully fd buf pos len =
  let rec go pos len =
    if len > 0 then begin
      let k = retry (fun () -> Unix.read fd buf pos len) in
      if k = 0 then invalid_arg "disk: short read";
      go (pos + k) (len - k)
    end
  in
  go pos len

let write_fully fd buf pos len =
  let rec go pos len =
    if len > 0 then begin
      let k = retry (fun () -> Unix.write fd buf pos len) in
      if k = 0 then failwith "disk: write returned 0 bytes (device full?)";
      go (pos + k) (len - k)
    end
  in
  go pos len

let pread fd buf off =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  read_fully fd buf 0 Page.size

let pwrite ?(len = Page.size) fd buf off =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  write_fully fd buf 0 len

(* -- page checksums ------------------------------------------------------- *)

let checksum_off = Page.data_end

let stamp page =
  let sum = Codec.page_sum page ~pos:0 ~len:checksum_off in
  Bytes.set_int64_le page checksum_off sum

let checksum_ok page =
  Bytes.get_int64_le page checksum_off
  = Codec.page_sum page ~pos:0 ~len:checksum_off

(* -- fault interpretation -------------------------------------------------
   A faulted write simulates a crash in the middle of the syscall: persist a
   prefix, or a corrupted image, then die. [Skip_effect] pretends the write
   happened (lying hardware) and keeps running. The write covers the first
   [len] bytes of [buf]. *)

let faulted_write ?(len = Page.size) site fd buf off = function
  | Failpoint.Crash_site -> Failpoint.crash site
  | Failpoint.Short_effect frac ->
      let keep = max 0 (min (len - 1) (int_of_float (frac *. float_of_int len))) in
      if keep > 0 then pwrite ~len:keep fd buf off;
      Failpoint.crash site
  | Failpoint.Flip_bit bit ->
      let mangled = Bytes.sub buf 0 len in
      let byte = bit / 8 mod len in
      Bytes.set mangled byte
        (Char.chr (Char.code (Bytes.get mangled byte) lxor (1 lsl (bit mod 8))));
      pwrite ~len fd mangled off;
      Failpoint.crash site
  | Failpoint.Skip_effect -> ()

(* -- double-write journal -------------------------------------------------
   Format: "ODEDWJ02" | u32 count | count * (u32 page_no | page image) |
   i64 Codec.page_sum over everything before the trailer. The journal is
   valid only if complete and checksummed, so a torn journal write is
   indistinguishable from no journal — and in both cases the data file is
   still intact. A journal with the "ODEDWJ01" magic (FNV-1a trailer, from
   an older build) is refused rather than discarded: its data file is in
   the old page format too. *)

let journal_magic = "ODEDWJ02"
let old_journal_magic = "ODEDWJ01"

(* Build the image in [f.image], growing it when the batch does not fit,
   and hash it in place. Returns the image length. *)
let encode_journal f batch =
  let magic_len = String.length journal_magic in
  let body_len = magic_len + 4 + (List.length batch * (4 + Page.size)) in
  if Bytes.length f.image < body_len + 8 then f.image <- Bytes.create (body_len + 8);
  let image = f.image in
  Bytes.blit_string journal_magic 0 image 0 magic_len;
  Bytes.set_int32_le image magic_len (Int32.of_int (List.length batch));
  let off = ref (magic_len + 4) in
  List.iter
    (fun (no, page) ->
      Bytes.set_int32_le image !off (Int32.of_int no);
      Bytes.blit page 0 image (!off + 4) Page.size;
      off := !off + 4 + Page.size)
    batch;
  Bytes.set_int64_le image body_len (Codec.page_sum image ~pos:0 ~len:body_len);
  body_len + 8

let decode_journal data =
  let len = String.length data in
  if len < String.length journal_magic + 4 + 8 then None
  else if not (String.starts_with ~prefix:journal_magic data) then None
  else
    let c = Codec.cursor ~pos:(String.length journal_magic) data in
    match
      let count = Codec.get_u32 c in
      let batch = ref [] in
      for _ = 1 to count do
        let no = Codec.get_u32 c in
        let page = Codec.get_raw c Page.size in
        batch := (no, page) :: !batch
      done;
      let body_len = Codec.pos c in
      let sum = Codec.get_i64 c in
      if sum <> Codec.page_sum (Bytes.unsafe_of_string data) ~pos:0 ~len:body_len then None
      else Some (List.rev !batch)
    with
    | v -> v
    | exception Codec.Corrupt _ -> None

let read_whole fd =
  let len = (Unix.fstat fd).Unix.st_size in
  let buf = Bytes.create len in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let rec fill pos =
    if pos >= len then pos
    else
      let k = retry (fun () -> Unix.read fd buf pos (len - pos)) in
      if k = 0 then pos else fill (pos + k)
  in
  let got = fill 0 in
  Bytes.sub_string buf 0 got

(* Replay a complete journal into the data file (pages carry their stamped
   checksums already), or discard a torn one. Idempotent: replaying twice is
   harmless, and clearing before the data fsync is prevented by ordering. *)
let recover_journal fd journal_path =
  match Unix.openfile journal_path [ Unix.O_RDONLY ] 0o644 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | jfd ->
      let data = Fun.protect ~finally:(fun () -> Unix.close jfd) (fun () -> read_whole jfd) in
      if String.starts_with ~prefix:old_journal_magic data then
        raise
          (Codec.Corrupt
             (Printf.sprintf
                "disk: %s is an %s journal from an older page format; reload the database from a dump"
                journal_path old_journal_magic));
      (match decode_journal data with
      | Some batch ->
          List.iter
            (fun (no, page) ->
              Stats.incr c_journal_pages_restored;
              pwrite fd (Bytes.of_string page) (no * Page.size))
            batch;
          Unix.fsync fd
      | None -> ());
      Unix.unlink journal_path

(* -- construction --------------------------------------------------------- *)

(* Interior pages only change through the journal, so on a file of more
   than one page a bad page 0 is corruption or an older page format, never
   a torn extension: refuse it before anything is truncated. *)
let check_first_page fd path =
  if (Unix.fstat fd).Unix.st_size / Page.size > 1 then begin
    let buf = Bytes.create Page.size in
    pread fd buf 0;
    if not (checksum_ok buf) then begin
      Stats.incr c_checksum_failures;
      raise
        (Codec.Corrupt
           (Printf.sprintf
              "disk: %s: bad checksum on page 0 (corrupt, or written by an older page format; \
               reload the database from a dump)"
              path))
    end
  end

let open_file path =
  let journal = path ^ ".journal" in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  (try
     recover_journal fd journal;
     check_first_page fd path
   with e ->
     Unix.close fd;
     raise e);
  let len = (Unix.fstat fd).Unix.st_size in
  (* A sub-page tail can only be a torn extension write: drop it. *)
  let len =
    if len mod Page.size = 0 then len
    else begin
      let aligned = len - (len mod Page.size) in
      Unix.ftruncate fd aligned;
      aligned
    end
  in
  (* Interior pages are protected by the journal, so a corrupt checksum can
     only appear on trailing pages torn while extending the file. *)
  let pages = ref (len / Page.size) in
  let buf = Bytes.create Page.size in
  let rec trim () =
    if !pages > 0 then begin
      pread fd buf ((!pages - 1) * Page.size);
      if not (checksum_ok buf) then begin
        Stats.incr c_checksum_failures;
        decr pages;
        Unix.ftruncate fd (!pages * Page.size);
        trim ()
      end
    end
  in
  trim ();
  { backend = File { fd; journal; pages = !pages; image = Bytes.empty }; mu = Mutex.create () }

let in_memory () =
  { backend = Memory { arr = Array.make 8 Bytes.empty; used = 0 }; mu = Mutex.create () }
let is_memory t = match t.backend with Memory _ -> true | File _ -> false
let page_count t = match t.backend with File f -> f.pages | Memory m -> m.used

let check_range t n ~extend =
  let count = page_count t in
  let limit = if extend then count else count - 1 in
  if n < 0 || n > limit then
    invalid_arg (Printf.sprintf "disk: page %d out of range (count %d)" n count)

(* -- reads ---------------------------------------------------------------- *)

let h_page_read = Ode_util.Histogram.create "page.read"
let h_page_write = Ode_util.Histogram.create "page.write"
let h_write_batch = Ode_util.Histogram.create "disk.write_batch"

let read_into t n buf =
  Mutex.protect t.mu @@ fun () ->
  check_range t n ~extend:false;
  Stats.incr c_pages_read;
  Ode_util.Histogram.time h_page_read @@ fun () ->
  match t.backend with
  | File f ->
      pread f.fd buf (n * Page.size);
      if not (checksum_ok buf) then begin
        Stats.incr c_checksum_failures;
        raise (Codec.Corrupt (Printf.sprintf "disk: bad checksum on page %d" n))
      end
  | Memory m -> Bytes.blit m.arr.(n) 0 buf 0 Page.size

let read t n =
  let buf = Bytes.create Page.size in
  read_into t n buf;
  buf

(* -- writes --------------------------------------------------------------- *)

let write_mem m n page =
  if n = m.used then begin
    if m.used = Array.length m.arr then begin
      let bigger = Array.make (2 * Array.length m.arr) Bytes.empty in
      Array.blit m.arr 0 bigger 0 m.used;
      m.arr <- bigger
    end;
    m.arr.(n) <- Bytes.copy page;
    m.used <- m.used + 1
  end
  else Bytes.blit page 0 m.arr.(n) 0 Page.size

(* Write one page, interpreting an armed disk.write fault. The page buffer
   is stamped in place (the trailer belongs to this layer). *)
let write_page f n page =
  stamp page;
  (match Failpoint.hit fp_write with
  | Some act -> faulted_write fp_write f.fd page (n * Page.size) act
  | None -> pwrite f.fd page (n * Page.size));
  if n = f.pages then f.pages <- f.pages + 1

let write_unlocked t n page =
  check_range t n ~extend:true;
  assert (Bytes.length page = Page.size);
  Stats.incr c_pages_written;
  Ode_util.Histogram.time h_page_write @@ fun () ->
  match t.backend with
  | File f -> write_page f n page
  | Memory m -> write_mem m n page

let write t n page = Mutex.protect t.mu (fun () -> write_unlocked t n page)

let write_batch t batch =
  Mutex.protect t.mu @@ fun () ->
  (* one sample per batch; [page.write] times single-page writes only *)
  Ode_util.Histogram.time h_write_batch @@ fun () ->
  Ode_util.Trace.with_span ~cat:"disk" "disk.write_batch" @@ fun () ->
  match (t.backend, batch) with
  | _, [] -> ()
  | Memory m, _ ->
      List.iter
        (fun (n, page) ->
          Stats.incr c_pages_written;
          write_mem m n page)
        batch
  | File f, _ ->
      List.iter
        (fun (n, page) ->
          check_range t n ~extend:false;
          assert (Bytes.length page = Page.size))
        batch;
      List.iter (fun (_, page) -> stamp page) batch;
      (* 1. Make the whole batch durable in the journal. *)
      let len = encode_journal f batch in
      let jfd = Unix.openfile f.journal [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close jfd)
        (fun () ->
          (match Failpoint.hit fp_journal_write with
          | Some act -> faulted_write ~len fp_journal_write jfd f.image 0 act
          | None -> pwrite ~len jfd f.image 0);
          Unix.fsync jfd);
      (* 2. Apply in place. A crash here is repaired from the journal. *)
      List.iter
        (fun (n, page) ->
          Stats.incr c_pages_written;
          match Failpoint.hit fp_write with
          | Some act -> faulted_write fp_write f.fd page (n * Page.size) act
          | None -> pwrite f.fd page (n * Page.size))
        batch;
      (match Failpoint.hit fp_sync with
      | Some Failpoint.Crash_site -> Failpoint.crash fp_sync
      | Some Failpoint.Skip_effect -> ()
      | Some _ | None -> Unix.fsync f.fd);
      (* 3. Only now is the journal obsolete. *)
      (match Failpoint.hit fp_journal_clear with
      | Some Failpoint.Crash_site -> Failpoint.crash fp_journal_clear
      | Some Failpoint.Skip_effect -> ()
      | Some _ | None -> ( try Unix.unlink f.journal with Unix.Unix_error _ -> ()))

let allocate t =
  Mutex.protect t.mu @@ fun () ->
  let n = page_count t in
  let zero = Bytes.make Page.size '\000' in
  write_unlocked t n zero;
  n

let sync t =
  Mutex.protect t.mu @@ fun () ->
  match t.backend with
  | File f -> (
      match Failpoint.hit fp_sync with
      | Some Failpoint.Crash_site -> Failpoint.crash fp_sync
      | Some Failpoint.Skip_effect -> ()
      | Some _ | None -> Unix.fsync f.fd)
  | Memory _ -> ()

let truncate t n =
  Mutex.protect t.mu @@ fun () ->
  match t.backend with
  | File f ->
      Unix.ftruncate f.fd (n * Page.size);
      f.pages <- min f.pages n
  | Memory m -> m.used <- min m.used n

let close t = match t.backend with File f -> Unix.close f.fd | Memory _ -> ()
