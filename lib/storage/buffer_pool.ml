(* Lock-striped page cache. Frames live in per-stripe LRUs, each behind its
   own mutex (stripe = page_no mod nstripes, so sequential pages spread
   round-robin); pin/unpin/mark_dirty are safe to call concurrently from
   reader domains. Write-back stays a single crash-atomic batch: flush takes
   a global flush mutex, then every stripe lock in ascending order, so a
   flush still sees one consistent dirty set.

   Lock order (outermost first): flush_mu -> stripe locks (ascending) ->
   Disk's internal lock. [pin] holds exactly one stripe lock and never the
   flush mutex, releasing the stripe before any global flush, so the
   hierarchy has no cycles. *)

module Failpoint = Ode_util.Failpoint

type frame = {
  no : int;
  buf : bytes;
  mutable pins : int;
  mutable dirty : bool;
}

let fp_flush = Failpoint.site "pool.flush"
let fp_evict = Failpoint.site "pool.evict"

let c_hits = Ode_util.Stats.counter "pool_hits"
let c_misses = Ode_util.Stats.counter "pool_misses"

type stripe = { mu : Mutex.t; frames : (int, frame) Ode_util.Lru.t }

type t = {
  disk : Disk.t;
  cap : int;
  stripes : stripe array;
  flush_mu : Mutex.t;
  mutable pre_write : unit -> unit;
}

exception Pool_exhausted

let data f = f.buf
let page_no f = f.no

(* Power-of-two stripe count, one stripe per ~32 frames capped at 16, so the
   tiny pools unit tests build (capacity 1..8) keep exact single-LRU
   semantics while production-sized pools (>=64 pages) stripe. *)
let stripe_count cap =
  let target = min 16 (max 1 (cap / 32)) in
  let rec pow2 n = if n * 2 <= target then pow2 (n * 2) else n in
  pow2 1

let create ?(capacity = 256) disk =
  let n = stripe_count capacity in
  let per = max 1 (capacity / n) in
  {
    disk;
    cap = capacity;
    stripes = Array.init n (fun _ -> { mu = Mutex.create (); frames = Ode_util.Lru.create per });
    flush_mu = Mutex.create ();
    pre_write = (fun () -> ());
  }

let set_pre_write t f = t.pre_write <- f
let disk t = t.disk
let capacity t = t.cap
let stripes t = Array.length t.stripes

(* Residency gauge: frames currently cached, summed per stripe under its
   lock (the sum is not one atomic cut — fine for monitoring). *)
let resident t =
  Array.fold_left
    (fun n s -> n + Mutex.protect s.mu (fun () -> Ode_util.Lru.length s.frames))
    0 t.stripes
let page_count t = Disk.page_count t.disk
let stripe_of t n = t.stripes.(n land (Array.length t.stripes - 1))

let lock_all t = Array.iter (fun s -> Mutex.lock s.mu) t.stripes
let unlock_all t = Array.iter (fun s -> Mutex.unlock s.mu) t.stripes

(* Persist every dirty frame as one crash-atomic batch (double-write
   journalled and fsynced by the disk layer). Returns false when there was
   nothing to write. Single-page write-back would let a crash persist an
   arbitrary subset of a logical update; batching keeps the on-disk file at
   a consistent flush boundary. *)
let flush_dirty t =
  Mutex.protect t.flush_mu (fun () ->
      lock_all t;
      let finish v =
        unlock_all t;
        v
      in
      let batch = ref [] in
      Array.iter
        (fun s -> Ode_util.Lru.iter s.frames (fun _ f -> if f.dirty then batch := (f.no, f.buf) :: !batch))
        t.stripes;
      match !batch with
      | [] -> finish false
      | batch -> (
          (* Write-ahead: deferred (group/async) commits apply to pages
             before their log records are fsynced, so the engine hooks this
             to force the WAL out before any dirty page can reach the disk. *)
          match
            t.pre_write ();
            Disk.write_batch t.disk batch
          with
          | () ->
              Array.iter
                (fun s -> Ode_util.Lru.iter s.frames (fun _ f -> f.dirty <- false))
                t.stripes;
              finish true
          | exception e ->
              unlock_all t;
              raise e))

(* Make room inside one stripe, caller holding its lock, and return the
   buffer the new frame will use: the evicted frame's when the stripe was
   full (clean and unpinned, and now out of the stripe, so no one else can
   reach it), a fresh one otherwise. [None] when only a global flush can
   help (every unpinned frame is dirty). *)
let make_room_local s =
  if Ode_util.Lru.length s.frames >= Ode_util.Lru.capacity s.frames then
    match Ode_util.Lru.evict s.frames (fun _ f -> f.pins = 0 && not f.dirty) with
    | Some (_, f) -> Some f.buf
    | None -> None
  else Some (Bytes.create Page.size)

(* Slow path: the stripe was full of dirty/pinned frames. Drop the stripe
   lock, flush everything (one journalled batch), retake the lock and try
   again. A concurrent pin may have dirtied a frame meanwhile, so the
   victim must still be clean: a dirty frame left unpinned means flush
   again; with every frame pinned the pool is exhausted. *)
let rec make_room_flushing t s =
  match make_room_local s with
  | Some buf -> buf
  | None ->
      (match Failpoint.hit fp_evict with
      | Some Failpoint.Crash_site -> Failpoint.crash fp_evict
      | Some _ | None -> ());
      Ode_util.Trace.instant ~cat:"pool" "pool.evict";
      Mutex.unlock s.mu;
      (match flush_dirty t with
      | _ -> Mutex.lock s.mu
      | exception e ->
          Mutex.lock s.mu;
          raise e);
      match make_room_local s with
      | Some buf -> buf
      | None ->
          let unpinned = ref false in
          Ode_util.Lru.iter s.frames (fun _ f -> if f.pins = 0 then unpinned := true);
          if !unpinned then make_room_flushing t s else raise Pool_exhausted

let pin t n =
  let s = stripe_of t n in
  Mutex.protect s.mu (fun () ->
      match Ode_util.Lru.find s.frames n with
      | Some f ->
          Ode_util.Stats.incr c_hits;
          f.pins <- f.pins + 1;
          f
      | None -> (
          Ode_util.Stats.incr c_misses;
          Ode_util.Trace.instant ~cat:"pool" "pool.miss";
          let buf = make_room_flushing t s in
          (* The stripe lock was dropped during a flush: another domain may
             have loaded the page meanwhile. *)
          match Ode_util.Lru.find s.frames n with
          | Some f ->
              f.pins <- f.pins + 1;
              f
          | None ->
              Disk.read_into t.disk n buf;
              let f = { no = n; buf; pins = 1; dirty = false } in
              Ode_util.Lru.add s.frames n f;
              f))

let unpin t f =
  let s = stripe_of t f.no in
  Mutex.protect s.mu (fun () ->
      assert (f.pins > 0);
      f.pins <- f.pins - 1)

let with_page t n fn =
  let f = pin t n in
  Fun.protect ~finally:(fun () -> unpin t f) (fun () -> fn f)

let mark_dirty t f =
  let s = stripe_of t f.no in
  Mutex.protect s.mu (fun () -> f.dirty <- true)

let allocate t =
  let n = Disk.allocate t.disk in
  let s = stripe_of t n in
  Mutex.protect s.mu (fun () ->
      let buf = make_room_flushing t s in
      Disk.read_into t.disk n buf;
      let f = { no = n; buf; pins = 1; dirty = false } in
      Ode_util.Lru.add s.frames n f;
      f)

let flush_all t =
  (match Failpoint.hit fp_flush with
  | Some Failpoint.Crash_site -> Failpoint.crash fp_flush
  | Some _ | None -> ());
  if not (flush_dirty t) then Disk.sync t.disk

let drop_cache t =
  Array.iter
    (fun s ->
      Mutex.protect s.mu (fun () ->
          let rec go () =
            match Ode_util.Lru.evict s.frames (fun _ f -> f.pins = 0 && not f.dirty) with
            | Some _ -> go ()
            | None -> ()
          in
          go ()))
    t.stripes
