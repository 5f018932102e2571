(* Decoded-object cache.

   A sharded LRU over logical KV keys ('H' header keys and 'V' version keys)
   that holds the *decoded* representation, so repeated predicate evaluation
   over the same extent skips the B+tree descent, heap fetch and field
   decode. Shards (each its own LRU + mutex, see {!Ode_util.Slru}) let the
   server's reader domains probe and fill the cache concurrently.

   Coherence contract:
   - Only committed state is ever cached. Readers consult the active
     transaction's write overlay first and never insert overlay data.
   - [invalidate] is called from the committed-write choke point
     ([Kv.put]/[Kv.delete]) which covers commit-apply, recovery replay and
     every direct caller. Committed writes happen only on the writer domain
     while no reader holds the engine's shared lock, so readers never
     observe a stale entry.
   - [clear] wipes the cache wholesale on recovery/reopen so a pre-crash
     entry can never be served against a replayed store. *)

open Types
module Slru = Ode_util.Slru
module Stats = Ode_util.Stats

let c_hits = Stats.counter "obj_cache_hits"
let c_misses = Stats.counter "obj_cache_misses"
let c_invalidations = Stats.counter "obj_cache_invalidations"

let enabled db = Slru.capacity db.ocache > 0

let find db key =
  if not (enabled db) then None
  else
    match Slru.find db.ocache key with
    | Some _ as hit ->
        Stats.incr c_hits;
        hit
    | None ->
        Stats.incr c_misses;
        None

let add db key v = if enabled db then Slru.add db.ocache key v

let invalidate db key =
  if enabled db && Slru.remove db.ocache key then Stats.incr c_invalidations

let clear db = Slru.clear db.ocache
let resident db = Slru.length db.ocache
