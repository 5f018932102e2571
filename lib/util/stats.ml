(* Global operation counters, kept in a registry of named slots. A counter
   is declared by the module that bumps it ([let c_evictions =
   Stats.counter "cache.evictions"]), and snapshot/diff/pp/to_list/get all
   derive from the registry, so this module names no layer above it. Each
   handle is its own [Atomic.t] cell: bumps from reader domains and the
   writer domain never lose updates. A snapshot is the plain int array of
   the slots' values, in registration order. *)

type group = Workload | Recovery
type kind = Counter | Gauge
type counter = int Atomic.t
type snapshot = int array

type slot = { s_name : string; s_group : group; s_kind : kind; s_cell : counter }

(* Registration happens at module-initialization time, before any domain is
   spawned, so the registry itself needs no lock. [index] maps a name to
   its position in [slots]: a second declaration of the name (two modules
   bump the same counter) gets the same cell, and [get] finds a slot
   without building [to_list]. *)
let slots : slot array ref = ref [||]
let index : (string, int) Hashtbl.t = Hashtbl.create 64

let counter ?(group = Workload) ?(kind = Counter) name =
  match Hashtbl.find_opt index name with
  | Some i ->
      let s = (!slots).(i) in
      if s.s_group <> group || s.s_kind <> kind then
        invalid_arg ("Stats.counter: " ^ name ^ " is registered with another group or kind");
      s.s_cell
  | None ->
      let s = { s_name = name; s_group = group; s_kind = kind; s_cell = Atomic.make 0 } in
      Hashtbl.add index name (Array.length !slots);
      slots := Array.append !slots [| s |];
      s.s_cell

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let set c n = Atomic.set c n

let kind_of name =
  match Hashtbl.find_opt index name with Some i -> (!slots).(i).s_kind | None -> Counter

(* Live gauges: sampled (not stored) values read through a callback at
   exposition time — current connections, queue depth, cache residency.
   Unlike counters these are registered by the owning subsystem when it
   comes up (a server, a database), so the registry takes a lock and a
   re-registration under the same name replaces the sampler: reopening a
   database or restarting an embedded server keeps the gauge pointing at
   the live instance. Samplers must be safe to call from the domain that
   renders metrics (the server's writer domain). *)
let gauges_mu = Mutex.create ()
let gauge_defs : (string * (unit -> int)) list ref = ref []

let register_gauge name fn =
  Mutex.protect gauges_mu (fun () ->
      gauge_defs := (name, fn) :: List.remove_assoc name !gauge_defs)

let unregister_gauge name =
  Mutex.protect gauges_mu (fun () ->
      gauge_defs := List.remove_assoc name !gauge_defs)

let gauges () =
  let defs = Mutex.protect gauges_mu (fun () -> !gauge_defs) in
  List.sort compare
    (List.map (fun (n, fn) -> (n, try fn () with _ -> 0)) defs)

let snapshot () = Array.map (fun s -> Atomic.get s.s_cell) !slots
let reset () = Array.iter (fun s -> Atomic.set s.s_cell 0) !slots
let zero () = Array.make (Array.length !slots) 0

(* A slot read that tolerates short arrays, so snapshots taken before a
   late registration still diff cleanly. *)
let slot s id = if id < Array.length s then s.(id) else 0

let diff a b = Array.init (max (Array.length a) (Array.length b)) (fun i -> slot a i - slot b i)
let combine a b = Array.init (max (Array.length a) (Array.length b)) (fun i -> slot a i + slot b i)

let accum ~into a b =
  for i = 0 to Array.length into - 1 do
    into.(i) <- into.(i) + slot a i - slot b i
  done

let registered () = Array.to_list (Array.map (fun s -> s.s_name) !slots)
let to_list s = Array.to_list (Array.mapi (fun i d -> (d.s_name, slot s i)) !slots)

let get s name = match Hashtbl.find_opt index name with Some i -> slot s i | None -> 0

(* pp derives from the registry: every counter of the group, name = value,
   so new registrations show up in `.stats` with no further edits. Output
   is sorted by counter name, not registration order — registration order
   depends on which modules initialized first, and sorted output diffs
   stably across binaries that link different owners. *)
let pp_group g ppf s =
  let named =
    to_list s
    |> List.filteri (fun i _ -> (!slots).(i).s_group = g)
    |> List.sort compare
  in
  let first = ref true in
  List.iter
    (fun (name, v) ->
      if not !first then Format.fprintf ppf "  ";
      first := false;
      Format.fprintf ppf "%s %d" name v)
    named

let pp ppf s = pp_group Workload ppf s
let pp_recovery ppf s = pp_group Recovery ppf s
