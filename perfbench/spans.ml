(* In-memory spans around calls into the simulator's layers.

   Every boundary reads a fixed vector of counters from outside the
   program — the context's tables, the engine's statistics and the OCaml
   GC — so each span carries the counter deltas across its call.  Counters
   are read outside the timed interval: a span's duration is the call
   alone, and the reading cost lands in its parent's self time. *)

open Dd_sim

type span = {
  id : int;  (** creation order, which is start order *)
  name : string;
  parent : int;  (** index of the enclosing span; -1 at the root *)
  start : float;
  stop : float;
  delta : float array;  (** counter deltas, indexed like {!names} *)
}

type state = {
  engine : Engine.t;
  mutable spans : span list;  (** newest first *)
  mutable count : int;
  mutable current : int;
}

type t = Off | On of state

(* Fixed counters; the nine compute tables follow, three columns each, in
   {!Dd.Context.table_stats} order. *)
let fixed =
  [| "v_created"; "m_created"; "v_live"; "m_live"; "weights"; "apply_skips";
     "residency_bytes"; "mat_vec_mults"; "fast_path_applies";
     "generic_applies"; "minor_words"; "promoted_words"; "major_collections" |]

let nfixed = Array.length fixed
let table_columns = [| "lookups"; "hits"; "evictions" |]

let table_names ctx =
  List.map (fun s -> s.Dd.Compute_table.table) (Dd.Context.table_stats ctx)

let names ctx =
  Array.append fixed
    (Array.of_list
       (List.concat_map
          (fun t -> Array.to_list (Array.map (fun c -> t ^ "." ^ c) table_columns))
          (table_names ctx)))

let read engine =
  let ctx = Engine.context engine in
  let stats = Engine.stats engine in
  let gc = Gc.quick_stat () in
  let tables = Dd.Context.table_stats ctx in
  let v = Array.make (nfixed + (3 * List.length tables)) 0. in
  let set i x = v.(i) <- float_of_int x in
  set 0 (Dd.Context.v_unique_size ctx);
  set 1 (Dd.Context.m_unique_size ctx);
  set 2 (Dd.Context.live_v_nodes ctx);
  set 3 (Dd.Context.live_m_nodes ctx);
  set 4 (Dd_complex.Ctable.size ctx.Dd.Context.ctable);
  set 5 (Dd.Context.apply_skips ctx);
  set 6 (Dd.Context.residency_bytes ctx);
  set 7 stats.Sim_stats.mat_vec_mults;
  set 8 stats.fast_path_applies;
  set 9 stats.generic_applies;
  v.(10) <- gc.Gc.minor_words;
  v.(11) <- gc.promoted_words;
  set 12 gc.major_collections;
  List.iteri
    (fun i (s : Dd.Compute_table.stats) ->
      let base = nfixed + (3 * i) in
      set base s.lookups;
      set (base + 1) s.hits;
      set (base + 2) s.evictions)
    tables;
  v

let create engine = On { engine; spans = []; count = 0; current = -1 }

let span t name f =
  match t with
  | Off -> f ()
  | On s ->
    let parent = s.current in
    let id = s.count in
    s.count <- id + 1;
    s.current <- id;
    let c0 = read s.engine in
    let start = Unix.gettimeofday () in
    let result = f () in
    let stop = Unix.gettimeofday () in
    let c1 = read s.engine in
    s.current <- parent;
    s.spans <-
      { id; name; parent; start; stop; delta = Array.mapi (fun i x -> x -. c0.(i)) c1 }
      :: s.spans;
    result

(* Spans indexed by id ({!span} records a span when it ends, so children
   precede their parent in the list). *)
let spans = function
  | Off -> [||]
  | On s ->
    let a = Array.of_list s.spans in
    Array.sort (fun x y -> compare x.id y.id) a;
    a
