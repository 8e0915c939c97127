(* absolute assignment, so re-populating a registry replaces readings
   instead of accumulating them *)
let set_count registry name v =
  let c = Obs.Metrics.counter registry name in
  Obs.Metrics.add c (v - Obs.Metrics.count c)

let set_value registry name v =
  let g = Obs.Metrics.gauge registry name in
  Obs.Metrics.set g v

let populate registry engine =
  let stats = Engine.stats engine in
  let ctx = Engine.context engine in
  set_count registry "sim.mat_vec_mults" stats.Sim_stats.mat_vec_mults;
  set_count registry "sim.mat_mat_mults" stats.Sim_stats.mat_mat_mults;
  set_count registry "sim.fast_path_applies" stats.Sim_stats.fast_path_applies;
  set_count registry "sim.generic_applies" stats.Sim_stats.generic_applies;
  set_count registry "sim.gates_seen" stats.Sim_stats.gates_seen;
  set_count registry "sim.combined_applications"
    stats.Sim_stats.combined_applications;
  set_count registry "sim.peak_state_nodes" stats.Sim_stats.peak_state_nodes;
  set_count registry "sim.peak_matrix_nodes" stats.Sim_stats.peak_matrix_nodes;
  set_count registry "sim.fallbacks" stats.Sim_stats.fallbacks;
  set_count registry "sim.auto_gcs" stats.Sim_stats.auto_gcs;
  set_count registry "sim.renormalizations" stats.Sim_stats.renormalizations;
  set_count registry "sim.checkpoints_written"
    stats.Sim_stats.checkpoints_written;
  set_count registry "sim.trace_events_dropped"
    stats.Sim_stats.trace_events_dropped;
  set_count registry "sim.audits_run" stats.Sim_stats.audits_run;
  set_count registry "sim.audit_violations" stats.Sim_stats.audit_violations;
  set_count registry "sim.audit_repairs" stats.Sim_stats.audit_repairs;
  set_count registry "sim.reorders_run" stats.Sim_stats.reorders_run;
  set_count registry "sim.reorder_swaps" stats.Sim_stats.reorder_swaps;
  set_count registry "sim.reorder_nodes_before"
    stats.Sim_stats.reorder_nodes_before;
  set_count registry "sim.reorder_nodes_after"
    stats.Sim_stats.reorder_nodes_after;
  set_value registry "sim.wall_time_seconds" stats.Sim_stats.wall_time_seconds;
  set_count registry "nodes.live_vector" (Dd.Context.live_v_nodes ctx);
  set_count registry "nodes.live_matrix" (Dd.Context.live_m_nodes ctx);
  set_count registry "nodes.created_vector" (Dd.Context.v_unique_size ctx);
  set_count registry "nodes.created_matrix" (Dd.Context.m_unique_size ctx);
  List.iter
    (fun (s : Dd.Compute_table.stats) ->
      let field suffix = Printf.sprintf "table.%s.%s" s.table suffix in
      set_count registry (field "hits") s.hits;
      set_count registry (field "misses") s.misses;
      set_count registry (field "evictions") s.evictions;
      set_count registry (field "entries") s.entries)
    (Dd.Context.table_stats ctx);
  (* rebuild-stable short-circuits of the structured-apply kernel:
     cache-equivalent wins that never probe the apply table, so the
     table.apply hit counters alone undercount its reuse *)
  set_count registry "table.apply.ident_skips" (Dd.Context.apply_skips ctx);
  (* memory gauges: OCaml heap occupancy plus the DD package's estimated
     table residency (entry counts x documented per-entry layout costs) *)
  let q = Gc.quick_stat () in
  set_count registry "mem.heap_live_words" q.Gc.live_words;
  set_count registry "mem.heap_top_words" q.Gc.top_heap_words;
  set_count registry "mem.unique_table_bytes" (Dd.Context.unique_table_bytes ctx);
  set_count registry "mem.compute_table_bytes"
    (Dd.Context.compute_table_bytes ctx);
  set_count registry "mem.residency_bytes" (Dd.Context.residency_bytes ctx);
  let gc = Dd.Context.gc_stats ctx in
  set_count registry "gc.collections" gc.Dd.Context.collections;
  set_value registry "gc.pause_seconds" gc.Dd.Context.pause_total;
  set_count registry "gc.reclaimed_vector_nodes" gc.Dd.Context.v_reclaimed_total;
  set_count registry "gc.reclaimed_matrix_nodes" gc.Dd.Context.m_reclaimed_total;
  set_count registry "gc.entries_invalidated" gc.Dd.Context.entries_invalidated

let snapshot engine =
  let registry = Obs.Metrics.create () in
  populate registry engine;
  Obs.Metrics.snapshot registry
