type t = {
  mutable mat_vec_mults : int;
  mutable mat_mat_mults : int;
  mutable fast_path_applies : int;
  mutable generic_applies : int;
  mutable gates_seen : int;
  mutable combined_applications : int;
  mutable peak_state_nodes : int;
  mutable peak_matrix_nodes : int;
  mutable fallbacks : int;
  mutable auto_gcs : int;
  mutable renormalizations : int;
  mutable checkpoints_written : int;
  mutable gc_pause_seconds : float;
  mutable gc_reclaimed_nodes : int;
  mutable wall_time_seconds : float;
  mutable trace_events_dropped : int;
  mutable audits_run : int;
  mutable audit_violations : int;
  mutable audit_repairs : int;
  mutable reorders_run : int;
  mutable reorder_swaps : int;
  mutable reorder_nodes_before : int;
  mutable reorder_nodes_after : int;
}

let create () =
  {
    mat_vec_mults = 0;
    mat_mat_mults = 0;
    fast_path_applies = 0;
    generic_applies = 0;
    gates_seen = 0;
    combined_applications = 0;
    peak_state_nodes = 0;
    peak_matrix_nodes = 0;
    fallbacks = 0;
    auto_gcs = 0;
    renormalizations = 0;
    checkpoints_written = 0;
    gc_pause_seconds = 0.;
    gc_reclaimed_nodes = 0;
    wall_time_seconds = 0.;
    trace_events_dropped = 0;
    audits_run = 0;
    audit_violations = 0;
    audit_repairs = 0;
    reorders_run = 0;
    reorder_swaps = 0;
    reorder_nodes_before = 0;
    reorder_nodes_after = 0;
  }

let reset stats =
  stats.mat_vec_mults <- 0;
  stats.mat_mat_mults <- 0;
  stats.fast_path_applies <- 0;
  stats.generic_applies <- 0;
  stats.gates_seen <- 0;
  stats.combined_applications <- 0;
  stats.peak_state_nodes <- 0;
  stats.peak_matrix_nodes <- 0;
  stats.fallbacks <- 0;
  stats.auto_gcs <- 0;
  stats.renormalizations <- 0;
  stats.checkpoints_written <- 0;
  stats.gc_pause_seconds <- 0.;
  stats.gc_reclaimed_nodes <- 0;
  stats.wall_time_seconds <- 0.;
  stats.trace_events_dropped <- 0;
  stats.audits_run <- 0;
  stats.audit_violations <- 0;
  stats.audit_repairs <- 0;
  stats.reorders_run <- 0;
  stats.reorder_swaps <- 0;
  stats.reorder_nodes_before <- 0;
  stats.reorder_nodes_after <- 0

let copy stats = { stats with mat_vec_mults = stats.mat_vec_mults }

let assign dst src =
  dst.mat_vec_mults <- src.mat_vec_mults;
  dst.mat_mat_mults <- src.mat_mat_mults;
  dst.fast_path_applies <- src.fast_path_applies;
  dst.generic_applies <- src.generic_applies;
  dst.gates_seen <- src.gates_seen;
  dst.combined_applications <- src.combined_applications;
  dst.peak_state_nodes <- src.peak_state_nodes;
  dst.peak_matrix_nodes <- src.peak_matrix_nodes;
  dst.fallbacks <- src.fallbacks;
  dst.auto_gcs <- src.auto_gcs;
  dst.renormalizations <- src.renormalizations;
  dst.checkpoints_written <- src.checkpoints_written;
  dst.gc_pause_seconds <- src.gc_pause_seconds;
  dst.gc_reclaimed_nodes <- src.gc_reclaimed_nodes;
  dst.wall_time_seconds <- src.wall_time_seconds;
  dst.trace_events_dropped <- src.trace_events_dropped;
  dst.audits_run <- src.audits_run;
  dst.audit_violations <- src.audit_violations;
  dst.audit_repairs <- src.audit_repairs;
  dst.reorders_run <- src.reorders_run;
  dst.reorder_swaps <- src.reorder_swaps;
  dst.reorder_nodes_before <- src.reorder_nodes_before;
  dst.reorder_nodes_after <- src.reorder_nodes_after

let pp fmt stats =
  let fast_pct =
    let total = stats.fast_path_applies + stats.generic_applies in
    if total = 0 then 0.
    else 100. *. float_of_int stats.fast_path_applies /. float_of_int total
  in
  Format.fprintf fmt
    "gates=%d mat-vec=%d (fast-path=%d generic=%d, %.1f%% fast) mat-mat=%d \
     combined-applications=%d peak-state-nodes=%d peak-matrix-nodes=%d"
    stats.gates_seen stats.mat_vec_mults stats.fast_path_applies
    stats.generic_applies fast_pct stats.mat_mat_mults
    stats.combined_applications stats.peak_state_nodes
    stats.peak_matrix_nodes;
  if
    stats.fallbacks > 0 || stats.auto_gcs > 0
    || stats.renormalizations > 0
    || stats.checkpoints_written > 0
  then
    Format.fprintf fmt
      " fallbacks=%d auto-gcs=%d renormalizations=%d checkpoints=%d"
      stats.fallbacks stats.auto_gcs stats.renormalizations
      stats.checkpoints_written;
  if stats.auto_gcs > 0 || stats.gc_reclaimed_nodes > 0 then
    Format.fprintf fmt " gc-pause=%.3fms gc-reclaimed=%d"
      (1000. *. stats.gc_pause_seconds)
      stats.gc_reclaimed_nodes;
  if stats.wall_time_seconds > 0. then
    Format.fprintf fmt " wall=%.3fs" stats.wall_time_seconds;
  if stats.trace_events_dropped > 0 then
    Format.fprintf fmt " trace-dropped=%d" stats.trace_events_dropped;
  if stats.audits_run > 0 then
    Format.fprintf fmt " audits=%d audit-violations=%d audit-repairs=%d"
      stats.audits_run stats.audit_violations stats.audit_repairs;
  if stats.reorders_run > 0 then
    Format.fprintf fmt
      " reorders=%d reorder-swaps=%d reorder-nodes=%d->%d"
      stats.reorders_run stats.reorder_swaps stats.reorder_nodes_before
      stats.reorder_nodes_after
