(** Per-window strategy costs — the view behind [ddsim explain] and the
    strategy lines of [ddsim diff], folded from a trace.

    The paper's trade-off (combine k gates into one matrix DD, paying
    k-1 matrix-matrix products to save k-1 matrix-vector applications)
    is invisible in aggregate statistics: [Sim_stats] says how many
    multiplications ran, not which window paid for them.  The engine
    emits one {!Trace.Window} span for every combination window and for
    every sequential / fast-path stretch between windows (rotated every
    256 gates).  Its kernel spans precede it in the trace; folding them
    attributes to each window:

    - its strategy ([mat_vec], [mat_mat k], or [fallback] when a guard
      budget degraded the window to sequential application),
    - build seconds (matrix-matrix products) vs apply seconds
      (matrix-vector applications onto the state),
    - the peak matrix-DD node count the window materialised,
    - state-DD node counts before and after,
    - the compute-table hit/miss traffic of its primary memo tables,
    - the memory gauges the window span carries: OCaml heap live words
      and the DD package's estimated table residency bytes.

    Nothing here records: a run without a trace has no windows, and a
    disabled trace costs one load and one branch per site. *)

type strategy =
  | Mat_vec  (** sequential / fast-path stretch between windows *)
  | Mat_mat of int  (** combination window of the given k *)
  | Fallback
      (** window degraded to sequential by a guard budget; the entry's
          [detail] names the budget that tripped *)

type entry = {
  index : int;  (** window order in the trace, 0-based *)
  strategy : strategy;
  gate_start : int;  (** first gate index covered (inclusive) *)
  gate_end : int;  (** one past the last gate covered *)
  gates : int;  (** [gate_end - gate_start] *)
  build_seconds : float;
      (** matrix-matrix product time; for combination windows also
          carries the window's slack (span minus kernel spans: gate-DD
          construction, dispatch, guard checks), so build + apply across
          all entries tracks the run's wall clock *)
  apply_seconds : float;
      (** matrix-vector application time; sequential stretches carry
          their slack here *)
  peak_matrix_nodes : int;
      (** largest matrix DD this entry materialised; [-1] when the
          stretch never built one (pure fast-path applications) *)
  state_nodes_before : int;
  state_nodes_after : int;
  hits : int;  (** primary memo-table hits over the entry *)
  misses : int;
  heap_live_words : int;  (** [Gc.quick_stat].live_words at close *)
  table_bytes : int;
      (** estimated unique-/compute-table residency bytes at close *)
  detail : string;  (** tripped budget for [Fallback]; free-form else *)
}

val window_detail :
  strategy -> gate_start:int -> state_nodes_before:int -> string -> string
(** The [detail] of a [Window] trace event, the part of a window its
    other fields cannot carry:
    ["<strategy>[ k=<k>] start=<gate_start> before=<nodes>"], followed
    by ["; <detail>"] when the free-form detail is non-empty. *)

val entries : Trace_report.run -> entry list
(** One entry per [Window] event, in trace order.  A window's children
    are the [Mat_vec] / [Mat_mat] spans after the previous window that
    start no earlier than it.  Raises [Failure] naming the window when
    its detail is malformed. *)

type totals = {
  mv_entries : int;
  mv_gates : int;
  mv_build : float;
  mv_apply : float;
  mm_entries : int;
  mm_gates : int;
  mm_build : float;
  mm_apply : float;
  fb_entries : int;
  fb_gates : int;
  fb_build : float;
  fb_apply : float;
  peak_matrix : int;
  peak_heap_words : int;
  peak_table_bytes : int;
}

val totals : entry list -> totals

val break_even : entry list -> int option
(** Smallest window size k whose mat-mat per-gate cost (build + apply,
    amortised over the window's gates) beats the run's observed mat-vec
    per-gate cost.  [None] when there is no mat-vec baseline or no
    window reaches break-even. *)

val explain : ?top:int -> Trace_report.run -> string
(** The paper-style comparison rendered for the terminal: per-strategy
    totals (mat-vec vs mat-mat time), amortization per window size,
    the observed break-even k, the [top] (default 5) most expensive
    windows with their node bulges, and peak memory gauges.  When the
    trace's meta carries a [wall_seconds] entry, also reports what
    fraction of the wall clock the windows cover. *)
