(** Cross-run comparison of two recorded simulations — the engine behind
    [ddsim diff].

    Two runs of the same circuit that should behave identically (two
    revisions, two strategies, two oracle parameters) are aligned by gate
    index and compared structurally:

    - the {e first divergence point}: the first gate at which the two
      state-DD node trajectories disagree — downstream of that gate every
      difference is consequence, not cause;
    - the node-trajectory delta, rendered as an ASCII overlay plot
      ([a]/[b]/[*] columns, like the [ddsim report] plot);
    - per-phase time deltas (count and total duration per event kind);
    - compute-table hit-rate deltas for the multiplication kinds;
    - when either trace has strategy windows, per-strategy gate counts
      and attributed seconds ({!Ledger.totals}) and each run's
      break-even k.

    Works on two file families: JSONL traces ({!Trace_report.run}) and
    structural profiles ({!Dd_profile.run}).  For profiles the report
    additionally breaks the divergence down per DD level and compares
    sharing and identity-region fractions. *)

type divergence = {
  gate : int;  (** first gate index where the node counts disagree *)
  nodes_a : int;
  nodes_b : int;
  detail : string;  (** gate name at that index, when the trace knows it *)
}

val first_divergence :
  (int * int) list -> (int * int) list -> divergence option
(** On two [(gate, nodes)] trajectories (ascending).  Only gate indexes
    present in both runs are compared; [None] when they agree
    everywhere. *)

val overlay_plot : a:(int * int) list -> b:(int * int) list -> string
(** ASCII overlay of two trajectories over their common gate range:
    [a]-only columns, [b]-only columns, [*] where both curves reach. *)

val render_traces :
  ?label_a:string ->
  ?label_b:string ->
  Trace_report.run ->
  Trace_report.run ->
  string
(** The full report for two parsed traces.  [label_a]/[label_b] (default
    ["A"]/["B"]) name the runs in headings; pass the file names. *)

val render_profiles :
  ?label_a:string ->
  ?label_b:string ->
  Dd_profile.run ->
  Dd_profile.run ->
  string
(** The full report for two parsed structural profiles. *)
