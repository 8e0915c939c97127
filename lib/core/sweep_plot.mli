(** Render strategy-sweep results (the paper's Fig. 8 / Fig. 9 scatter
    plots) as standalone SVG charts: one polyline per benchmark over a
    log-scaled parameter axis, plus the per-parameter average the paper
    overlays as a line. *)

type series = {
  series_name : string;
  points : (float * float) list;  (** (parameter value, speed-up) *)
}

val render :
  title:string -> x_label:string -> series list -> string
(** Standalone SVG document.  The x axis is log2-scaled; a horizontal
    rule marks speed-up 1 (the sequential baseline).  Series with no
    points are skipped. *)

val parse_sweep_table : header:string -> string -> series list
(** Extract a sweep table from benchmark-harness output (e.g. the
    stdout of [dune exec bench/main.exe -- fig9]): [header] identifies the section (e.g. ["Fig. 8"]); rows with
    [-] entries (skipped points) are omitted from the affected series.
    Returns the benchmark series plus the ["average"] series.  Raises
    [Not_found] if the section is absent. *)
