type strategy = Mat_vec | Mat_mat of int | Fallback

type entry = {
  index : int;
  strategy : strategy;
  gate_start : int;
  gate_end : int;
  gates : int;
  build_seconds : float;
  apply_seconds : float;
  peak_matrix_nodes : int;
  state_nodes_before : int;
  state_nodes_after : int;
  hits : int;
  misses : int;
  heap_live_words : int;
  table_bytes : int;
  detail : string;
}

(* -- the fold over a trace ---------------------------------------------- *)

let strategy_header = function
  | Mat_vec -> "mat_vec"
  | Mat_mat k -> Printf.sprintf "mat_mat k=%d" k
  | Fallback -> "fallback"

let window_detail strategy ~gate_start ~state_nodes_before detail =
  Printf.sprintf "%s start=%d before=%d%s" (strategy_header strategy)
    gate_start state_nodes_before
    (if detail = "" then "" else "; " ^ detail)

(* inverse of [window_detail]; the header itself never contains ';' *)
let parse_window_detail text =
  let header, detail =
    match String.index_opt text ';' with
    | Some i ->
      ( String.sub text 0 i,
        String.trim (String.sub text (i + 1) (String.length text - i - 1)) )
    | None -> (text, "")
  in
  let malformed () =
    failwith (Printf.sprintf "malformed window detail %S" text)
  in
  match String.split_on_char ' ' header with
  | [] -> malformed ()
  | name :: fields ->
    let field key =
      match
        List.find_map
          (fun f ->
            match String.split_on_char '=' f with
            | [ k; v ] when k = key -> int_of_string_opt v
            | _ -> None)
          fields
      with
      | Some v -> v
      | None -> malformed ()
    in
    let strategy =
      match name with
      | "mat_vec" -> Mat_vec
      | "mat_mat" -> Mat_mat (field "k")
      | "fallback" -> Fallback
      | _ -> malformed ()
    in
    (strategy, field "start", field "before", detail)

let entry_of_window index (window : Trace.event) children =
  let strategy, gate_start, state_nodes_before, detail =
    try parse_window_detail window.detail
    with Failure message ->
      failwith (Printf.sprintf "window %d: %s" index message)
  in
  let build, apply, peak, hits, misses =
    List.fold_left
      (fun (build, apply, peak, hits, misses) (c : Trace.event) ->
        let build, apply =
          if c.kind = Trace.Mat_mat then (build +. c.dur, apply)
          else (build, apply +. c.dur)
        in
        ( build,
          apply,
          max peak c.matrix_nodes,
          hits + c.hits,
          misses + c.misses ))
      (0., 0., -1, 0, 0) children
  in
  (* the kernel spans never cover the whole window: gate-DD construction,
     dispatch, guard checks and window bookkeeping run between them.
     Fold that slack into the bucket that owns the window's machinery —
     apply for sequential stretches, build for everything else — so
     summed build+apply tracks the wall clock instead of undercounting
     it. *)
  let slack = Float.max 0. (window.dur -. build -. apply) in
  let build, apply =
    if strategy = Mat_vec then (build, apply +. slack)
    else (build +. slack, apply)
  in
  let gate_end = window.gate_index + 1 in
  {
    index;
    strategy;
    gate_start;
    gate_end;
    gates = gate_end - gate_start;
    build_seconds = build;
    apply_seconds = apply;
    peak_matrix_nodes = peak;
    state_nodes_before;
    state_nodes_after = window.state_nodes;
    hits;
    misses;
    heap_live_words = window.heap_words;
    table_bytes = window.table_bytes;
    detail;
  }

let entries (run : Trace_report.run) =
  (* [pending] holds the kernel spans since the previous window closed;
     those that started before this window opened ran outside any window
     (between [Engine.run] calls) and are not its children *)
  let _, _, windows =
    List.fold_left
      (fun (pending, index, windows) (e : Trace.event) ->
        match e.kind with
        | Trace.Mat_vec | Trace.Mat_mat -> (e :: pending, index, windows)
        | Trace.Window ->
          let children =
            List.filter (fun (c : Trace.event) -> c.t >= e.t) pending
          in
          ([], index + 1, entry_of_window index e children :: windows)
        | _ -> (pending, index, windows))
      ([], 0, []) run.events
  in
  List.rev windows

(* -- aggregation ------------------------------------------------------- *)

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

let totals entries =
  List.fold_left
    (fun acc e ->
      let acc =
        {
          acc with
          peak_matrix = max acc.peak_matrix e.peak_matrix_nodes;
          peak_heap_words = max acc.peak_heap_words e.heap_live_words;
          peak_table_bytes = max acc.peak_table_bytes e.table_bytes;
        }
      in
      match e.strategy with
      | Mat_vec ->
        {
          acc with
          mv_entries = acc.mv_entries + 1;
          mv_gates = acc.mv_gates + e.gates;
          mv_build = acc.mv_build +. e.build_seconds;
          mv_apply = acc.mv_apply +. e.apply_seconds;
        }
      | Mat_mat _ ->
        {
          acc with
          mm_entries = acc.mm_entries + 1;
          mm_gates = acc.mm_gates + e.gates;
          mm_build = acc.mm_build +. e.build_seconds;
          mm_apply = acc.mm_apply +. e.apply_seconds;
        }
      | Fallback ->
        {
          acc with
          fb_entries = acc.fb_entries + 1;
          fb_gates = acc.fb_gates + e.gates;
          fb_build = acc.fb_build +. e.build_seconds;
          fb_apply = acc.fb_apply +. e.apply_seconds;
        })
    {
      mv_entries = 0;
      mv_gates = 0;
      mv_build = 0.;
      mv_apply = 0.;
      mm_entries = 0;
      mm_gates = 0;
      mm_build = 0.;
      mm_apply = 0.;
      fb_entries = 0;
      fb_gates = 0;
      fb_build = 0.;
      fb_apply = 0.;
      peak_matrix = -1;
      peak_heap_words = 0;
      peak_table_bytes = 0;
    }
    entries

(* Per-window-size aggregate over [Mat_mat] entries: k -> (windows,
   gates, build+apply seconds), sorted by k ascending. *)
let by_k entries =
  let table = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e.strategy with
      | Mat_mat k ->
        let windows, gates, seconds =
          match Hashtbl.find_opt table k with
          | Some acc -> acc
          | None -> (0, 0, 0.)
        in
        Hashtbl.replace table k
          ( windows + 1,
            gates + e.gates,
            seconds +. e.build_seconds +. e.apply_seconds )
      | Mat_vec | Fallback -> ())
    entries;
  Hashtbl.fold (fun k acc rows -> (k, acc) :: rows) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let mat_vec_per_gate entries =
  let t = totals entries in
  if t.mv_gates > 0 then Some ((t.mv_build +. t.mv_apply) /. float_of_int t.mv_gates)
  else None

let break_even entries =
  match mat_vec_per_gate entries with
  | None -> None
  | Some baseline ->
    List.fold_left
      (fun best (k, (_, gates, seconds)) ->
        if gates > 0 && seconds /. float_of_int gates <= baseline then
          match best with Some b when b <= k -> best | _ -> Some k
        else best)
      None (by_k entries)

let mib bytes = float_of_int bytes /. (1024. *. 1024.)

let explain ?(top = 5) (run : Trace_report.run) =
  let buffer = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buffer (s ^ "\n")) fmt in
  line "strategy windows (trace schema %s v%d)" Trace_export.schema
    run.version;
  if run.meta <> [] then
    line "meta: %s"
      (String.concat " "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) run.meta));
  let entries = entries run in
  line "windows: %d%s" (List.length entries)
    (if run.dropped > 0 then
       Printf.sprintf " (%d events dropped at capture; windows may be missing)"
         run.dropped
     else "");
  let t = totals entries in
  line "";
  line "strategy totals (build = gate-DD construction + matrix products,";
  line "                 apply = matrix-vector application):";
  line "  mat-vec : %4d entries  %6d gates  build %8.4fs  apply %8.4fs  total %8.4fs"
    t.mv_entries t.mv_gates t.mv_build t.mv_apply (t.mv_build +. t.mv_apply);
  line "  mat-mat : %4d windows  %6d gates  build %8.4fs  apply %8.4fs  total %8.4fs"
    t.mm_entries t.mm_gates t.mm_build t.mm_apply (t.mm_build +. t.mm_apply);
  line "  fallback: %4d windows  %6d gates  build %8.4fs  apply %8.4fs  total %8.4fs"
    t.fb_entries t.fb_gates t.fb_build t.fb_apply (t.fb_build +. t.fb_apply);
  let baseline = mat_vec_per_gate entries in
  let groups = by_k entries in
  if groups <> [] then begin
    line "";
    line "amortization per window size:";
    List.iter
      (fun (k, (windows, gates, seconds)) ->
        let per_gate =
          if gates > 0 then seconds /. float_of_int gates else 0.
        in
        let vs =
          match baseline with
          | Some b when b > 0. ->
            Printf.sprintf "  (%.2fx mat-vec per-gate)" (per_gate /. b)
          | _ -> ""
        in
        line "  k=%-3d %4d windows  %6d gates  %.6f s/gate%s" k windows gates
          per_gate vs)
      groups
  end;
  (match baseline with
  | Some b -> line "mat-vec per-gate: %.6f s" b
  | None -> line "mat-vec per-gate: n/a (no sequential stretch in this run)");
  (match break_even entries with
  | Some k -> line "break-even k observed: %d (smallest window size beating mat-vec per-gate)" k
  | None -> line "break-even k observed: none");
  let expensive =
    List.filter
      (fun e -> e.build_seconds +. e.apply_seconds > 0. || e.gates > 0)
      entries
    |> List.sort (fun a b ->
           compare
             (b.build_seconds +. b.apply_seconds)
             (a.build_seconds +. a.apply_seconds))
  in
  if expensive <> [] && top > 0 then begin
    line "";
    line "top %d most expensive windows:" (min top (List.length expensive));
    List.iteri
      (fun i e ->
        if i < top then begin
          let strategy =
            match e.strategy with
            | Mat_vec -> "mat-vec"
            | Mat_mat k -> Printf.sprintf "mat-mat k=%d" k
            | Fallback ->
              if e.detail <> "" then
                Printf.sprintf "fallback (%s)" e.detail
              else "fallback"
          in
          line
            "  %d. gates [%d,%d) %-16s build %8.4fs apply %8.4fs  matrix peak %s  state %d -> %d"
            (i + 1) e.gate_start e.gate_end strategy e.build_seconds
            e.apply_seconds
            (if e.peak_matrix_nodes >= 0 then
               Printf.sprintf "%d nodes" e.peak_matrix_nodes
             else "-")
            e.state_nodes_before e.state_nodes_after
        end)
      expensive
  end;
  if t.peak_heap_words > 0 || t.peak_table_bytes > 0 then begin
    line "";
    line "peak memory: heap %d live words, DD tables ~%.1f MiB%s"
      t.peak_heap_words
      (mib t.peak_table_bytes)
      (if t.peak_matrix >= 0 then
         Printf.sprintf " (largest matrix DD %d nodes)" t.peak_matrix
       else "")
  end;
  (match List.assoc_opt "wall_seconds" run.meta with
  | Some w -> (
    match float_of_string_opt w with
    | Some wall when wall > 0. ->
      let attributed =
        t.mv_build +. t.mv_apply +. t.mm_build +. t.mm_apply +. t.fb_build
        +. t.fb_apply
      in
      line "windows cover %.1f%% of wall clock (%.4fs of %.4fs)"
        (100. *. attributed /. wall)
        attributed wall
    | _ -> ())
  | None -> ());
  Buffer.contents buffer
