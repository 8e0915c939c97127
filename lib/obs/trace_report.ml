type run = {
  version : int;
  meta : (string * string) list;
  events : Trace.event list;
  dropped : int;
}

let field json key ~default =
  match Json.member json key with
  | Some (Json.Num v) -> int_of_float v
  | _ -> default

let parse_event json =
  let kind =
    match Json.member json "kind" with
    | Some (Json.Str s) -> (
      match Trace_export.kind_of_string s with
      | Some k -> k
      | None -> failwith (Printf.sprintf "trace: unknown event kind %S" s))
    | _ -> failwith "trace: event line is missing \"kind\""
  in
  let num key =
    match Json.member json key with Some (Json.Num v) -> v | _ -> 0.
  in
  let detail =
    match Json.member json "detail" with Some (Json.Str s) -> s | _ -> ""
  in
  {
    Trace.kind;
    t = num "t";
    dur = num "dur";
    gate_index = field json "gate" ~default:(-1);
    state_nodes = field json "state_nodes" ~default:(-1);
    matrix_nodes = field json "matrix_nodes" ~default:(-1);
    hits = field json "hits" ~default:0;
    misses = field json "misses" ~default:0;
    detail;
    heap_words = field json "heap_words" ~default:0;
    table_bytes = field json "table_bytes" ~default:0;
  }

(* every parse failure names the 1-based line it came from, so a
   truncated or hand-edited trace is diagnosable without a hex dump *)
let located line_number message =
  failwith (Printf.sprintf "trace:%d: %s" line_number message)

let strip_prefix message =
  (* parse_event messages already start with "trace: "; drop it before
     re-wrapping with the line number *)
  let prefix = "trace: " in
  let n = String.length prefix in
  if String.length message >= n && String.sub message 0 n = prefix then
    String.sub message n (String.length message - n)
  else message

let parse_jsonl text =
  (* writers append a checksum trailer line; verify it when present
     (hand-written files without one still parse) *)
  let body, trailer = Safe_io.split_jsonl_trailer text in
  (match trailer with
  | Some expected when Safe_io.checksum body <> expected ->
    failwith "trace: checksum mismatch (file truncated or corrupted)"
  | _ -> ());
  let lines =
    String.split_on_char '\n' body
    |> List.mapi (fun i line -> (i + 1, line))
    |> List.filter (fun (_, line) -> String.trim line <> "")
  in
  match lines with
  | [] -> failwith "trace: empty file"
  | (header_line, header_text) :: rest ->
    let header =
      try Json.parse header_text
      with Failure message -> located header_line message
    in
    (match Json.member header "schema" with
    | Some (Json.Str s) when s = Trace_export.schema -> ()
    | Some (Json.Str s) ->
      located header_line (Printf.sprintf "unexpected schema %S" s)
    | _ -> located header_line "header line is missing \"schema\"");
    let version =
      match Json.member header "version" with
      | Some (Json.Num v) -> int_of_float v
      | _ -> located header_line "header line is missing \"version\""
    in
    if version <> Trace_export.version then
      located header_line
        (Printf.sprintf "unsupported schema version %d (expected %d)"
           version Trace_export.version);
    let meta =
      match Json.member header "meta" with
      | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) ->
            match v with Json.Str s -> Some (k, s) | _ -> None)
          fields
      | _ -> []
    in
    let dropped = field header "dropped" ~default:0 in
    let events =
      List.map
        (fun (line_number, line) ->
          match parse_event (Json.parse line) with
          | event -> event
          | exception Failure message ->
            located line_number (strip_prefix message))
        rest
    in
    { version; meta; events; dropped }

let of_trace ?(meta = []) trace =
  {
    version = Trace_export.version;
    meta;
    events = Array.to_list (Trace.events trace);
    dropped = Trace.dropped trace;
  }

let trajectory run =
  let by_gate = Hashtbl.create 256 in
  List.iter
    (fun (e : Trace.event) ->
      if e.gate_index >= 0 && e.state_nodes >= 0 then
        Hashtbl.replace by_gate e.gate_index e.state_nodes)
    run.events;
  Hashtbl.fold (fun g n acc -> (g, n) :: acc) by_gate []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let peak_state_nodes run =
  List.fold_left
    (fun best (g, n) ->
      match best with
      | Some (_, bn) when bn >= n -> best
      | _ -> Some (g, n))
    None (trajectory run)

type phase = {
  kind : Trace.kind;
  count : int;
  total_seconds : float;
  mean_seconds : float;
  max_seconds : float;
}

let kind_order = function
  | Trace.Gate_applied -> 0
  | Trace.Window_combined -> 1
  | Trace.Mat_vec -> 2
  | Trace.Mat_mat -> 3
  | Trace.Gc -> 4
  | Trace.Fallback -> 5
  | Trace.Renormalize -> 6
  | Trace.Checkpoint -> 7
  | Trace.Measure -> 8
  | Trace.Audit -> 9
  | Trace.Reorder -> 10
  | Trace.Window -> 11

let phases run =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      let count, total, max_d =
        match Hashtbl.find_opt acc e.kind with
        | Some v -> v
        | None -> (0, 0., 0.)
      in
      Hashtbl.replace acc e.kind
        (count + 1, total +. e.dur, Float.max max_d e.dur))
    run.events;
  Hashtbl.fold
    (fun kind (count, total, max_d) out ->
      {
        kind;
        count;
        total_seconds = total;
        mean_seconds = total /. float_of_int count;
        max_seconds = max_d;
      }
      :: out)
    acc []
  |> List.sort (fun a b -> compare (kind_order a.kind) (kind_order b.kind))

(* terminal-friendly plot: 12 rows of '#' columns over <= 72 buckets *)
let plot_width = 72
let plot_height = 12

let render_plot points =
  match points with
  | [] -> "  (no node-count samples in trace)\n"
  | points ->
    let n = List.length points in
    let values = Array.of_list (List.map snd points) in
    let gates = Array.of_list (List.map fst points) in
    let width = min plot_width n in
    (* bucket consecutive samples; each column shows its bucket maximum so
       downsampling can never hide the peak *)
    let column = Array.make width 0 in
    Array.iteri
      (fun i v ->
        let c = i * width / n in
        if v > column.(c) then column.(c) <- v)
      values;
    let peak = Array.fold_left max 1 column in
    let buffer = Buffer.create 1024 in
    for row = plot_height downto 1 do
      let threshold =
        float_of_int peak *. float_of_int row /. float_of_int plot_height
      in
      let label =
        if row = plot_height then Printf.sprintf "%8d |" peak
        else if row = 1 then Printf.sprintf "%8d |" 0
        else "         |"
      in
      Buffer.add_string buffer label;
      for c = 0 to width - 1 do
        Buffer.add_char buffer
          (if float_of_int column.(c) >= threshold then '#' else ' ')
      done;
      Buffer.add_char buffer '\n'
    done;
    Buffer.add_string buffer ("         +" ^ String.make width '-' ^ "\n");
    Buffer.add_string buffer
      (Printf.sprintf "          gate %d .. %d (%d samples)\n" gates.(0)
         gates.(n - 1) n);
    Buffer.contents buffer

let render run =
  let buffer = Buffer.create 2048 in
  Buffer.add_string buffer
    (Printf.sprintf "trace report (schema %s v%d)\n" Trace_export.schema
       run.version);
  if run.meta <> [] then begin
    Buffer.add_string buffer "meta:\n";
    List.iter
      (fun (k, v) ->
        Buffer.add_string buffer (Printf.sprintf "  %-12s %s\n" k v))
      run.meta
  end;
  Buffer.add_string buffer
    (Printf.sprintf "events: %d (%d dropped at capture time)\n"
       (List.length run.events) run.dropped);
  if run.events = [] then begin
    (* header-only trace: a breakdown of zero phases and an empty plot
       would only obscure the one fact that matters *)
    Buffer.add_string buffer
      "no events recorded — the run emitted nothing into this trace\n";
    Buffer.contents buffer
  end
  else begin
  let ps = phases run in
  if ps <> [] then begin
    Buffer.add_string buffer
      (Printf.sprintf "\n%-16s %8s %12s %12s %12s\n" "phase" "count"
         "total(ms)" "mean(us)" "max(us)");
    List.iter
      (fun p ->
        Buffer.add_string buffer
          (Printf.sprintf "%-16s %8d %12.3f %12.2f %12.2f\n"
             (Trace_export.kind_to_string p.kind)
             p.count
             (p.total_seconds *. 1e3)
             (p.mean_seconds *. 1e6)
             (p.max_seconds *. 1e6)))
      ps
  end;
  let points = trajectory run in
  Buffer.add_string buffer "\nstate-DD node-count trajectory:\n";
  Buffer.add_string buffer (render_plot points);
  (match peak_state_nodes run with
  | Some (gate, nodes) ->
    Buffer.add_string buffer
      (Printf.sprintf "peak state nodes: %d at gate %d\n" nodes gate)
  | None -> ());
  Buffer.contents buffer
  end
