type report = {
  path : string;
  family : string;
  ok : bool;
  detail : string;
}

let pass ~path ~family detail = { path; family; ok = true; detail }
let fail ~path ~family detail = { path; family; ok = false; detail }

let to_string r =
  Printf.sprintf "%s: %s %s (%s)" r.path
    (if r.ok then "OK" else "FAIL")
    r.family r.detail

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let first_line text =
  match String.index_opt text '\n' with
  | Some i -> String.sub text 0 i
  | None -> text

let is_prefix prefix line =
  String.length line >= String.length prefix
  && String.sub line 0 (String.length prefix) = prefix

(* Parsing into a throwaway context exercises the full validation chain:
   checksum trailer, header, stats arity, DD reconstruction, height. *)
let check_checkpoint ~path text =
  let context = Dd.Context.create () in
  match Checkpoint.of_string context ~source:path text with
  | cp ->
    pass ~path ~family:"checkpoint"
      (Printf.sprintf "gate %d, %d qubits, strategy %s"
         cp.Checkpoint.gate_index cp.Checkpoint.qubits
         (Strategy.to_string cp.Checkpoint.strategy))
  | exception Error.Error e ->
    fail ~path ~family:"checkpoint" (Error.to_string e)

let no_trailer_note text =
  match Obs.Safe_io.split_jsonl_trailer text with
  | _, Some _ -> ""
  | _, None -> " (no checksum trailer)"

let check_trace ~path text =
  match Obs.Trace_report.parse_jsonl text with
  | run ->
    let events = run.Obs.Trace_report.events in
    let bad = ref None in
    let last = ref (-1) in
    List.iteri
      (fun i (e : Obs.Trace.event) ->
        if !bad = None then
          if e.dur < 0. then
            bad :=
              Some (Printf.sprintf "event %d carries a negative duration" i)
          else if e.kind = Obs.Trace.Gate_applied && e.gate_index >= 0 then
            if e.gate_index < !last then
              bad :=
                Some
                  (Printf.sprintf
                     "event %d: gate index %d goes backwards (after %d)" i
                     e.gate_index !last)
            else last := e.gate_index)
      events;
    (* strategy windows: the fold must decode every window header, and
       no window may close before it opens *)
    (if !bad = None then
       match Obs.Ledger.entries run with
       | windows ->
         List.iter
           (fun (w : Obs.Ledger.entry) ->
             if !bad = None && w.gate_end < w.gate_start then
               bad :=
                 Some
                   (Printf.sprintf "window %d: gate range [%d,%d) is inverted"
                      w.index w.gate_start w.gate_end))
           windows
       | exception Failure message -> bad := Some message);
    (match !bad with
    | Some detail -> fail ~path ~family:"trace" detail
    | None ->
      pass ~path ~family:"trace"
        (Printf.sprintf "%d events, schema v%d%s" (List.length events)
           run.Obs.Trace_report.version (no_trailer_note text)))
  | exception Failure message -> fail ~path ~family:"trace" message

let check_profile ~path text =
  match Obs.Dd_profile.parse_jsonl text with
  | run ->
    let snapshots = run.Obs.Dd_profile.run_snapshots in
    let bad = ref None in
    let last = ref (-1) in
    List.iteri
      (fun i (s : Obs.Dd_profile.snapshot) ->
        if !bad = None then
          if s.Obs.Dd_profile.gate_index < !last then
            bad :=
              Some
                (Printf.sprintf
                   "snapshot %d: gate index %d goes backwards (after %d)" i
                   s.Obs.Dd_profile.gate_index !last)
          else last := s.Obs.Dd_profile.gate_index)
      snapshots;
    (match !bad with
    | Some detail -> fail ~path ~family:"profile" detail
    | None ->
      pass ~path ~family:"profile"
        (Printf.sprintf "%d snapshots%s" (List.length snapshots)
           (no_trailer_note text)))
  | exception Failure message -> fail ~path ~family:"profile" message

let check_file ~path =
  match read_file path with
  | exception Sys_error message -> fail ~path ~family:"unknown" message
  | text ->
    let line = first_line text in
    if is_prefix "ddsim-checkpoint " line then check_checkpoint ~path text
    else if is_prefix "{" line then begin
      match Obs.Json.parse line with
      | exception Failure _ ->
        fail ~path ~family:"unknown" "unparseable header line"
      | header -> (
        match Obs.Json.member header "schema" with
        | Some (Obs.Json.Str "ddsim-trace") -> check_trace ~path text
        | Some (Obs.Json.Str "ddsim-profile") -> check_profile ~path text
        | Some (Obs.Json.Str s) ->
          fail ~path ~family:"unknown"
            (Printf.sprintf "unrecognised schema %S" s)
        | _ -> fail ~path ~family:"unknown" "header line has no schema field")
    end
    else fail ~path ~family:"unknown" "unrecognised artifact format"
