(* Strategy windows: the Window spans a traced run emits, the per-window
   costs Obs.Ledger folds from them, JSONL round-trips, explain/fsck
   integration, and the zero-cost-when-disabled contract. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let temp_path suffix =
  Filename.temp_file "ddsim_ledger_test" suffix

let traced_engine ?(seed = 7) ?context qubits =
  let engine = Dd_sim.Engine.create ~seed ?context qubits in
  let trace = Obs.Trace.create () in
  Dd_sim.Engine.set_trace engine trace;
  (engine, trace)

let windows trace = Obs.Ledger.entries (Obs.Trace_report.of_trace trace)

let traced_run ?(strategy = Dd_sim.Strategy.Sequential) ?guard circuit =
  let engine, trace = traced_engine Circuit.(circuit.qubits) in
  (match guard with
  | None -> Dd_sim.Engine.run ~strategy engine circuit
  | Some guard -> Dd_sim.Engine.run ~strategy ~guard engine circuit);
  (engine, windows trace, trace)

let contains_sub text sub =
  let n = String.length text and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub text i m = sub || loop (i + 1)) in
  loop 0

let attributed entries =
  List.fold_left
    (fun acc (e : Obs.Ledger.entry) ->
      acc +. e.build_seconds +. e.apply_seconds)
    0. entries

let total_gates entries =
  List.fold_left (fun acc (e : Obs.Ledger.entry) -> acc + e.gates) 0 entries

(* -- disabled-path contract ------------------------------------------- *)

let test_null_sink () =
  let circuit = Qft.circuit 6 in
  let engine =
    Dd_sim.Engine.create ~seed:7 Circuit.(circuit.qubits)
  in
  Dd_sim.Engine.run ~strategy:(Dd_sim.Strategy.K_operations 4) engine
    circuit;
  check_bool "an engine without a trace holds the null sink" false
    (Obs.Trace.is_on (Dd_sim.Engine.trace engine));
  Obs.Trace.window Obs.Trace.null ~t0:0. ~gate_end:3 ~state_nodes:1
    ~heap_words:0 ~table_bytes:0 ~detail:"mat_vec start=0 before=1";
  check_int "the null sink records no windows" 0
    (Obs.Trace.length Obs.Trace.null)

let test_disabled_probe_allocates_nothing () =
  let t = Obs.Trace.create () in
  Obs.Trace.set_enabled t false;
  (* pre-bound float so the loop body itself cannot box arguments *)
  let t0 = Sys.opaque_identity 0.001 in
  (* warm-up outside the measured window *)
  Obs.Trace.window t ~t0 ~gate_end:1 ~state_nodes:1 ~heap_words:1
    ~table_bytes:1 ~detail:"x";
  let before = Gc.minor_words () in
  for i = 1 to 100_000 do
    Obs.Trace.window t ~t0 ~gate_end:i ~state_nodes:i ~heap_words:i
      ~table_bytes:i ~detail:"x";
    Obs.Trace.span t Obs.Trace.Mat_vec ~t0 ~gate:i ~state_nodes:i
      ~matrix_nodes:i ~hits:i ~misses:i ~detail:"x"
  done;
  let allocated = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "100k disabled window probes allocated %.0f words"
       allocated)
    true (allocated < 256.);
  check_int "nothing was recorded" 0 (Obs.Trace.length t)

let test_untraced_run_is_identical () =
  let circuit = Qft.circuit 8 in
  let strategy = Dd_sim.Strategy.K_operations 4 in
  let plain = Dd_sim.Engine.create ~seed:7 Circuit.(circuit.qubits) in
  Dd_sim.Engine.run ~strategy plain circuit;
  let traced, entries, _ = traced_run ~strategy circuit in
  let s_plain = Dd_sim.Engine.stats plain in
  let s_traced = Dd_sim.Engine.stats traced in
  check_int "same gate count"
    s_plain.Dd_sim.Sim_stats.gates_seen
    s_traced.Dd_sim.Sim_stats.gates_seen;
  check_int "same mat-vec multiplications"
    s_plain.Dd_sim.Sim_stats.mat_vec_mults
    s_traced.Dd_sim.Sim_stats.mat_vec_mults;
  check_int "same mat-mat multiplications"
    s_plain.Dd_sim.Sim_stats.mat_mat_mults
    s_traced.Dd_sim.Sim_stats.mat_mat_mults;
  check_int "same combined applications"
    s_plain.Dd_sim.Sim_stats.combined_applications
    s_traced.Dd_sim.Sim_stats.combined_applications;
  check_int "same final state DD"
    (Dd_sim.Engine.state_node_count plain)
    (Dd_sim.Engine.state_node_count traced);
  check_bool "the traced run closed windows" true (entries <> [])

(* -- window semantics --------------------------------------------------- *)

let check_monotone_ranges entries =
  ignore
    (List.fold_left
       (fun last (e : Obs.Ledger.entry) ->
         check_bool
           (Printf.sprintf "range [%d,%d) does not overlap its predecessor"
              e.gate_start e.gate_end)
           true (e.gate_start >= last);
         check_bool
           (Printf.sprintf "range [%d,%d) is not inverted" e.gate_start
              e.gate_end)
           true (e.gate_end >= e.gate_start);
         e.gate_end)
       0 entries)

let test_sequential_run_entries () =
  let circuit = Grover.circuit ~n:6 ~marked:11 () in
  let engine, entries, _ = traced_run circuit in
  check_bool "sequential run closed windows" true (entries <> []);
  List.iter
    (fun (e : Obs.Ledger.entry) ->
      check_bool "every window is a mat-vec stretch" true
        (e.strategy = Obs.Ledger.Mat_vec))
    entries;
  check_int "every applied gate is attributed"
    (Dd_sim.Engine.stats engine).Dd_sim.Sim_stats.gates_seen
    (total_gates entries);
  check_monotone_ranges entries

let test_k4_attribution_covers_wall_clock () =
  (* on a qft_14 k:4 run the summed build+apply seconds of the windows
     cover >= 95% of the engine wall clock *)
  let circuit = Qft.circuit 14 in
  let engine, entries, _ =
    traced_run ~strategy:(Dd_sim.Strategy.K_operations 4) circuit
  in
  check_bool "windows were closed" true (entries <> []);
  List.iter
    (fun (e : Obs.Ledger.entry) ->
      check_bool "every window is a combination window" true
        (match e.strategy with Obs.Ledger.Mat_mat _ -> true | _ -> false))
    entries;
  check_monotone_ranges entries;
  let wall =
    (Dd_sim.Engine.stats engine).Dd_sim.Sim_stats.wall_time_seconds
  in
  let attributed = attributed entries in
  check_bool
    (Printf.sprintf "windows cover %.1f%% of the wall clock (>= 95%%)"
       (100. *. attributed /. Float.max wall 1e-12))
    true
    (attributed >= 0.95 *. wall);
  check_bool "attribution never exceeds wall (within timer noise)" true
    (attributed <= wall *. 1.05 +. 0.001)

let test_k1_windows () =
  let circuit = Qft.circuit 6 in
  let _, entries, _ =
    traced_run ~strategy:(Dd_sim.Strategy.K_operations 1) circuit
  in
  check_bool "k=1 run closed windows" true (entries <> []);
  List.iter
    (fun (e : Obs.Ledger.entry) ->
      check_bool "k=1 windows carry Mat_mat 1" true
        (e.strategy = Obs.Ledger.Mat_mat 1))
    entries

let test_fallback_records_budget () =
  (* a tiny matrix budget degrades windows to sequential application;
     the window must say so and name the budget *)
  let circuit = Grover.circuit ~n:6 ~marked:11 () in
  let guard = Dd_sim.Guard.make ~max_matrix_nodes:2 () in
  let engine, entries, _ =
    traced_run ~strategy:(Dd_sim.Strategy.K_operations 8) ~guard circuit
  in
  check_bool "the guard actually tripped" true
    ((Dd_sim.Engine.stats engine).Dd_sim.Sim_stats.fallbacks > 0);
  let fallbacks =
    List.filter
      (fun (e : Obs.Ledger.entry) -> e.strategy = Obs.Ledger.Fallback)
      entries
  in
  check_bool "fallback windows are recorded as such" true (fallbacks <> []);
  List.iter
    (fun (e : Obs.Ledger.entry) ->
      check_bool
        (Printf.sprintf "detail %S names the tripped budget" e.detail)
        true
        (contains_sub e.detail "max_matrix_nodes 2"))
    fallbacks

let test_resume_does_not_duplicate_entries () =
  let circuit = Qft.circuit 8 in
  let strategy = Dd_sim.Strategy.K_operations 4 in
  let path = temp_path ".ckpt" in
  (* first run: checkpoint mid-run only (the engine also checkpoints at
     the end of the run, which would leave nothing to resume), with its
     own trace *)
  let engine, _ = traced_engine Circuit.(circuit.qubits) in
  Dd_sim.Engine.run ~strategy ~checkpoint_every:12
    ~on_checkpoint:(fun ~gate_index ->
      if gate_index < Circuit.gate_count circuit then
        Dd_sim.Checkpoint.save engine ~strategy ~gate_index ~path)
    engine circuit;
  (* resume into a fresh engine with a fresh trace from the last
     periodic checkpoint; no window may cover already-replayed gates *)
  let ctx = Dd.Context.create () in
  let engine2, trace2 = traced_engine ~context:ctx Circuit.(circuit.qubits) in
  let loaded, _ = Dd_sim.Checkpoint.load_latest ctx ~path in
  let start = Dd_sim.Checkpoint.restore engine2 loaded in
  Dd_sim.Engine.run ~strategy ~start_gate:start engine2 circuit;
  let entries = windows trace2 in
  check_bool "resumed run closed windows" true (entries <> []);
  check_monotone_ranges entries;
  List.iter
    (fun (e : Obs.Ledger.entry) ->
      check_bool
        (Printf.sprintf "window [%d,%d) starts at or after the resume gate %d"
           e.gate_start e.gate_end start)
        true (e.gate_start >= start))
    entries;
  check_int "the resumed windows cover exactly the replayed tail"
    (Circuit.gate_count circuit - start)
    (total_gates entries);
  Sys.remove path;
  if Sys.file_exists (path ^ ".prev") then Sys.remove (path ^ ".prev")

let test_retention_and_rotation () =
  (* sequential stretches rotate every 256 gates *)
  let circuit = Grover.circuit ~n:10 ~marked:5 () in
  let gates = Circuit.gate_count circuit in
  check_bool "the circuit spans several stretches" true (gates > 512);
  let _, entries, _ = traced_run circuit in
  check_int "one window per started stretch" ((gates + 255) / 256)
    (List.length entries);
  List.iteri
    (fun i (e : Obs.Ledger.entry) ->
      if i < List.length entries - 1 then
        check_int "full stretches cover the cap" 256 e.gates)
    entries;
  (* a capped trace counts what it drops, and explain says so *)
  let engine = Dd_sim.Engine.create ~seed:7 Circuit.(circuit.qubits) in
  let trace = Obs.Trace.create ~max_events:16 () in
  Dd_sim.Engine.set_trace engine trace;
  Dd_sim.Engine.run engine circuit;
  check_bool "the overflow is counted" true (Obs.Trace.dropped trace > 0);
  check_bool "explain flags the missing windows" true
    (contains_sub
       (Obs.Ledger.explain (Obs.Trace_report.of_trace trace))
       "windows may be missing")

let test_window_detail_roundtrip () =
  let trace = Obs.Trace.create () in
  let emit strategy ~gate_start ~gate_end detail =
    Obs.Trace.window trace ~t0:(Obs.Trace.now trace) ~gate_end
      ~state_nodes:9 ~heap_words:100 ~table_bytes:200
      ~detail:
        (Obs.Ledger.window_detail strategy ~gate_start ~state_nodes_before:5
           detail)
  in
  emit Obs.Ledger.Mat_vec ~gate_start:0 ~gate_end:3 "";
  emit (Obs.Ledger.Mat_mat 4) ~gate_start:3 ~gate_end:7 "a; b";
  emit Obs.Ledger.Fallback ~gate_start:7 ~gate_end:8 "max_matrix_nodes 2";
  match windows trace with
  | [ a; b; c ] ->
    check_bool "strategies decode" true
      (a.strategy = Obs.Ledger.Mat_vec
      && b.strategy = Obs.Ledger.Mat_mat 4
      && c.strategy = Obs.Ledger.Fallback);
    check_bool "ranges decode" true
      (a.gate_start = 0 && a.gate_end = 3 && b.gate_start = 3
     && b.gate_end = 7 && c.gates = 1);
    check_bool "free-form detail survives a ';'" true (b.detail = "a; b");
    check_bool "node counts and gauges decode" true
      (c.state_nodes_before = 5 && c.state_nodes_after = 9
     && c.heap_live_words = 100 && c.table_bytes = 200);
    check_int "no kernel spans, no matrix peak" (-1) a.peak_matrix_nodes
  | entries -> Alcotest.failf "expected 3 windows, got %d" (List.length entries)

(* -- trace file, explain, fsck ------------------------------------------ *)

let test_jsonl_roundtrip_and_fsck () =
  let circuit = Qft.circuit 8 in
  let _, entries, trace =
    traced_run ~strategy:(Dd_sim.Strategy.K_operations 4) circuit
  in
  let meta = [ ("algo", "qft"); ("wall_seconds", "0.5") ] in
  let text = Obs.Trace_export.jsonl ~meta trace in
  let run = Obs.Trace_report.parse_jsonl text in
  check_bool "round-trip preserves the meta" true
    (List.assoc "algo" run.Obs.Trace_report.meta = "qft");
  let reloaded = Obs.Ledger.entries run in
  check_int "round-trip preserves every window" (List.length entries)
    (List.length reloaded);
  List.iter2
    (fun (a : Obs.Ledger.entry) (b : Obs.Ledger.entry) ->
      check_bool "window round-trips" true
        (a.strategy = b.strategy && a.gate_start = b.gate_start
        && a.gate_end = b.gate_end && a.gates = b.gates
        && a.peak_matrix_nodes = b.peak_matrix_nodes
        && a.hits = b.hits && a.misses = b.misses
        && a.heap_live_words = b.heap_live_words
        && a.table_bytes = b.table_bytes))
    entries reloaded;
  let path = temp_path ".jsonl" in
  Obs.Safe_io.write_file path text;
  let report = Dd_sim.Fsck.check_file ~path in
  check_bool "fsck passes a clean trace" true report.Dd_sim.Fsck.ok;
  check_bool "fsck classifies the family" true
    (report.Dd_sim.Fsck.family = "trace");
  (* flip one byte inside the body: the checksum trailer must catch it *)
  let corrupted = Bytes.of_string text in
  let mid = Bytes.length corrupted / 2 in
  Bytes.set corrupted mid
    (if Bytes.get corrupted mid = '1' then '2' else '1');
  Obs.Safe_io.write_file path (Bytes.to_string corrupted);
  let report = Dd_sim.Fsck.check_file ~path in
  check_bool "fsck flags a corrupted trace" false report.Dd_sim.Fsck.ok;
  Sys.remove path

let test_explain_output () =
  let circuit = Qft.circuit 10 in
  let _, _, trace =
    traced_run ~strategy:(Dd_sim.Strategy.K_operations 4) circuit
  in
  let rendered =
    Obs.Ledger.explain
      (Obs.Trace_report.of_trace ~meta:[ ("wall_seconds", "0.25") ] trace)
  in
  List.iter
    (fun needle ->
      check_bool
        (Printf.sprintf "explain mentions %S" needle)
        true
        (contains_sub rendered needle))
    [
      "strategy totals";
      "mat-vec";
      "mat-mat";
      "amortization per window size";
      "most expensive windows";
      "peak memory";
      "wall clock";
    ]

let test_break_even_prefers_smallest_winning_k () =
  let mk strategy gates build apply : Obs.Ledger.entry =
    {
      index = 0;
      strategy;
      gate_start = 0;
      gate_end = gates;
      gates;
      build_seconds = build;
      apply_seconds = apply;
      peak_matrix_nodes = -1;
      state_nodes_before = 1;
      state_nodes_after = 1;
      hits = 0;
      misses = 0;
      heap_live_words = 0;
      table_bytes = 0;
      detail = "";
    }
  in
  (* mat-vec baseline: 10 gates in 1s -> 0.1 s/gate.  k=2 windows cost
     0.3 s/gate (lose); k=4 windows cost 0.05 s/gate (win). *)
  let entries =
    [
      mk Obs.Ledger.Mat_vec 10 0. 1.0;
      mk (Obs.Ledger.Mat_mat 2) 2 0.5 0.1;
      mk (Obs.Ledger.Mat_mat 4) 4 0.1 0.1;
    ]
  in
  (match Obs.Ledger.break_even entries with
  | Some k -> check_int "break-even lands on the first winning k" 4 k
  | None -> Alcotest.fail "expected a break-even k");
  check_bool "no baseline means no break-even" true
    (Obs.Ledger.break_even
       [ mk (Obs.Ledger.Mat_mat 4) 4 0.1 0.1 ]
    = None)

(* -- telemetry and report satellites ----------------------------------- *)

let test_memory_telemetry_family () =
  let circuit = Qft.circuit 8 in
  let engine = Dd_sim.Engine.create Circuit.(circuit.qubits) in
  Dd_sim.Engine.run engine circuit;
  let snap = Dd_sim.Telemetry.snapshot engine in
  let count name =
    match Obs.Metrics.find snap name with
    | Some (Obs.Metrics.Count v) -> v
    | _ -> Alcotest.fail (Printf.sprintf "metric %s missing" name)
  in
  check_bool "heap gauge is live" true (count "mem.heap_live_words" > 0);
  check_bool "unique-table residency is live" true
    (count "mem.unique_table_bytes" > 0);
  check_bool "residency combines both families" true
    (count "mem.residency_bytes"
     = count "mem.unique_table_bytes" + count "mem.compute_table_bytes");
  check_bool "ident-skip counter is surfaced" true
    (count "table.apply.ident_skips" >= 0)

let test_report_header_only_trace () =
  let rendered =
    Obs.Trace_report.render
      {
        Obs.Trace_report.version = Obs.Trace_export.version;
        meta = [];
        events = [];
        dropped = 0;
      }
  in
  check_bool "header-only trace reports cleanly" true
    (contains_sub rendered "no events recorded")

let suite =
  [
    Alcotest.test_case "null_sink" `Quick test_null_sink;
    Alcotest.test_case "disabled_probe_allocates_nothing" `Quick
      test_disabled_probe_allocates_nothing;
    Alcotest.test_case "untraced_run_is_identical" `Quick
      test_untraced_run_is_identical;
    Alcotest.test_case "sequential_run_entries" `Quick
      test_sequential_run_entries;
    Alcotest.test_case "k4_attribution_covers_wall_clock" `Quick
      test_k4_attribution_covers_wall_clock;
    Alcotest.test_case "k1_windows" `Quick test_k1_windows;
    Alcotest.test_case "fallback_records_budget" `Quick
      test_fallback_records_budget;
    Alcotest.test_case "resume_does_not_duplicate_entries" `Quick
      test_resume_does_not_duplicate_entries;
    Alcotest.test_case "retention_and_rotation" `Quick
      test_retention_and_rotation;
    Alcotest.test_case "window_detail_roundtrip" `Quick
      test_window_detail_roundtrip;
    Alcotest.test_case "jsonl_roundtrip_and_fsck" `Quick
      test_jsonl_roundtrip_and_fsck;
    Alcotest.test_case "explain_output" `Quick test_explain_output;
    Alcotest.test_case "break_even_prefers_smallest_winning_k" `Quick
      test_break_even_prefers_smallest_winning_k;
    Alcotest.test_case "memory_telemetry_family" `Quick
      test_memory_telemetry_family;
    Alcotest.test_case "report_header_only_trace" `Quick
      test_report_header_only_trace;
  ]
