(* Exact deterministic counts of the DD kernel, the permutation
   constructor, the structured-apply fast path and dynamic reordering on
   small fixed instances.  Every figure is a literal: a change to
   hash-consing, the compute tables, the GC, the constructor, the apply
   kernel or the reorder layer that moves any count fails here, and the
   literal has to be updated on purpose.  Each case first checks the
   invariants that hold whatever the counts are.

   The same figures print from the CLI:
     kernel:  ddsim simulate benchmarks/X.qasm --auto-gc 512 --stats
     apply:   ddsim run --algo X ... [--no-fused-apply] [-s k:4] --stats
     reorder: ddsim run --algo X ... --reorder once|adaptive --stats *)

open Util

(* Compare a row of counts field by field, so a failure names the field. *)
let check_row msg fields expected actual =
  Alcotest.(check (list (pair string int)))
    msg
    (List.combine fields expected)
    (List.combine fields actual)

let table_stats ctx =
  let all = Dd.Context.table_stats ctx in
  List.iter
    (fun (s : Dd.Compute_table.stats) ->
      if s.Dd.Compute_table.hits > s.Dd.Compute_table.lookups then
        Alcotest.failf "%s: %d hits > %d lookups" s.Dd.Compute_table.table
          s.Dd.Compute_table.hits s.Dd.Compute_table.lookups)
    all;
  all

let table ctx name =
  List.find
    (fun (s : Dd.Compute_table.stats) -> s.Dd.Compute_table.table = name)
    (table_stats ctx)

(* -- kernel: runs with a low GC high-water mark ----------------------- *)

let kernel_fields =
  [
    "final_state_nodes"; "peak_state_nodes"; "peak_matrix_nodes"; "auto_gcs";
    "gc_collections"; "gc_reclaimed_nodes";
  ]

(* [tables] lists [lookups; hits; stores; evictions; invalidated;
   entries] for every table with a nonzero count; the rest must be all
   zero, so the list pins every table exactly. *)
let kernel_case ?(strategy = Dd_sim.Strategy.Sequential) ?(fused = true)
    ?(high_water = 512) name expected ~tables () =
  let circuit = load_benchmark (name ^ ".qasm") in
  let ctx = Dd.Context.create () in
  let engine = Dd_sim.Engine.create ~context:ctx Circuit.(circuit.qubits) in
  Dd_sim.Engine.set_fused_apply engine fused;
  Dd_sim.Engine.set_track_peaks engine true;
  Dd_sim.Engine.run ~strategy
    ~guard:(Dd_sim.Guard.make ~gc_high_water:high_water ())
    engine circuit;
  let stats = Dd_sim.Engine.stats engine in
  let all = table_stats ctx in
  Alcotest.(check (list string))
    "every table reported"
    [
      "add_v"; "add_m"; "mul_mv"; "mul_mm"; "apply"; "dot"; "adjoint"; "norm";
      "max_mag";
    ]
    (List.map (fun s -> s.Dd.Compute_table.table) all);
  check_row name kernel_fields expected
    [
      Dd_sim.Engine.state_node_count engine;
      stats.Dd_sim.Sim_stats.peak_state_nodes;
      stats.Dd_sim.Sim_stats.peak_matrix_nodes;
      stats.Dd_sim.Sim_stats.auto_gcs;
      (Dd.Context.gc_stats ctx).Dd.Context.collections;
      stats.Dd_sim.Sim_stats.gc_reclaimed_nodes;
    ];
  Alcotest.(check (list (pair string (list int))))
    (name ^ " tables") tables
    (List.filter_map
       (fun (s : Dd.Compute_table.stats) ->
         let open Dd.Compute_table in
         let row =
           [
             s.lookups; s.hits; s.stores; s.evictions; s.invalidated;
             s.entries;
           ]
         in
         if List.for_all (( = ) 0) row then None else Some (s.table, row))
       all)

(* -- DD-construct: a permutation oracle creates only its own nodes ---- *)

(* The modular-multiplication oracles of Shor's DD-construct backend on
   12 qubits (N = 2561): the top-down build makes each node of the result
   once and leaves no intermediate node in the unique table. *)
let test_permutation_no_garbage () =
  List.iter
    (fun (a, nodes) ->
      let ctx = Dd.Context.create () in
      let before = Dd.Context.m_unique_size ctx in
      let u =
        Dd.Mdd.of_permutation ctx ~n:12 (fun x ->
            if x < 2561 then x * a mod 2561 else x)
      in
      let label = Printf.sprintf "x -> %d x mod 2561" a in
      check_int (label ^ ": nodes created") nodes
        (Dd.Context.m_unique_size ctx - before);
      check_int (label ^ ": nodes in the result") nodes (Dd.Mdd.node_count u))
    [ (2409, 2814); (2, 82) ]

(* -- structured apply: fused vs generic sequential vs k-operations --- *)

let apply_fields =
  [
    "final_state_nodes"; "mat_vec_mults"; "fast_path_applies";
    "generic_applies"; "apply_ident_skips"; "mul_mv_lookups"; "apply_lookups";
    "apply_hits"; "apply_evictions"; "mat_mat_windows"; "fallback_windows";
  ]

let apply_run ~fused ~strategy circuit =
  let ctx = Dd.Context.create () in
  let engine = Dd_sim.Engine.create ~context:ctx Circuit.(circuit.qubits) in
  Dd_sim.Engine.set_fused_apply engine fused;
  let trace = Obs.Trace.create () in
  Dd_sim.Engine.set_trace engine trace;
  Dd_sim.Engine.run ~strategy engine circuit;
  let stats = Dd_sim.Engine.stats engine in
  let mul_mv = table ctx "mul_mv" and apply = table ctx "apply" in
  let windows =
    Obs.Ledger.totals (Obs.Ledger.entries (Obs.Trace_report.of_trace trace))
  in
  List.combine apply_fields
    [
      Dd_sim.Engine.state_node_count engine;
      stats.Dd_sim.Sim_stats.mat_vec_mults;
      stats.Dd_sim.Sim_stats.fast_path_applies;
      stats.Dd_sim.Sim_stats.generic_applies;
      Dd.Context.apply_skips ctx;
      mul_mv.Dd.Compute_table.lookups;
      apply.Dd.Compute_table.lookups;
      apply.Dd.Compute_table.hits;
      apply.Dd.Compute_table.evictions;
      windows.Obs.Ledger.mm_entries;
      windows.Obs.Ledger.fb_entries;
    ]

let apply_case circuit ~seq_fast ~seq_generic ~k4_fast () =
  let fast = apply_run ~fused:true ~strategy:Dd_sim.Strategy.Sequential circuit
  and generic =
    apply_run ~fused:false ~strategy:Dd_sim.Strategy.Sequential circuit
  and k4 =
    apply_run ~fused:true ~strategy:(Dd_sim.Strategy.K_operations 4) circuit
  in
  let field row name = List.assoc name row in
  check_int "fast and generic final states agree"
    (field generic "final_state_nodes")
    (field fast "final_state_nodes");
  check_int "fused sequential run never consults mul_mv" 0
    (field fast "mul_mv_lookups");
  check_int "fused sequential run has no generic applies" 0
    (field fast "generic_applies");
  check_bool "fused sequential run takes the fast path" true
    (field fast "fast_path_applies" > 0);
  check_int "generic run never takes the fast path" 0
    (field generic "fast_path_applies");
  check_row "seq_fast" apply_fields seq_fast (List.map snd fast);
  check_row "seq_generic" apply_fields seq_generic (List.map snd generic);
  check_row "k4_fast" apply_fields k4_fast (List.map snd k4)

(* -- dynamic reordering: off / adaptive / a fixed order once ---------- *)

type reorder = Off | Adaptive | Once of string

let reorder_fields =
  [
    "peak_state_nodes"; "final_state_nodes"; "reorders_run"; "reorder_swaps";
    "reorder_nodes_before"; "reorder_nodes_after";
  ]

(* The final order, then the counts in [reorder_fields] order. *)
let reorder_run reorder circuit =
  let engine = Dd_sim.Engine.create Circuit.(circuit.qubits) in
  Dd_sim.Engine.set_track_peaks engine true;
  (match reorder with
  | Off -> ()
  | Adaptive ->
    Dd_sim.Engine.set_reorder engine ~bulge_factor:1.5 ~every:8
      Dd_sim.Engine.Reorder_adaptive
  | Once spec ->
    ignore (Dd_sim.Engine.set_order engine (Dd.Order.of_string spec)));
  Dd_sim.Engine.run engine circuit;
  let stats = Dd_sim.Engine.stats engine in
  ( Dd.Order.to_string (Dd.Context.order (Dd_sim.Engine.context engine)),
    [
      stats.Dd_sim.Sim_stats.peak_state_nodes;
      Dd_sim.Engine.state_node_count engine;
      stats.Dd_sim.Sim_stats.reorders_run;
      stats.Dd_sim.Sim_stats.reorder_swaps;
      stats.Dd_sim.Sim_stats.reorder_nodes_before;
      stats.Dd_sim.Sim_stats.reorder_nodes_after;
    ] )

let check_reorder msg (order, row) ~final_order expected =
  Alcotest.(check string) (msg ^ " final order") final_order order;
  check_row msg reorder_fields expected row

(* A hand-picked order must at least halve the identity-order peak, and
   a once-run must finish in the order it asked for. *)
let check_picked_order ~off ~once picked =
  check_bool "the fixed order at least halves the identity peak" true
    (2 * List.hd (snd once) <= List.hd (snd off));
  Alcotest.(check string) "a once-run finishes in its order" picked (fst once)

let test_reorder_grid () =
  let circuit = Supremacy.circuit ~rows:3 ~cols:3 ~cycles:4 () in
  (* column-major: the staggered CZ layers bond along columns first *)
  let picked = "0 3 6 1 4 7 2 5 8" in
  let off = reorder_run Off circuit
  and adaptive = reorder_run Adaptive circuit
  and once = reorder_run (Once picked) circuit in
  check_picked_order ~off ~once picked;
  check_reorder "off" off ~final_order:"identity" [ 45; 45; 0; 0; 0; 0 ];
  check_reorder "adaptive" adaptive ~final_order:"7 0 3 6 4 1 2 5 8"
    [ 35; 20; 1; 429; 35; 22 ];
  check_reorder "once" once ~final_order:picked [ 20; 15; 1; 9; 9; 9 ]

let test_reorder_qft () =
  let circuit = Qft.circuit 8 in
  check_reorder "off" (reorder_run Off circuit) ~final_order:"identity"
    [ 8; 8; 0; 0; 0; 0 ];
  check_reorder "adaptive"
    (reorder_run Adaptive circuit)
    ~final_order:"identity" [ 8; 8; 0; 0; 0; 0 ]

(* The headline the README quotes: a sift-discovered order, frozen, cuts
   the 4x4 depth-6 supremacy peak 16x. *)
let test_reorder_headline () =
  let circuit = Supremacy.circuit ~rows:4 ~cols:4 ~cycles:6 () in
  let picked = "0 1 5 4 8 9 12 13 11 10 15 14 7 2 3 6" in
  let off = reorder_run Off circuit
  and once = reorder_run (Once picked) circuit in
  check_picked_order ~off ~once picked;
  check_reorder "off" off ~final_order:"identity" [ 2334; 2334; 0; 0; 0; 0 ];
  check_reorder "once" once ~final_order:picked [ 143; 105; 1; 46; 16; 16 ]

let suite =
  [
    Alcotest.test_case "kernel ghz_12" `Quick
      (kernel_case "ghz_12" [ 23; 23; 0; 0; 0; 0 ]
         ~tables:[ ("apply", [ 100; 0; 100; 0; 0; 100 ]) ]);
    (* low enough a high-water mark that two generation-aware sweeps run *)
    Alcotest.test_case "kernel random_6_80 gc" `Quick
      (kernel_case "random_6_80" [ 63; 63; 0; 2; 2; 981 ]
         ~tables:
           [
             ("add_v", [ 786; 106; 680; 3; 677; 0 ]);
             ("apply", [ 1153; 326; 827; 4; 823; 0 ]);
           ]);
    (* here entries survive the sweep: generation-aware GC keeps live
       products cached *)
    Alcotest.test_case "kernel random_6_80 k:4 gc" `Quick
      (kernel_case ~strategy:(Dd_sim.Strategy.K_operations 4) "random_6_80"
         [ 63; 63; 19; 1; 1; 490 ]
         ~tables:
           [
             ("add_v", [ 544; 116; 428; 0; 176; 252 ]);
             ("add_m", [ 56; 34; 22; 0; 16; 6 ]);
             ("mul_mv", [ 724; 311; 413; 0; 168; 245 ]);
             ("mul_mm", [ 848; 509; 339; 0; 227; 112 ]);
           ]);
    (* in qft_8 the products of the last gates are live at a collection:
       a sweep must keep the apply (fused) and mul_mv (generic) entries
       whose keys and results are both still reachable *)
    Alcotest.test_case "kernel qft_8 gc" `Quick
      (kernel_case ~high_water:64 "qft_8" [ 8; 8; 0; 1; 1; 59 ]
         ~tables:
           [
             ("add_v", [ 32; 16; 16; 0; 15; 1 ]);
             ("apply", [ 548; 160; 388; 2; 346; 40 ]);
           ]);
    Alcotest.test_case "kernel qft_8 generic gc" `Quick
      (kernel_case ~fused:false ~high_water:64 "qft_8"
         [ 8; 8; 15; 6; 6; 343 ]
         ~tables:
           [
             ("add_v", [ 48; 24; 24; 0; 20; 4 ]);
             ("mul_mv", [ 555; 248; 307; 1; 279; 27 ]);
           ]);
    Alcotest.test_case "construct permutation no garbage" `Quick
      test_permutation_no_garbage;
    Alcotest.test_case "apply ghz_12" `Quick
      (apply_case (Standard.ghz 12)
         ~seq_fast:[ 23; 12; 12; 0; 20; 0; 100; 0; 0; 0; 0 ]
         ~seq_generic:[ 23; 12; 0; 12; 0; 138; 0; 0; 0; 0; 0 ]
         ~k4_fast:[ 23; 3; 0; 3; 0; 53; 0; 0; 0; 3; 0 ]);
    Alcotest.test_case "apply qft_8" `Quick
      (apply_case (Qft.circuit 8)
         ~seq_fast:[ 8; 48; 48; 0; 78; 0; 548; 160; 2; 0; 0 ]
         ~seq_generic:[ 8; 48; 0; 48; 0; 513; 0; 0; 0; 0; 0 ]
         ~k4_fast:[ 8; 12; 0; 12; 0; 352; 0; 0; 0; 12; 0 ]);
    Alcotest.test_case "apply grover_8" `Quick
      (apply_case
         (Grover.circuit ~n:8 ~marked:5 ())
         ~seq_fast:[ 15; 416; 416; 0; 1251; 0; 3461; 1402; 39; 0; 0 ]
         ~seq_generic:[ 15; 416; 0; 416; 0; 6038; 0; 0; 0; 0; 0 ]
         ~k4_fast:[ 15; 104; 0; 104; 0; 2237; 0; 0; 0; 104; 0 ]);
    Alcotest.test_case "reorder supremacy_3x3_4" `Quick test_reorder_grid;
    Alcotest.test_case "reorder qft_8" `Quick test_reorder_qft;
    Alcotest.test_case "reorder supremacy_4x4_6 headline" `Quick
      test_reorder_headline;
  ]
