open Dd_complex

type t = {
  context : Dd.Context.t;
  n : int;
  mutable state_edge : Dd.Vdd.edge;
  mutable rng_state : Random.State.t;
  stats : Sim_stats.t;
  mutable track_peaks : bool;
  (* when set (the default), single-target gates applied outside a
     combination window take the structured fast path (Dd.Apply) instead
     of building the n-qubit gate DD; [--no-fused-apply] clears it for
     A/B measurement and debugging *)
  mutable fused_apply : bool;
  (* event sink; Obs.Trace.null (disabled, zero-cost) unless set_trace
     attached a live one — every instrumentation site below checks
     [Obs.Trace.is_on] before computing any event argument *)
  mutable trace : Obs.Trace.t;
  (* structural-profile sink; Obs.Dd_profile.null (disabled, zero-cost)
     unless set_profile attached a live one — the cadence probe
     [Obs.Dd_profile.due] is the first action at every emission site *)
  mutable profile : Obs.Dd_profile.sink;
  (* per-window strategy cost ledger; Obs.Ledger.null (disabled,
     zero-cost) unless set_ledger attached a live one — every recording
     site below checks [Obs.Ledger.is_on] first *)
  mutable ledger : Obs.Ledger.t;
  (* invariant-auditor cadence in applied gates; 0 = off (the default),
     in which case the per-gate probe is one load and one branch *)
  mutable audit_every : int;
  mutable audit_tol : float;
  mutable last_audit : int;
  (* dynamic variable reordering policy (--reorder); Off costs one load
     and one branch per applied gate *)
  mutable reorder_policy : reorder_policy;
  mutable bulge_factor : float;
  (* minimum applied-gate gap between bulge probes (each probe walks the
     state DD to count nodes per level, so it must not run every gate) *)
  mutable reorder_every : int;
  mutable last_reorder : int;
  mutable reorder_done : bool;
}

and reorder_policy = Reorder_off | Reorder_once | Reorder_adaptive

let create ?(seed = 0xDD) ?context n =
  if n <= 0 then
    Error.invalid_parameter ~what:"Engine.create"
      (Printf.sprintf "need at least one qubit (got %d)" n);
  let context =
    match context with Some c -> c | None -> Dd.Context.create ()
  in
  {
    context;
    n;
    state_edge = Dd.Vdd.basis context ~n 0;
    rng_state = Random.State.make [| seed |];
    stats = Sim_stats.create ();
    track_peaks = false;
    fused_apply = true;
    trace = Obs.Trace.null;
    profile = Obs.Dd_profile.null;
    ledger = Obs.Ledger.null;
    audit_every = 0;
    audit_tol = 1e-6;
    last_audit = 0;
    reorder_policy = Reorder_off;
    bulge_factor = 4.0;
    reorder_every = 64;
    last_reorder = 0;
    reorder_done = false;
  }

let context engine = engine.context
let qubits engine = engine.n
let stats engine = engine.stats
let rng engine = engine.rng_state
let set_rng engine rng = engine.rng_state <- rng
let state engine = engine.state_edge

let set_state engine edge =
  if Dd.Types.v_height edge <> engine.n then
    Error.raise_error
      (Error.Width_mismatch
         {
           what = "Engine.set_state";
           expected = engine.n;
           actual = Dd.Types.v_height edge;
         });
  engine.state_edge <- edge

let reset engine =
  Dd.Context.set_order engine.context Dd.Order.identity;
  engine.state_edge <- Dd.Vdd.basis engine.context ~n:engine.n 0;
  engine.last_audit <- 0;
  engine.last_reorder <- 0;
  engine.reorder_done <- false;
  Sim_stats.reset engine.stats

let set_track_peaks engine flag = engine.track_peaks <- flag
let set_fused_apply engine flag = engine.fused_apply <- flag
let fused_apply engine = engine.fused_apply

let set_trace engine trace =
  engine.trace <- trace;
  Dd.Context.set_trace engine.context trace

let trace engine = engine.trace
let set_profile engine sink = engine.profile <- sink
let profile engine = engine.profile
let set_ledger engine sink = engine.ledger <- sink
let ledger engine = engine.ledger

let set_audit engine ?(tolerance = 1e-6) every =
  if every < 0 then
    Error.invalid_parameter ~what:"Engine.set_audit"
      (Printf.sprintf "cadence must be >= 0 (got %d)" every);
  if (not (Float.is_finite tolerance)) || tolerance <= 0. then
    Error.invalid_parameter ~what:"Engine.set_audit"
      (Printf.sprintf "tolerance must be positive (got %g)" tolerance);
  engine.audit_every <- every;
  engine.audit_tol <- tolerance;
  engine.last_audit <- 0

let audit_every engine = engine.audit_every

(* disabled path: one load and one branch, zero allocation (asserted by
   the test suite) *)
let audit_due engine ~gate =
  engine.audit_every > 0 && gate - engine.last_audit >= engine.audit_every

(* One auditor pass over the live structures, with the recovery ladder:
   a stale compute-table entry flushes the caches, a canonicity fault
   re-interns the state DD through a canonical rebuild, and norm drift is
   renormalised away.  Violations that survive a full re-check raise a
   structured {!Error.Audit_failure} naming each fault site — the state
   cannot be trusted, resume from the last good checkpoint.  Returns the
   number of violations initially found. *)
let run_audit engine ~gate ~strategy =
  let ctx = engine.context in
  let traced = Obs.Trace.is_on engine.trace in
  let t0 = if traced then Obs.Trace.now engine.trace else 0. in
  engine.last_audit <- gate;
  engine.stats.audits_run <- engine.stats.audits_run + 1;
  let check () =
    Dd.Audit.check_vector ~norm_tol:engine.audit_tol ctx engine.state_edge
    @ Dd.Audit.check_tables ctx
  in
  let emit detail =
    if traced then
      Obs.Trace.span engine.trace Obs.Trace.Audit ~t0 ~gate
        ~state_nodes:(Dd.Vdd.node_count engine.state_edge)
        ~matrix_nodes:(-1) ~hits:0 ~misses:0 ~detail
  in
  let violations = check () in
  let found = List.length violations in
  if found = 0 then emit "clean"
  else begin
    engine.stats.audit_violations <- engine.stats.audit_violations + found;
    let classes = List.map Dd.Audit.class_of violations in
    if List.mem Dd.Audit.Table classes then
      Dd.Context.clear_compute_caches ctx;
    if List.mem Dd.Audit.Canonicity classes then
      engine.state_edge <- Dd.Audit.rebuild_vector ctx engine.state_edge;
    (* rung 3: renormalise drift (whether original or exposed by the
       rebuild folding corrupt weights into the root) *)
    let n2 = Dd.Audit.norm2_uncached engine.state_edge in
    if
      Float.is_finite n2 && n2 > 1e-300
      && Float.abs (sqrt n2 -. 1.) > engine.audit_tol
    then begin
      engine.state_edge <-
        Dd.Vdd.scale ctx (Cnum.of_float (1. /. sqrt n2)) engine.state_edge;
      engine.stats.renormalizations <- engine.stats.renormalizations + 1
    end;
    match check () with
    | [] ->
      engine.stats.audit_repairs <- engine.stats.audit_repairs + 1;
      emit (Printf.sprintf "%d violation%s repaired" found
              (if found = 1 then "" else "s"))
    | remaining ->
      emit
        (Printf.sprintf "%d violation%s, %d unrecovered" found
           (if found = 1 then "" else "s")
           (List.length remaining));
      Error.raise_error
        (Error.Audit_failure
           {
             violations = List.map Dd.Audit.to_string remaining;
             site =
               {
                 Error.gate_index = gate;
                 strategy;
                 state_nodes = Dd.Vdd.node_count engine.state_edge;
                 matrix_nodes = 0;
               };
           })
  end;
  found

let audit_now engine =
  run_audit engine ~gate:engine.stats.gates_seen
    ~strategy:Strategy.Sequential

let set_reorder engine ?(bulge_factor = 4.0) ?(every = 64) policy =
  if (not (Float.is_finite bulge_factor)) || bulge_factor <= 1. then
    Error.invalid_parameter ~what:"Engine.set_reorder"
      (Printf.sprintf "bulge factor must be > 1 (got %g)" bulge_factor);
  if every < 1 then
    Error.invalid_parameter ~what:"Engine.set_reorder"
      (Printf.sprintf "cadence must be >= 1 (got %d)" every);
  engine.reorder_policy <- policy;
  engine.bulge_factor <- bulge_factor;
  engine.reorder_every <- every;
  engine.last_reorder <- 0;
  engine.reorder_done <- false

let reorder_policy engine = engine.reorder_policy

let note_reorder engine ~t0 ~gate ~swaps ~nodes_before ~nodes_after ~detail
    =
  engine.stats.reorders_run <- engine.stats.reorders_run + 1;
  engine.stats.reorder_swaps <- engine.stats.reorder_swaps + swaps;
  engine.stats.reorder_nodes_before <-
    engine.stats.reorder_nodes_before + nodes_before;
  engine.stats.reorder_nodes_after <-
    engine.stats.reorder_nodes_after + nodes_after;
  if Obs.Trace.is_on engine.trace then
    Obs.Trace.span engine.trace Obs.Trace.Reorder ~t0 ~gate
      ~state_nodes:nodes_after ~matrix_nodes:(-1) ~hits:0 ~misses:0
      ~detail:
        (Printf.sprintf "%s: %d swaps, %d -> %d nodes" detail swaps
           nodes_before nodes_after)

(* One sifting pass over the live state: the state edge and the context's
   order move together (every adjacent swap updates both), so callers see
   a semantically identical state under a cheaper order. *)
let reorder_now ?max_growth ?max_passes engine =
  let traced = Obs.Trace.is_on engine.trace in
  let t0 = if traced then Obs.Trace.now engine.trace else 0. in
  let edge, rstats =
    Dd.Reorder.sift ?max_growth ?max_passes engine.context engine.state_edge
  in
  engine.state_edge <- edge;
  note_reorder engine ~t0 ~gate:engine.stats.gates_seen
    ~swaps:rstats.Dd.Reorder.swaps
    ~nodes_before:rstats.Dd.Reorder.nodes_before
    ~nodes_after:rstats.Dd.Reorder.nodes_after ~detail:"sift";
  rstats

(* Permute the live state to an explicit target order (the --order flag).
   Counts as a reordering pass and satisfies the Once policy — a
   hand-picked order should not be second-guessed by a later sift. *)
let set_order engine order =
  if not (Dd.Order.is_identity order) && Dd.Order.size order <> engine.n
  then
    Error.invalid_parameter ~what:"Engine.set_order"
      (Printf.sprintf "order covers %d levels, engine has %d qubits"
         (Dd.Order.size order) engine.n);
  let traced = Obs.Trace.is_on engine.trace in
  let t0 = if traced then Obs.Trace.now engine.trace else 0. in
  let nodes_before = Dd.Vdd.node_count engine.state_edge in
  let edge, swaps =
    Dd.Reorder.apply_order engine.context engine.state_edge order
  in
  engine.state_edge <- edge;
  note_reorder engine ~t0 ~gate:engine.stats.gates_seen ~swaps
    ~nodes_before
    ~nodes_after:(Dd.Vdd.node_count edge)
    ~detail:"explicit order";
  engine.reorder_done <- true;
  swaps

(* Bulge probe + sift, at the [reorder_every] cadence.  The probe reads
   the unique table's incrementally maintained per-level resident counts
   (O(levels), no DD walk) — between GCs these cover every resident
   vector node, a superset of the state's reachable set, which is the
   right quantity to bound: a bulge in residency is memory pressure
   whether or not every node is still reachable. *)
let maybe_reorder engine ~gate =
  match engine.reorder_policy with
  | Reorder_off -> ()
  | Reorder_once when engine.reorder_done -> ()
  | Reorder_once | Reorder_adaptive ->
    if gate - engine.last_reorder >= engine.reorder_every then begin
      engine.last_reorder <- gate;
      let counts =
        Dd.Context.per_level_v_nodes engine.context ~levels:engine.n
      in
      match
        Obs.Dd_profile.bulge ~factor:engine.bulge_factor counts
      with
      | Some _ ->
        engine.reorder_done <- true;
        ignore (reorder_now engine)
      | None -> ()
    end

(* A traced run keeps the peaks too: the report cross-checks the
   trajectory maximum against [peak_state_nodes], and a trace without its
   aggregate counterpart would leave that unverifiable. *)
let note_state_peak engine =
  if engine.track_peaks || Obs.Trace.is_on engine.trace then
    engine.stats.peak_state_nodes <-
      max engine.stats.peak_state_nodes
        (Dd.Vdd.node_count engine.state_edge)

let note_matrix_peak engine matrix =
  if engine.track_peaks || Obs.Trace.is_on engine.trace then
    engine.stats.peak_matrix_nodes <-
      max engine.stats.peak_matrix_nodes (Dd.Mdd.node_count matrix)

let gate_dd engine (gate : Gate.t) =
  let led = engine.ledger in
  let ledgered = Obs.Ledger.is_on led in
  let t0 = if ledgered then Obs.Clock.now () else 0. in
  let controls =
    List.map
      (fun (c : Gate.control) ->
        { Dd.Mdd.c_qubit = c.qubit; c_positive = c.positive })
      gate.controls
  in
  let matrix =
    Dd.Mdd.gate engine.context ~n:engine.n ~target:gate.target ~controls
      (Gate.matrix gate.kind)
  in
  if ledgered then Obs.Ledger.add_build led (Obs.Clock.now () -. t0);
  matrix

(* Per-op compute-table deltas: each multiplication kind is attributed to
   its primary memo table (mul_mv / apply / mul_mm).  Recursive helpers
   (add_v, ...) are not included — the delta answers "did this op hit the
   memo layer", not "every table the recursion touched". *)
let table_mark traced table =
  if traced then (Dd.Compute_table.hits table, Dd.Compute_table.lookups table)
  else (0, 0)

let table_delta table (hits0, lookups0) =
  let hits = Dd.Compute_table.hits table - hits0 in
  let misses = Dd.Compute_table.lookups table - lookups0 - hits in
  (hits, misses)

let apply_matrix engine matrix =
  let trace = engine.trace in
  let traced = Obs.Trace.is_on trace in
  let led = engine.ledger in
  let ledgered = Obs.Ledger.is_on led in
  let t0 = if traced then Obs.Trace.now trace else 0. in
  let lt0 = if ledgered then Obs.Clock.now () else 0. in
  let table = engine.context.Dd.Context.mul_mv in
  let mark = table_mark (traced || ledgered) table in
  engine.state_edge <- Dd.Mdd.apply engine.context matrix engine.state_edge;
  engine.stats.mat_vec_mults <- engine.stats.mat_vec_mults + 1;
  engine.stats.generic_applies <- engine.stats.generic_applies + 1;
  note_matrix_peak engine matrix;
  note_state_peak engine;
  if ledgered then begin
    Obs.Ledger.add_apply led (Obs.Clock.now () -. lt0);
    let hits, misses = table_delta table mark in
    Obs.Ledger.add_traffic led ~hits ~misses;
    Obs.Ledger.note_matrix led (Dd.Mdd.node_count matrix)
  end;
  if traced then begin
    let hits, misses = table_delta table mark in
    Obs.Trace.span trace Obs.Trace.Mat_vec ~t0
      ~gate:(Obs.Trace.gate trace)
      ~state_nodes:(Dd.Vdd.node_count engine.state_edge)
      ~matrix_nodes:(Dd.Mdd.node_count matrix)
      ~hits ~misses ~detail:"generic"
  end

(* Structured fast path: the gate is applied to the state DD directly
   (Dd.Apply), never materialising the n-qubit gate DD — no identity
   nodes, no mul_mv traffic.  Still one logical mat-vec, so
   [mat_vec_mults] counts it alongside [fast_path_applies]. *)
let apply_structured engine (gate : Gate.t) =
  let trace = engine.trace in
  let traced = Obs.Trace.is_on trace in
  let led = engine.ledger in
  let ledgered = Obs.Ledger.is_on led in
  let t0 = if traced then Obs.Trace.now trace else 0. in
  let lt0 = if ledgered then Obs.Clock.now () else 0. in
  let table = engine.context.Dd.Context.apply_v in
  let mark = table_mark (traced || ledgered) table in
  let controls =
    List.map
      (fun (c : Gate.control) ->
        { Dd.Apply.qubit = c.qubit; positive = c.positive })
      gate.controls
  in
  engine.state_edge <-
    Dd.Apply.apply engine.context ~n:engine.n ~target:gate.target ~controls
      (Gate.matrix gate.kind) engine.state_edge;
  engine.stats.mat_vec_mults <- engine.stats.mat_vec_mults + 1;
  engine.stats.fast_path_applies <- engine.stats.fast_path_applies + 1;
  note_state_peak engine;
  if ledgered then begin
    Obs.Ledger.add_apply led (Obs.Clock.now () -. lt0);
    let hits, misses = table_delta table mark in
    Obs.Ledger.add_traffic led ~hits ~misses
  end;
  if traced then begin
    let hits, misses = table_delta table mark in
    Obs.Trace.span trace Obs.Trace.Mat_vec ~t0
      ~gate:(Obs.Trace.gate trace)
      ~state_nodes:(Dd.Vdd.node_count engine.state_edge)
      ~matrix_nodes:(-1) ~hits ~misses ~detail:"fast"
  end

(* one gate onto the state, honouring the fused-apply switch *)
let apply_gate_single engine gate =
  if engine.fused_apply then apply_structured engine gate
  else apply_matrix engine (gate_dd engine gate)

let apply_gate engine gate =
  engine.stats.gates_seen <- engine.stats.gates_seen + 1;
  if Obs.Trace.is_on engine.trace then
    Obs.Trace.set_gate engine.trace (engine.stats.gates_seen - 1);
  apply_gate_single engine gate;
  if Obs.Trace.is_on engine.trace then
    Obs.Trace.instant engine.trace Obs.Trace.Gate_applied
      ~gate:(Obs.Trace.gate engine.trace)
      ~state_nodes:(Dd.Vdd.node_count engine.state_edge)
      ~matrix_nodes:(-1) ~detail:(Gate.name gate)

let multiply_onto engine gate product =
  let trace = engine.trace in
  let traced = Obs.Trace.is_on trace in
  let led = engine.ledger in
  let ledgered = Obs.Ledger.is_on led in
  let t0 = if traced then Obs.Trace.now trace else 0. in
  let lt0 = if ledgered then Obs.Clock.now () else 0. in
  let table = engine.context.Dd.Context.mul_mm in
  let mark = table_mark (traced || ledgered) table in
  engine.stats.mat_mat_mults <- engine.stats.mat_mat_mults + 1;
  let result = Dd.Mdd.mul engine.context gate product in
  note_matrix_peak engine result;
  if ledgered then begin
    Obs.Ledger.add_build led (Obs.Clock.now () -. lt0);
    let hits, misses = table_delta table mark in
    Obs.Ledger.add_traffic led ~hits ~misses;
    Obs.Ledger.note_matrix led (Dd.Mdd.node_count result)
  end;
  if traced then begin
    let hits, misses = table_delta table mark in
    Obs.Trace.span trace Obs.Trace.Mat_mat ~t0
      ~gate:(Obs.Trace.gate trace) ~state_nodes:(-1)
      ~matrix_nodes:(Dd.Mdd.node_count result)
      ~hits ~misses ~detail:""
  end;
  result

let combine engine gates =
  match gates with
  | [] -> Dd.Mdd.identity engine.context engine.n
  | first :: rest ->
    engine.stats.gates_seen <- engine.stats.gates_seen + List.length gates;
    List.fold_left
      (fun product gate -> multiply_onto engine (gate_dd engine gate) product)
      (gate_dd engine first) rest

(* Window-combination driver shared by the k-operations and max-size
   strategies: gates accumulate into a pending product (mat-mat
   multiplications); the product is flushed onto the state (one mat-vec)
   when the strategy's bound is reached or the gate stream ends.

   When a [Guard.t] is supplied, budgets are enforced between
   multiplications: an over-budget partial product degrades the window to
   sequential application instead of dying, live-node pressure triggers
   automatic garbage collection, norm drift triggers renormalisation, and
   deadline / memory exhaustion aborts with a structured {!Error.Error}
   (after forcing a checkpoint when one is configured, so the run can be
   resumed from where it stopped). *)
let run ?(strategy = Strategy.Sequential) ?(use_repeating = false)
    ?(guard = Guard.none) ?(checkpoint_every = 1024) ?on_checkpoint
    ?(start_gate = 0) engine circuit =
  (match Strategy.check strategy with
  | Ok () -> ()
  | Error message -> Error.invalid_parameter ~what:"Strategy" message);
  if start_gate < 0 then
    Error.invalid_parameter ~what:"Engine.run"
      (Printf.sprintf "negative start_gate (%d)" start_gate);
  if checkpoint_every < 1 then
    Error.invalid_parameter ~what:"Engine.run"
      (Printf.sprintf "checkpoint_every must be >= 1 (got %d)"
         checkpoint_every);
  if Circuit.(circuit.qubits) <> engine.n then
    Error.raise_error
      (Error.Width_mismatch
         {
           what = "Engine.run";
           expected = engine.n;
           actual = Circuit.(circuit.qubits);
         });
  let ctx = engine.context in
  let guarded = not (Guard.is_none guard) in
  let trace = engine.trace in
  let traced = Obs.Trace.is_on trace in
  let profile = engine.profile in
  let run_t0 = Obs.Clock.now () in
  let pending = ref None in
  let pending_count = ref 0 in
  (* gates whose effect is in the state; the resume point of checkpoints *)
  let applied = ref start_gate in
  (* gates seen in application order, for skipping on resume *)
  let cursor = ref 0 in
  (* > 0 while a breached window's remaining gates go through sequentially *)
  let fallback_left = ref 0 in
  (* combined Repeat-block matrix, rooted during its application loop so
     an automatic GC cannot reclaim it *)
  let block_root = ref None in
  let last_checkpoint = ref start_gate in
  let write_checkpoint ~force () =
    match on_checkpoint with
    | None -> ()
    | Some callback ->
      if force || !applied - !last_checkpoint >= checkpoint_every then begin
        callback ~gate_index:!applied;
        last_checkpoint := !applied;
        engine.stats.checkpoints_written <-
          engine.stats.checkpoints_written + 1;
        if traced then
          Obs.Trace.instant trace Obs.Trace.Checkpoint ~gate:!applied
            ~state_nodes:(Dd.Vdd.node_count engine.state_edge)
            ~matrix_nodes:(-1)
            ~detail:(if force then "forced" else "periodic")
      end
  in
  let site () =
    {
      Error.gate_index = !applied;
      strategy;
      state_nodes = Dd.Vdd.node_count engine.state_edge;
      matrix_nodes =
        (match !pending with Some p -> Dd.Mdd.node_count p | None -> 0);
    }
  in
  let abort kind ~limit ~actual =
    write_checkpoint ~force:true ();
    Error.raise_error
      (Error.Budget_exhausted { kind; limit; actual; site = site () })
  in
  let auto_gc () =
    let m_roots = List.filter_map (fun r -> !r) [ pending; block_root ] in
    let v_removed, m_removed =
      Dd.Context.collect ctx ~v_roots:[ engine.state_edge ] ~m_roots
    in
    engine.stats.auto_gcs <- engine.stats.auto_gcs + 1;
    engine.stats.gc_reclaimed_nodes <-
      engine.stats.gc_reclaimed_nodes + v_removed + m_removed;
    engine.stats.gc_pause_seconds <-
      engine.stats.gc_pause_seconds
      +. (Dd.Context.gc_stats ctx).Dd.Context.last_pause
  in
  let deadline_check =
    match guard.Guard.deadline with
    | None -> fun () -> ()
    | Some limit ->
      let t0 = Obs.Clock.now () in
      fun () ->
        let elapsed = Obs.Clock.now () -. t0 in
        if elapsed >= limit then abort Error.Deadline ~limit ~actual:elapsed
  in
  let memory_check =
    if guard.Guard.gc_high_water = None && guard.Guard.max_live_nodes = None
    then fun () -> ()
    else
      let live () =
        Dd.Context.live_v_nodes ctx + Dd.Context.live_m_nodes ctx
      in
      fun () ->
        (match guard.Guard.gc_high_water with
        | Some high_water when live () > high_water -> auto_gc ()
        | _ -> ());
        (match guard.Guard.max_live_nodes with
        | Some limit when live () > limit ->
          (* last-ditch collection before declaring the memory budget
             exhausted *)
          auto_gc ();
          let actual = live () in
          if actual > limit then
            abort Error.Live_nodes ~limit:(float_of_int limit)
              ~actual:(float_of_int actual)
        | _ -> ())
  in
  let norm_check =
    match guard.Guard.norm_tolerance with
    | None -> fun () -> ()
    | Some tolerance ->
      fun () ->
        let n2 = Dd.Measure.norm2 ctx engine.state_edge in
        if not (Float.is_finite n2) || n2 < 1e-300 then begin
          write_checkpoint ~force:true ();
          Error.raise_error
            (Error.Renormalization_failed { norm2 = n2; site = site () })
        end
        else if Float.abs (sqrt n2 -. 1.) > tolerance then begin
          engine.state_edge <-
            Dd.Vdd.scale ctx
              (Cnum.of_float (1. /. sqrt n2))
              engine.state_edge;
          engine.stats.renormalizations <-
            engine.stats.renormalizations + 1;
          if traced then
            Obs.Trace.instant trace Obs.Trace.Renormalize
              ~gate:(Obs.Trace.gate trace)
              ~state_nodes:(Dd.Vdd.node_count engine.state_edge)
              ~matrix_nodes:(-1)
              ~detail:(Printf.sprintf "norm drifted to %.9f" (sqrt n2))
        end
  in
  let matrix_over =
    match guard.Guard.max_matrix_nodes with
    | None -> fun _ -> false
    | Some limit -> fun product -> Dd.Mdd.node_count product > limit
  in
  let led = engine.ledger in
  let ledgered = Obs.Ledger.is_on led in
  (* Commit the open ledger entry with end-of-window gauges.  Commits
     live at the flush call sites, not inside [flush]: a breached
     K-window flushes its partial product but the (degraded) entry must
     stay open through the sequential tail that finishes the window. *)
  let led_commit () =
    if ledgered && Obs.Ledger.active led then begin
      let heap = (Gc.quick_stat ()).Gc.live_words in
      Obs.Ledger.commit led ~gate_end:!applied
        ~state_nodes:(Dd.Vdd.node_count engine.state_edge)
        ~heap_words:heap
        ~table_bytes:(Dd.Context.residency_bytes ctx)
    end
  in
  let led_open ~seq () =
    if ledgered then begin
      if Obs.Ledger.active led then led_commit ();
      Obs.Ledger.open_entry led ~seq ~gate:!applied
        ~state_nodes:(Dd.Vdd.node_count engine.state_edge)
    end
  in
  let fallback_detail () =
    match guard.Guard.max_matrix_nodes with
    | Some limit -> Printf.sprintf "max_matrix_nodes %d" limit
    | None -> "matrix budget"
  in
  let flush () =
    match !pending with
    | None -> ()
    | Some product ->
      let combined = !pending_count > 1 in
      if combined then
        engine.stats.combined_applications <-
          engine.stats.combined_applications + 1;
      let t0 = if traced then Obs.Trace.now trace else 0. in
      apply_matrix engine product;
      if traced && combined then
        Obs.Trace.span trace Obs.Trace.Window_combined ~t0
          ~gate:(Obs.Trace.gate trace)
          ~state_nodes:(Dd.Vdd.node_count engine.state_edge)
          ~matrix_nodes:(Dd.Mdd.node_count product)
          ~hits:0 ~misses:0
          ~detail:(Printf.sprintf "%d gates" !pending_count);
      applied := !applied + !pending_count;
      pending := None;
      pending_count := 0
  in
  (* structural snapshot of the state DD at the profile sink's cadence;
     only called when the state is an exact gate prefix.  The disabled
     path is the [due] probe alone: one load and one branch, nothing
     allocated (the test suite asserts this) *)
  let maybe_profile () =
    if Obs.Dd_profile.due profile ~gate:!applied then
      Obs.Dd_profile.emit profile
        (Dd.Profile.vector ~gate:!applied
           ~t:(Obs.Clock.now () -. run_t0)
           ~order:(Dd.Context.order ctx) engine.state_edge)
  in
  (* after the state advanced and no window is pending: guard the new
     state, then maybe checkpoint — the only points where a periodic
     checkpoint is taken, so a snapshot is always an exact gate prefix *)
  let after_state_update () =
    (* fault harness: a GC right after the state advanced is the most
       adversarial moment — every compute-table entry for the gate just
       applied is still hot *)
    if Fault.fire Fault.Forced_gc then
      ignore
        (Dd.Context.collect engine.context ~v_roots:[ engine.state_edge ]
           ~m_roots:[]);
    if guarded then begin
      norm_check ();
      memory_check ()
    end;
    if audit_due engine ~gate:!applied then
      ignore (run_audit engine ~gate:!applied ~strategy);
    (* reorder before profiling, so snapshots reflect the new order *)
    maybe_reorder engine ~gate:!applied;
    maybe_profile ();
    write_checkpoint ~force:false ()
  in
  (* Sequential applications — the Sequential strategy itself and the
     sequential tail of a breached combination window — go through
     [apply_gate_single]: with fused apply on, the gate DD is never
     built.  Combined-window products keep the generic [Mdd] path (the
     whole point of mat-mat combination is re-using those DDs). *)
  let note_fallback () =
    engine.stats.fallbacks <- engine.stats.fallbacks + 1;
    if traced then
      Obs.Trace.instant trace Obs.Trace.Fallback
        ~gate:(Obs.Trace.gate trace)
        ~state_nodes:(-1)
        ~matrix_nodes:
          (match !pending with
          | Some p -> Dd.Mdd.node_count p
          | None -> -1)
        ~detail:"window over matrix budget; degrading to sequential"
  in
  let absorb_dispatch gate =
    match strategy with
    | Strategy.Sequential ->
      if ledgered then begin
        if not (Obs.Ledger.active led) then led_open ~seq:true ();
        Obs.Ledger.add_gates led 1
      end;
      apply_gate_single engine gate;
      incr applied;
      (* long sequential stretches rotate into fresh entries so the
         ledger samples memory gauges along the way *)
      if ledgered && Obs.Ledger.rotate_due led then led_commit ();
      after_state_update ()
    | Strategy.K_operations k ->
      if !fallback_left > 0 then begin
        decr fallback_left;
        if ledgered then Obs.Ledger.add_gates led 1;
        apply_gate_single engine gate;
        incr applied;
        (* the degraded window's entry closes with its last tail gate *)
        if ledgered && !fallback_left = 0 then led_commit ();
        after_state_update ()
      end
      else begin
        (match !pending with
        | None ->
          if ledgered then begin
            led_open ~seq:false ();
            Obs.Ledger.add_gates led 1
          end;
          pending := Some (gate_dd engine gate);
          pending_count := 1
        | Some product ->
          if matrix_over product then begin
            (* graceful degradation: flush the oversized partial product
               and apply the remaining gates of this window one by one *)
            note_fallback ();
            if ledgered then begin
              Obs.Ledger.degrade led ~detail:(fallback_detail ());
              Obs.Ledger.add_gates led 1
            end;
            fallback_left := max 0 (k - !pending_count - 1);
            flush ();
            apply_gate_single engine gate;
            incr applied;
            if ledgered && !fallback_left = 0 then led_commit ()
          end
          else begin
            if ledgered then Obs.Ledger.add_gates led 1;
            pending := Some (multiply_onto engine (gate_dd engine gate) product);
            incr pending_count
          end);
        if !pending_count >= k then begin
          flush ();
          led_commit ()
        end;
        if Option.is_none !pending then after_state_update ()
      end
    | Strategy.Max_size bound ->
      (match !pending with
      | None ->
        if ledgered then begin
          led_open ~seq:false ();
          Obs.Ledger.add_gates led 1
        end;
        let gate_matrix = gate_dd engine gate in
        pending := Some gate_matrix;
        pending_count := 1;
        if Dd.Mdd.node_count gate_matrix > bound then begin
          flush ();
          led_commit ()
        end
      | Some product ->
        if matrix_over product then begin
          note_fallback ();
          if ledgered then begin
            Obs.Ledger.degrade led ~detail:(fallback_detail ());
            Obs.Ledger.add_gates led 1
          end;
          flush ();
          apply_gate_single engine gate;
          incr applied;
          led_commit ()
        end
        else begin
          if ledgered then Obs.Ledger.add_gates led 1;
          let product = multiply_onto engine (gate_dd engine gate) product in
          pending := Some product;
          incr pending_count;
          if Dd.Mdd.node_count product > bound then begin
            flush ();
            led_commit ()
          end
        end);
      if Option.is_none !pending then after_state_update ()
  in
  let absorb gate =
    if guarded then deadline_check ();
    engine.stats.gates_seen <- engine.stats.gates_seen + 1;
    absorb_dispatch gate;
    if traced then
      (* node count only when the state actually reflects this gate — a
         pending window means the effect has not landed yet *)
      Obs.Trace.instant trace Obs.Trace.Gate_applied
        ~gate:(Obs.Trace.gate trace)
        ~state_nodes:
          (if Option.is_none !pending then Dd.Vdd.node_count engine.state_edge
           else -1)
        ~matrix_nodes:
          (match !pending with Some p -> Dd.Mdd.node_count p | None -> -1)
        ~detail:(Gate.name gate)
  in
  let absorb_or_skip gate =
    if !cursor >= start_gate then begin
      if traced then Obs.Trace.set_gate trace !cursor;
      absorb gate
    end;
    incr cursor
  in
  let rec walk op =
    match op with
    | Circuit.Gate gate -> absorb_or_skip gate
    | Circuit.Repeat { count; body } ->
      if use_repeating && count > 1 then begin
        let gates = body_gates body in
        let len = List.length gates in
        let todo = ref count in
        (* skip whole repetitions that precede the resume point *)
        while !todo > 0 && !cursor + len <= start_gate do
          cursor := !cursor + len;
          decr todo
        done;
        if !todo > 0 && !cursor < start_gate then begin
          (* the resume point falls inside one repetition: finish that
             repetition gate by gate *)
          List.iter absorb_or_skip gates;
          decr todo
        end;
        if !todo > 0 then begin
          flush ();
          led_commit ();
          led_open ~seq:false ();
          let block = combine engine gates in
          engine.stats.combined_applications <-
            engine.stats.combined_applications + !todo;
          if ledgered then begin
            (* one combined k-gate matrix applied [todo] times: record
               the build k, attribute every covered gate so per-gate
               amortization reflects the reuse *)
            Obs.Ledger.set_window_k led len;
            Obs.Ledger.add_gates led (len * !todo);
            Obs.Ledger.note_detail led
              (Printf.sprintf "repeat block of %d gates x %d" len !todo)
          end;
          block_root := Some block;
          for _ = 1 to !todo do
            if guarded then deadline_check ();
            if traced then Obs.Trace.set_gate trace (!cursor + len - 1);
            apply_matrix engine block;
            applied := !applied + len;
            cursor := !cursor + len;
            if traced then
              Obs.Trace.instant trace Obs.Trace.Window_combined
                ~gate:(!cursor - 1)
                ~state_nodes:(Dd.Vdd.node_count engine.state_edge)
                ~matrix_nodes:(Dd.Mdd.node_count block)
                ~detail:(Printf.sprintf "repeat block of %d gates" len);
            after_state_update ()
          done;
          led_commit ();
          block_root := None
        end
      end
      else
        for _ = 1 to count do
          List.iter walk body
        done
  and body_gates body =
    let circuit = Circuit.create ~qubits:engine.n body in
    Circuit.flatten circuit
  in
  (* wall time and the dropped-event count must survive a structured
     abort (budget exhaustion raises out of [walk]) *)
  Fun.protect
    ~finally:(fun () ->
      (* closes the trailing sequential stretch of a normal run and the
         open entry of an aborted one (budget exhaustion raises out of
         [walk]); a no-op when everything already committed *)
      led_commit ();
      if ledgered then
        engine.stats.ledger_entries <- Obs.Ledger.length led;
      engine.stats.wall_time_seconds <-
        engine.stats.wall_time_seconds +. (Obs.Clock.now () -. run_t0);
      if traced then
        engine.stats.trace_events_dropped <- Obs.Trace.dropped trace)
    (fun () ->
      List.iter walk Circuit.(circuit.ops);
      flush ();
      led_commit ();
      (* one final snapshot so the profile always covers the end state,
         whatever the cadence *)
      if
        Obs.Dd_profile.is_on profile
        && Obs.Dd_profile.last_gate profile <> !applied
      then
        Obs.Dd_profile.emit profile
          (Dd.Profile.vector ~gate:!applied
             ~t:(Obs.Clock.now () -. run_t0)
             ~order:(Dd.Context.order ctx) engine.state_edge);
      if Option.is_none on_checkpoint then ()
      else if !applied > !last_checkpoint then write_checkpoint ~force:true ())

let amplitude engine index =
  Dd.Vdd.amplitude
    ~order:(Dd.Context.order engine.context)
    engine.state_edge ~n:engine.n index

let probability_one engine ~qubit =
  Dd.Measure.probability_one engine.context engine.state_edge ~qubit

let probabilities engine =
  Dd.Measure.probabilities
    ~order:(Dd.Context.order engine.context)
    engine.state_edge ~n:engine.n

let state_node_count engine = Dd.Vdd.node_count engine.state_edge

let measure_qubit engine ~qubit =
  let outcome, collapsed =
    Dd.Measure.measure_qubit engine.context engine.rng_state
      engine.state_edge ~qubit
  in
  engine.state_edge <- collapsed;
  if Obs.Trace.is_on engine.trace then
    Obs.Trace.instant engine.trace Obs.Trace.Measure ~gate:(-1)
      ~state_nodes:(Dd.Vdd.node_count engine.state_edge)
      ~matrix_nodes:(-1)
      ~detail:(Printf.sprintf "qubit %d -> %d" qubit (Bool.to_int outcome));
  outcome

let measure_all engine =
  let rec loop qubit acc =
    if qubit >= engine.n then acc
    else
      let bit = measure_qubit engine ~qubit in
      loop (qubit + 1) (if bit then acc lor (1 lsl qubit) else acc)
  in
  loop 0 0

let sample engine =
  Dd.Measure.sample engine.context engine.rng_state engine.state_edge

(* Multi-shot sampling: the engine RNG is consumed exactly [shots] times
   — one derived seed per shot, drawn sequentially — and shot [i] walks
   the DD under its own [Random.State.make [| seed_i |]], so the outcome
   array depends only on the engine RNG stream and the state DD. *)
let sample_shots engine shots =
  if shots < 0 then
    Error.invalid_parameter ~what:"Engine.sample_shots"
      (Printf.sprintf "shots must be >= 0 (got %d)" shots);
  let seeds = Array.init shots (fun _ -> Random.State.bits engine.rng_state) in
  Array.map
    (fun seed ->
      Dd.Measure.sample engine.context (Random.State.make [| seed |])
        engine.state_edge)
    seeds

let fidelity_dense engine reference =
  if Array.length reference <> 1 lsl engine.n then
    Error.invalid_parameter ~what:"Engine.fidelity_dense"
      (Printf.sprintf "reference has %d amplitudes, state has %d"
         (Array.length reference) (1 lsl engine.n));
  let reference_edge = Dd.Vdd.of_array engine.context reference in
  let overlap = Dd.Vdd.dot engine.context reference_edge engine.state_edge in
  Cnum.mag2 overlap

let collect_garbage engine =
  let v_removed, m_removed =
    Dd.Context.collect engine.context ~v_roots:[ engine.state_edge ]
      ~m_roots:[]
  in
  engine.stats.gc_reclaimed_nodes <-
    engine.stats.gc_reclaimed_nodes + v_removed + m_removed;
  engine.stats.gc_pause_seconds <-
    engine.stats.gc_pause_seconds
    +. (Dd.Context.gc_stats engine.context).Dd.Context.last_pause;
  (v_removed, m_removed)
