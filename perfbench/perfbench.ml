(* Benchmark runner for one workload and one seed.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--toy] [--out DIR]

   Repeats the workload's simulate call, each time with a fresh engine and
   tracing off, until S seconds have passed, and checks every repetition
   against an independent reference outside the timed region.  With
   --trace 1 it then replays the workload once through each layer's public
   entry points, recording a span and counter deltas around every call,
   checks that the replay did the same DD work as the untraced run, writes
   the spans to DIR and reports the per-layer metrics.  The last line of
   standard output is the JSON result. *)

open Dd_sim

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, value, unit) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
           (json_float value) unit)
       metrics)

let write_spans path recorder names =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Array.iter
        (fun (s : Spans.span) ->
          let deltas =
            List.filter_map
              (fun i ->
                if s.delta.(i) = 0. then None
                else Some (Printf.sprintf "%S: %s" names.(i) (json_float s.delta.(i))))
              (List.init (Array.length names) Fun.id)
          in
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %S, \"parent\": %d, \"start\": %s, \"end\": %s, \"delta\": {%s}}\n"
            s.id s.name s.parent (json_float s.start) (json_float s.stop)
            (String.concat ", " deltas))
        (Spans.spans recorder))

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from the replay's spans                           *)
(* ------------------------------------------------------------------ *)

let kernel_layers =
  [ "apply"; "gate_dd"; "mdd_mul"; "mdd_apply"; "mdd_construct"; "measure" ]

let layer_metrics (r : Workload.replay) ~sim_s ~gc ~failed_frac =
  let spans = Spans.spans r.recorder in
  let ctx = Engine.context r.engine in
  let names = Spans.names ctx in
  let col name =
    let rec go i = if names.(i) = name then i else go (i + 1) in
    go 0
  in
  let of_layer layer = List.filter (fun (s : Spans.span) -> s.name = layer) (Array.to_list spans) in
  let calls layer = float_of_int (List.length (of_layer layer)) in
  let busy layer =
    List.fold_left (fun acc (s : Spans.span) -> acc +. (s.stop -. s.start)) 0. (of_layer layer)
  in
  let delta layer name =
    let i = col name in
    List.fold_left (fun acc (s : Spans.span) -> acc +. s.delta.(i)) 0. (of_layer layer)
  in
  let ratio layer table =
    let lookups = delta layer (table ^ ".lookups") in
    if lookups = 0. then 0. else delta layer (table ^ ".hits") /. lookups
  in
  let root = spans.(0) in
  let traced_s = root.stop -. root.start in
  let kernel_busy = List.fold_left (fun acc l -> acc +. busy l) 0. kernel_layers in
  let total name = root.delta.(col name) in
  let all_tables column =
    List.fold_left
      (fun acc t -> acc +. total (t ^ "." ^ column)) 0. (Spans.table_names ctx)
  in
  let stats = Engine.stats r.engine in
  let i = float_of_int in
  let minor, promoted, majors = gc in
  let created = total "v_created" +. total "m_created" in
  [
    ("engine.mat_vec_mults", i stats.mat_vec_mults, "count");
    ("engine.mat_mat_mults", i r.tally.mat_mat, "count");
    ("engine.fast_path_applies", i stats.fast_path_applies, "count");
    ("engine.generic_applies", i stats.generic_applies, "count");
    ("engine.self_s", traced_s -. kernel_busy, "s");
    ("apply.calls", calls "apply", "count");
    ("apply.busy_s", busy "apply", "s");
    ("apply.table_lookups", delta "apply" "apply.lookups", "count");
    ("apply.table_hit_ratio", ratio "apply" "apply", "ratio");
    ("apply.ident_skips", delta "apply" "apply_skips", "count");
    ("gate_dd.calls", calls "gate_dd", "count");
    ("gate_dd.busy_s", busy "gate_dd", "s");
    ("mdd_mul.calls", calls "mdd_mul", "count");
    ("mdd_mul.busy_s", busy "mdd_mul", "s");
    ("mdd_mul.peak_product_nodes", i r.tally.peak_product, "count");
    ("mul_mm.hit_ratio", ratio "mdd_mul" "mul_mm", "ratio");
    ("add_m.hit_ratio", ratio "mdd_mul" "add_m", "ratio");
    ("mdd_apply.calls", calls "mdd_apply", "count");
    ("mdd_apply.busy_s", busy "mdd_apply", "s");
    ("mul_mv.hit_ratio", ratio "mdd_apply" "mul_mv", "ratio");
    ("add_v.hit_ratio", ratio "mdd_apply" "add_v", "ratio");
    ("mdd_construct.calls", calls "mdd_construct", "count");
    ("mdd_construct.busy_s", busy "mdd_construct", "s");
    ("measure.calls", calls "measure", "count");
    ("measure.busy_s", busy "measure", "s");
    ("hashcons.v_created", total "v_created", "count");
    ("hashcons.m_created", total "m_created", "count");
    ("hashcons.v_live", i (Dd.Context.live_v_nodes ctx), "count");
    ("hashcons.m_live", i (Dd.Context.live_m_nodes ctx), "count");
    ("final_state_nodes", i (Engine.state_node_count r.engine), "count");
    ("ctable.weights", i (Dd_complex.Ctable.size ctx.Dd.Context.ctable), "count");
    ("compute_table.lookups", all_tables "lookups", "count");
    ("compute_table.evictions", all_tables "evictions", "count");
    ("context.residency_bytes", i (Dd.Context.residency_bytes ctx), "bytes");
    ("gc.minor_words", minor, "words");
    ("gc.promoted_words", promoted, "words");
    ("gc.major_collections", majors, "count");
    ("gc.minor_words_per_node", (if created = 0. then 0. else minor /. created), "words/node");
    ("trace.coverage", (if traced_s = 0. then 0. else kernel_busy /. traced_s), "ratio");
    ("trace.overhead_s", traced_s -. sim_s, "s");
    ("max_amp_error", r.max_amp_error, "1");
    ("failed_frac", failed_frac, "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* Set-up is timed on its own, before the repetitions: three warm-up
   rounds, then [setup_samples] rounds each after a [Gc.compact], so every
   sample starts from the same heap state. *)
let setup_warmups = 3
let setup_samples = 11

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and toy = ref false and out = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from");
      ("--seconds", Arg.Set_float seconds, "S how long to repeat the simulate call");
      ("--trace", Arg.Set_int trace, "0|1 also replay the workload with spans");
      ("--toy", Arg.Set toy, " toy-size instance of the workload (self-test)");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match
      List.find_opt
        (fun (w : Workload.t) -> w.name = !workload)
        (Workload.workloads ~toy:!toy)
    with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  let seed = !seed in
  let setup () = Workload.setup w ~seed in
  for _ = 1 to setup_warmups do
    ignore (setup ())
  done;
  let setup_times =
    List.init setup_samples (fun _ ->
        Gc.compact ();
        fst (time setup))
  in
  let input, _ = setup () in
  let reference =
    match input with
    | Workload.Circuit c -> Workload.dense_reference c
    | Order _ -> [||]
  in
  (* Repetitions: fresh engine, timed simulate call, checks outside the
     timed region.  No repetition is retried or dropped. *)
  let sims = ref [] and gcs = ref [] and attempted = ref 0 and failed = ref 0 in
  let first_counts = ref None and max_amp_error = ref 0. in
  let fail what =
    incr failed;
    Printf.eprintf "perfbench: %s: %s\n%!" w.name what
  in
  (* A repetition starts only if one more of the median length still ends
     within the run's seconds. *)
  let started = Unix.gettimeofday () and rep_times = ref [] in
  let fits () =
    !attempted = 0
    || Unix.gettimeofday () -. started +. median !rep_times < !seconds
  in
  while fits () do
    let rep_started = Unix.gettimeofday () in
    incr attempted;
    Gc.compact ();
    let input, engine = setup () in
    let gc0 = Gc.quick_stat () in
    (match time (fun () -> Workload.simulate w input engine) with
    | exception e -> fail ("simulate raised " ^ Printexc.to_string e)
    | dt, order ->
      let gc1 = Gc.quick_stat () in
      sims := dt :: !sims;
      gcs :=
        ( gc1.minor_words -. gc0.minor_words,
          gc1.promoted_words -. gc0.promoted_words,
          float_of_int (gc1.major_collections - gc0.major_collections) )
        :: !gcs;
      (match input with
      | Workload.Circuit _ ->
        let err = Workload.max_error (Workload.state_array engine) reference in
        max_amp_error := Float.max !max_amp_error err;
        let c =
          Workload.counts engine
            ~mat_mat:(Engine.stats engine).mat_mat_mults ~phase:(-1)
        in
        if err > Workload.tolerance then
          fail (Printf.sprintf "max amplitude error %g above %g" err Workload.tolerance)
        else (
          match !first_counts with
          | None -> first_counts := Some c
          | Some c0 when c0 <> c ->
            fail ("DD counts differ between repetitions: " ^ Workload.pp_counts c0
                  ^ " vs " ^ Workload.pp_counts c)
          | Some _ -> ())
      | Order { order = expected; _ } ->
        if order <> Some expected then
          fail
            (Printf.sprintf "order %s, expected %d"
               (match order with Some r -> string_of_int r | None -> "none")
               expected)));
    rep_times := (Unix.gettimeofday () -. rep_started) :: !rep_times
  done;
  let sim_s = median !sims in
  let setup_s = median setup_times in
  let peak_heap_mb =
    float_of_int (Gc.quick_stat ()).top_heap_words
    *. float_of_int (Sys.word_size / 8) /. 1e6
  in
  Printf.printf
    "%s seed=%d: sim_s median %.4f over %d samples [%s]; setup_s median \
     %.5f over %d samples%s\n"
    w.name seed sim_s (List.length !sims)
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !sims))
    setup_s (List.length setup_times)
    (match input with
    | Workload.Circuit _ -> Printf.sprintf "; max amplitude error %g" !max_amp_error
    | Order _ -> "");
  let metrics =
    if !trace = 0 then
      [
        ("sim_s", sim_s, "s");
        ("setup_s", setup_s, "s");
        ("peak_heap_mb", peak_heap_mb, "MB");
      ]
    else begin
      incr attempted;
      let r = Workload.replay w input ~reference in
      let expected =
        match r.untraced_counts with Some c -> Some c | None -> !first_counts
      in
      (match (input, expected) with
      | _, None -> fail "no untraced run to compare the replay with"
      | Order { model; _ }, Some c when r.replay_counts.phase <> model.phase || c.phase <> model.phase ->
        fail
          (Printf.sprintf "measured phase %d (untraced %d), exact model %d"
             r.replay_counts.phase c.phase model.phase)
      | _, Some c when c <> r.replay_counts ->
        fail ("replay fidelity: untraced " ^ Workload.pp_counts c ^ " vs replay "
              ^ Workload.pp_counts r.replay_counts)
      | _ -> ());
      if r.max_amp_error > Workload.tolerance then
        fail (Printf.sprintf "replay max amplitude error %g above %g"
                r.max_amp_error Workload.tolerance);
      Printf.printf "replay counts: %s\n" (Workload.pp_counts r.replay_counts);
      (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
      let path = Filename.concat !out (Printf.sprintf "%s-seed%d.spans.jsonl" w.name seed) in
      write_spans path r.recorder (Spans.names (Engine.context r.engine));
      Printf.printf "spans written to %s\n" path;
      let gc_median f = median (List.map f !gcs) in
      layer_metrics r ~sim_s
        ~gc:(gc_median (fun (m, _, _) -> m), gc_median (fun (_, p, _) -> p),
             gc_median (fun (_, _, c) -> c))
        ~failed_frac:(float_of_int !failed /. float_of_int !attempted)
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed (json_metrics metrics)
