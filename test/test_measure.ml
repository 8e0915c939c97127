open Dd_complex
open Util

let r = Cnum.of_float

let superposition ctx amps = Dd.Vdd.of_array ctx (Array.map r amps)

let test_norm_basis () =
  let ctx = fresh_ctx () in
  check_float "basis state norm" 1.
    (Dd.Measure.norm2 ctx (Dd.Vdd.basis ctx ~n:4 11))

let test_norm_superposition () =
  let ctx = fresh_ctx () in
  let e = superposition ctx [| 0.5; 0.5; 0.5; 0.5 |] in
  check_float "uniform norm" 1. (Dd.Measure.norm2 ctx e);
  let unnormalised = superposition ctx [| 1.; 2.; 2.; 0. |] in
  check_float "unnormalised norm" 9. (Dd.Measure.norm2 ctx unnormalised)

let test_norm_zero () =
  let ctx = fresh_ctx () in
  check_float "zero vector norm" 0. (Dd.Measure.norm2 ctx Dd.Vdd.zero)

let test_probability_one () =
  let ctx = fresh_ctx () in
  (* |psi> = sqrt(0.36)|00> + sqrt(0.64)|11>, qubit 0 and 1 marginals 0.64 *)
  let e = superposition ctx [| 0.6; 0.; 0.; 0.8 |] in
  check_float "qubit 0 marginal" 0.64
    (Dd.Measure.probability_one ctx e ~qubit:0);
  check_float "qubit 1 marginal" 0.64
    (Dd.Measure.probability_one ctx e ~qubit:1)

let test_probability_unnormalised () =
  let ctx = fresh_ctx () in
  let e = superposition ctx [| 1.; 0.; 0.; 3. |] in
  check_float "marginal of unnormalised state" 0.9
    (Dd.Measure.probability_one ctx e ~qubit:1)

let test_collapse () =
  let ctx = fresh_ctx () in
  let e = superposition ctx [| 0.6; 0.; 0.; 0.8 |] in
  let collapsed = Dd.Measure.collapse ctx e ~qubit:0 ~outcome:true in
  check_float "collapsed norm" 1. (Dd.Measure.norm2 ctx collapsed);
  check_cnum "collapsed amplitude" Cnum.one
    (Dd.Vdd.amplitude collapsed ~n:2 3)

let test_collapse_middle_qubit () =
  let ctx = fresh_ctx () in
  let amps = [| 0.5; 0.; 0.5; 0.; 0.; 0.5; 0.; 0.5 |] in
  let e = superposition ctx amps in
  let collapsed = Dd.Measure.collapse ctx e ~qubit:1 ~outcome:true in
  check_float "norm after collapse" 1. (Dd.Measure.norm2 ctx collapsed);
  (* only indices with bit 1 set survive: 2 and 7 here *)
  check_float "p(idx 2)" 0.5
    (Cnum.mag2 (Dd.Vdd.amplitude collapsed ~n:3 2));
  check_float "p(idx 7)" 0.5
    (Cnum.mag2 (Dd.Vdd.amplitude collapsed ~n:3 7));
  check_cnum "erased branch" Cnum.zero (Dd.Vdd.amplitude collapsed ~n:3 0)

let test_collapse_impossible () =
  let ctx = fresh_ctx () in
  let e = Dd.Vdd.basis ctx ~n:2 0 in
  Alcotest.check_raises "zero-probability collapse"
    (Dd.Dd_error.Error
       (Dd.Dd_error.Degenerate_state
          { operation = "Measure.collapse";
            message = "zero-probability outcome" }))
    (fun () -> ignore (Dd.Measure.collapse ctx e ~qubit:1 ~outcome:true))

let test_measure_qubit_deterministic () =
  let ctx = fresh_ctx () in
  let rng = Random.State.make [| 5 |] in
  let e = Dd.Vdd.basis ctx ~n:3 5 in
  let b0, e = Dd.Measure.measure_qubit ctx rng e ~qubit:0 in
  let b1, e = Dd.Measure.measure_qubit ctx rng e ~qubit:1 in
  let b2, _ = Dd.Measure.measure_qubit ctx rng e ~qubit:2 in
  check_bool "bit0" true b0;
  check_bool "bit1" false b1;
  check_bool "bit2" true b2

let test_sample_distribution () =
  let ctx = fresh_ctx () in
  let rng = Random.State.make [| 42 |] in
  (* bell-like state: only 0 and 3 can be sampled, roughly evenly *)
  let e = superposition ctx [| sqrt 0.5; 0.; 0.; sqrt 0.5 |] in
  let counts = Array.make 4 0 in
  for _ = 1 to 2000 do
    let idx = Dd.Measure.sample ctx rng e in
    counts.(idx) <- counts.(idx) + 1
  done;
  check_int "no |01> samples" 0 counts.(1);
  check_int "no |10> samples" 0 counts.(2);
  check_bool "roughly balanced" true
    (abs (counts.(0) - counts.(3)) < 300)

let test_sample_respects_weights () =
  let ctx = fresh_ctx () in
  let rng = Random.State.make [| 9 |] in
  let e = superposition ctx [| 0.1; 0.; 0.; 0.994987 |] in
  let ones = ref 0 in
  for _ = 1 to 500 do
    if Dd.Measure.sample ctx rng e = 3 then incr ones
  done;
  check_bool "heavy outcome dominates" true (!ones > 450)

let test_probabilities () =
  let ctx = fresh_ctx () in
  let e = superposition ctx [| 0.6; 0.; 0.; 0.8 |] in
  let p = Dd.Measure.probabilities e ~n:2 in
  check_float "p0" 0.36 p.(0);
  check_float "p3" 0.64 p.(3)

(* -- measurement under a non-identity variable order -------------------
   Measurement addresses qubits; the order layer must make the level
   translation invisible.  0.6|001> + 0.8|100> is asymmetric enough that
   any level/qubit mix-up changes every marginal. *)

let reordered_state ctx =
  let e = superposition ctx [| 0.; 0.6; 0.; 0.; 0.8; 0.; 0.; 0. |] in
  let e, _ =
    Dd.Reorder.apply_order ctx e (Dd.Order.of_qubit_of_level [| 2; 1; 0 |])
  in
  e

let test_probability_one_under_order () =
  let ctx = fresh_ctx () in
  let e = reordered_state ctx in
  check_float "qubit 0 marginal survives reordering" 0.36
    (Dd.Measure.probability_one ctx e ~qubit:0);
  check_float "qubit 1 marginal survives reordering" 0.
    (Dd.Measure.probability_one ctx e ~qubit:1);
  check_float "qubit 2 marginal survives reordering" 0.64
    (Dd.Measure.probability_one ctx e ~qubit:2)

let test_collapse_under_order () =
  let ctx = fresh_ctx () in
  let e = reordered_state ctx in
  let collapsed = Dd.Measure.collapse ctx e ~qubit:0 ~outcome:true in
  check_float "norm after collapse" 1. (Dd.Measure.norm2 ctx collapsed);
  check_cnum "collapse lands on |001>" Cnum.one
    (Dd.Vdd.amplitude ~order:(Dd.Context.order ctx) collapsed ~n:3 1)

let test_sample_under_order () =
  let ctx = fresh_ctx () in
  let rng = Random.State.make [| 11 |] in
  let e = reordered_state ctx in
  for _ = 1 to 200 do
    let idx = Dd.Measure.sample ctx rng e in
    check_bool "samples are qubit-space indices" true (idx = 1 || idx = 4)
  done

let test_probabilities_under_order () =
  let ctx = fresh_ctx () in
  let e = reordered_state ctx in
  let p = Dd.Measure.probabilities ~order:(Dd.Context.order ctx) e ~n:3 in
  check_float "p(|001>)" 0.36 p.(1);
  check_float "p(|100>)" 0.64 p.(4);
  check_float "p(|000>)" 0. p.(0)

let test_sample_shots_edges () =
  let engine = Dd_sim.Engine.create 3 in
  check_int "zero shots" 0 (Array.length (Dd_sim.Engine.sample_shots engine 0));
  check_bool "negative shots rejected" true
    (match Dd_sim.Engine.sample_shots engine (-1) with
    | exception Dd_sim.Error.Error (Dd_sim.Error.Invalid_parameter _) -> true
    | _ -> false);
  check_bool "one shot" true (Dd_sim.Engine.sample_shots engine 1 = [| 0 |]);
  (* |000> state: every shot is 0 *)
  let shots = Dd_sim.Engine.sample_shots engine 17 in
  Array.iteri (fun i s -> check_int (Printf.sprintf "shot %d" i) 0 s) shots

let suite =
  [
    Alcotest.test_case "norm_basis" `Quick test_norm_basis;
    Alcotest.test_case "norm_superposition" `Quick test_norm_superposition;
    Alcotest.test_case "norm_zero" `Quick test_norm_zero;
    Alcotest.test_case "probability_one" `Quick test_probability_one;
    Alcotest.test_case "probability_unnormalised" `Quick
      test_probability_unnormalised;
    Alcotest.test_case "collapse" `Quick test_collapse;
    Alcotest.test_case "collapse_middle_qubit" `Quick
      test_collapse_middle_qubit;
    Alcotest.test_case "collapse_impossible" `Quick test_collapse_impossible;
    Alcotest.test_case "measure_qubit_deterministic" `Quick
      test_measure_qubit_deterministic;
    Alcotest.test_case "sample_distribution" `Quick test_sample_distribution;
    Alcotest.test_case "sample_respects_weights" `Quick
      test_sample_respects_weights;
    Alcotest.test_case "probabilities" `Quick test_probabilities;
    Alcotest.test_case "probability_one under non-identity order" `Quick
      test_probability_one_under_order;
    Alcotest.test_case "collapse under non-identity order" `Quick
      test_collapse_under_order;
    Alcotest.test_case "sample under non-identity order" `Quick
      test_sample_under_order;
    Alcotest.test_case "probabilities under non-identity order" `Quick
      test_probabilities_under_order;
    Alcotest.test_case "sample_shots_edges" `Quick test_sample_shots_edges;
  ]
