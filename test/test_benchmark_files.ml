(* The shipped benchmarks/*.qasm files must stay loadable and correct. *)

open Util

let test_ghz_12 () =
  let circuit = load_benchmark "ghz_12.qasm" in
  check_int "width" 12 Circuit.(circuit.qubits);
  let engine = Dd_sim.Engine.create 12 in
  Dd_sim.Engine.run engine circuit;
  let p0 = Dd_complex.Cnum.mag2 (Dd_sim.Engine.amplitude engine 0) in
  let p1 =
    Dd_complex.Cnum.mag2 (Dd_sim.Engine.amplitude engine ((1 lsl 12) - 1))
  in
  check_float "half mass on |0...0>" 0.5 p0;
  check_float "half mass on |1...1>" 0.5 p1

let test_qft_8 () =
  let circuit = load_benchmark "qft_8.qasm" in
  let engine = Dd_sim.Engine.create 8 in
  Dd_sim.Engine.run engine circuit;
  let expected = 1. /. 256. in
  check_float "uniform magnitude" expected
    (Dd_complex.Cnum.mag2 (Dd_sim.Engine.amplitude engine 137))

let test_bv_16 () =
  let circuit = load_benchmark "bv_16_42.qasm" in
  let engine = Dd_sim.Engine.create 16 in
  Dd_sim.Engine.run engine circuit;
  check_float "measures the secret deterministically" 1.
    (Dd_complex.Cnum.mag2 (Dd_sim.Engine.amplitude engine 42))

let test_random_6_80 () =
  let circuit = load_benchmark "random_6_80.qasm" in
  check_cnum_array "file matches the dense simulator"
    (dense_state_of_circuit circuit)
    (dd_state_of_circuit circuit)

let suite =
  [
    Alcotest.test_case "ghz_12" `Quick test_ghz_12;
    Alcotest.test_case "qft_8" `Quick test_qft_8;
    Alcotest.test_case "bv_16_42" `Quick test_bv_16;
    Alcotest.test_case "random_6_80" `Quick test_random_6_80;
  ]
