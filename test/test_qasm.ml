open Util

let roundtrip circuit =
  Qasm.of_string (Qasm.to_string circuit)

let states_agree msg a b =
  check_cnum_array msg (dense_state_of_circuit a) (dense_state_of_circuit b)

let contains_sub text sub =
  let n = String.length text and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub text i m = sub || loop (i + 1)) in
  loop 0

let test_export_header () =
  let text = Qasm.to_string (Standard.bell ()) in
  check_bool "version line" true
    (String.length text > 12 && String.sub text 0 12 = "OPENQASM 2.0");
  check_bool "declares the register" true (contains_sub text "qreg q[2];")

let test_roundtrip_bell () =
  states_agree "bell roundtrip" (Standard.bell ()) (roundtrip (Standard.bell ()))

let test_roundtrip_parameterised () =
  let circuit =
    Circuit.of_gates ~qubits:3
      [
        Gate.rx 0.123 0; Gate.ry (-2.5) 1; Gate.rz 1.7 2;
        Gate.phase 0.333 0; Gate.cphase 0.75 0 2;
        Gate.make ~controls:[ Gate.ctrl 1 ] (Gate.Rz 0.5) 2;
      ]
  in
  states_agree "parameterised roundtrip" circuit (roundtrip circuit)

let test_roundtrip_controlled () =
  let circuit =
    Circuit.of_gates ~qubits:3
      [ Gate.cx 0 1; Gate.cz 1 2; Gate.ccx 0 1 2; Gate.h 0 ]
  in
  states_agree "controlled roundtrip" circuit (roundtrip circuit)

let test_negative_control_lowering () =
  (* export lowers negative controls with X conjugation; semantics must be
     preserved *)
  let circuit =
    Circuit.of_gates ~qubits:2
      [ Gate.h 1; Gate.make ~controls:[ Gate.nctrl 1 ] Gate.X 0 ]
  in
  states_agree "negative control lowering" circuit (roundtrip circuit)

let test_unsupported_export () =
  let circuit = Circuit.of_gates ~qubits:1 [ Gate.sy 0 ] in
  check_bool "sy has no spelling" true
    (try
       ignore (Qasm.to_string circuit);
       false
     with Qasm.Unsupported _ -> true)

let test_unsupported_many_controls () =
  let circuit = Circuit.of_gates ~qubits:4 [ Gate.mcz [ 0; 1; 2 ] 3 ] in
  check_bool "3-controlled z rejected" true
    (try
       ignore (Qasm.to_string circuit);
       false
     with Qasm.Unsupported _ -> true)

let test_parse_expressions () =
  let source =
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\n\
     rz(pi/2) q[0];\nrz(-pi/4) q[0];\nrz(2*pi/8) q[0];\nrz(0.5e-1) q[0];\n"
  in
  let circuit = Qasm.of_string source in
  let angles =
    List.filter_map
      (fun (g : Gate.t) ->
        match g.kind with
        | Gate.Rz theta -> Some theta
        | Gate.X | Gate.Y | Gate.Z | Gate.H | Gate.S | Gate.Sdg | Gate.T
        | Gate.Tdg | Gate.Sx | Gate.Sxdg | Gate.Sy | Gate.Sydg | Gate.Rx _
        | Gate.Ry _ | Gate.Phase _ | Gate.Custom _ ->
          None)
      (Circuit.flatten circuit)
  in
  match angles with
  | [ a; b; c; d ] ->
    check_float "pi/2" (Float.pi /. 2.) a;
    check_float "-pi/4" (-.Float.pi /. 4.) b;
    check_float "2*pi/8" (Float.pi /. 4.) c;
    check_float "0.5e-1" 0.05 d
  | _ -> Alcotest.fail "expected four rz gates"

let test_parse_swap_and_comments () =
  let source =
    "// a comment\nOPENQASM 2.0;\nqreg q[2];\nx q[0];\nswap q[0],q[1]; // swap\n"
  in
  let circuit = Qasm.of_string source in
  let engine = Dd_sim.Engine.create 2 in
  Dd_sim.Engine.run engine circuit;
  check_cnum "swap moved the excitation" Dd_complex.Cnum.one
    (Dd_sim.Engine.amplitude engine 2)

let test_parse_ignores_measure_and_creg () =
  let source =
    "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[0];\n\
     barrier q[0],q[1];\n"
  in
  check_int "only the h survives" 1 (Circuit.gate_count (Qasm.of_string source))

let test_parse_error_reports_line () =
  let source = "OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];\n" in
  check_bool "unknown gate raises with position" true
    (try
       ignore (Qasm.of_string source);
       false
     with Qasm.Parse_error { line = _; message } ->
       String.length message > 0)

let test_parse_requires_qreg () =
  check_bool "no qreg is an error" true
    (try
       ignore (Qasm.of_string "OPENQASM 2.0;\n");
       false
     with Qasm.Parse_error _ -> true)

let suite =
  [
    Alcotest.test_case "export_header" `Quick test_export_header;
    Alcotest.test_case "roundtrip_bell" `Quick test_roundtrip_bell;
    Alcotest.test_case "roundtrip_parameterised" `Quick
      test_roundtrip_parameterised;
    Alcotest.test_case "roundtrip_controlled" `Quick
      test_roundtrip_controlled;
    Alcotest.test_case "negative_control_lowering" `Quick
      test_negative_control_lowering;
    Alcotest.test_case "unsupported_export" `Quick test_unsupported_export;
    Alcotest.test_case "unsupported_many_controls" `Quick
      test_unsupported_many_controls;
    Alcotest.test_case "parse_expressions" `Quick test_parse_expressions;
    Alcotest.test_case "parse_swap" `Quick test_parse_swap_and_comments;
    Alcotest.test_case "parse_ignores_measure" `Quick
      test_parse_ignores_measure_and_creg;
    Alcotest.test_case "parse_error_line" `Quick test_parse_error_reports_line;
    Alcotest.test_case "parse_requires_qreg" `Quick test_parse_requires_qreg;
  ]

(* extended gate-set coverage appended; suite re-exported *)

let test_parse_u3_and_u2 () =
  let source =
    "OPENQASM 2.0;\nqreg q[1];\nu3(pi/2,0,pi) q[0];\n"
  in
  (* u3(pi/2, 0, pi) = H up to global phase *)
  let circuit = Qasm.of_string source in
  let reference = Circuit.of_gates ~qubits:1 [ Gate.h 0 ] in
  check_bool "u3(pi/2,0,pi) is H" true
    (Dd_sim.Equivalence.equivalent circuit reference);
  let u2 = Qasm.of_string "OPENQASM 2.0;\nqreg q[1];\nu2(0,pi) q[0];\n" in
  check_bool "u2(0,pi) is H" true
    (Dd_sim.Equivalence.equivalent u2 reference)

let test_parse_crx_cry () =
  let source =
    "OPENQASM 2.0;\nqreg q[2];\ncrx(0.7) q[0],q[1];\ncry(-0.3) q[1],q[0];\n"
  in
  let circuit = Qasm.of_string source in
  let reference =
    Circuit.of_gates ~qubits:2
      [
        Gate.make ~controls:[ Gate.ctrl 0 ] (Gate.Rx 0.7) 1;
        Gate.make ~controls:[ Gate.ctrl 1 ] (Gate.Ry (-0.3)) 0;
      ]
  in
  check_cnum_array "controlled rotations"
    (dense_state_of_circuit reference)
    (dense_state_of_circuit circuit)

let test_parse_rzz () =
  let source = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nh q[1];\nrzz(0.9) q[0],q[1];\n" in
  let circuit = Qasm.of_string source in
  let reference =
    Circuit.of_gates ~qubits:2
      [ Gate.h 0; Gate.h 1; Gate.cx 0 1; Gate.rz 0.9 1; Gate.cx 0 1 ]
  in
  check_cnum_array "rzz decomposition"
    (dense_state_of_circuit reference)
    (dense_state_of_circuit circuit)

let test_parse_cswap () =
  let source = "OPENQASM 2.0;\nqreg q[3];\nx q[0];\nx q[1];\ncswap q[0],q[1],q[2];\n" in
  let circuit = Qasm.of_string source in
  let engine = Dd_sim.Engine.create 3 in
  Dd_sim.Engine.run engine circuit;
  (* control q0=1: q1 and q2 swap: |011> -> |101> = index 5 *)
  check_cnum "fredkin fired" Dd_complex.Cnum.one
    (Dd_sim.Engine.amplitude engine 5)

let test_parse_bad_arity () =
  check_bool "u3 with two params rejected" true
    (try
       ignore (Qasm.of_string "OPENQASM 2.0;\nqreg q[1];\nu3(1,2) q[0];\n");
       false
     with Qasm.Parse_error _ -> true)

(* malformed-input coverage: errors must carry the offending line and a
   message naming what went wrong, and bad qubit indices must be caught at
   parse time rather than corrupting the simulation *)

let parse_error_of source =
  match Qasm.of_string source with
  | (_ : Circuit.t) -> Alcotest.fail "malformed source was accepted"
  | exception Qasm.Parse_error { line; message } -> (line, message)

let test_parse_truncated_file () =
  let line, message = parse_error_of "OPENQASM 2.0;\nqreg q[2];\nh q[" in
  check_int "truncated file located at its last line" 3 line;
  check_bool "message mentions end of input" true
    (contains_sub message "end of input")

let test_parse_unknown_gate () =
  let line, message =
    parse_error_of "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nfrob q[0];\n"
  in
  check_int "unknown gate located" 4 line;
  check_bool "message names the gate" true
    (contains_sub message "unsupported gate: frob")

let test_parse_qubit_index_out_of_range () =
  let line, message =
    parse_error_of "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[5];\n"
  in
  check_int "bad index located" 3 line;
  check_bool "message names the index and register size" true
    (contains_sub message "qubit index 5 out of range"
    && contains_sub message "has 2 qubits")

let test_parse_fractional_qubit_index () =
  let _, message = parse_error_of "OPENQASM 2.0;\nqreg q[2];\nh q[0.5];\n" in
  check_bool "fractional index rejected" true
    (contains_sub message "not an integer")

let test_parse_bad_register_size () =
  let _, message = parse_error_of "OPENQASM 2.0;\nqreg q[0];\nh q[0];\n" in
  check_bool "degenerate register size rejected" true
    (contains_sub message "not a positive integer")

let test_parse_error_names_token () =
  (* expect-failures report the token actually found *)
  let _, message = parse_error_of "OPENQASM 2.0;\nqreg q[2];\nh q 0];\n" in
  check_bool "message shows the offending token" true
    (contains_sub message "got")

(* an overflowing or NaN angle would turn the gate's entries into NaN and
   silently zero the state; it is a located parse error instead *)
let test_parse_non_finite_parameter () =
  List.iter
    (fun statement ->
      let line, message =
        parse_error_of ("OPENQASM 2.0;\nqreg q[2];\nh q[0];\n" ^ statement)
      in
      check_int (statement ^ " located") 4 line;
      check_bool (statement ^ " message") true
        (contains_sub message "non-finite parameter"))
    [
      "rx(1e400) q[1];\n";
      "rz(-1e400) q[0];\n";
      "p(1e400/1e400) q[0];\n";
      "u3(0,1e308*10,0) q[1];\n";
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "parse_u3_u2" `Quick test_parse_u3_and_u2;
      Alcotest.test_case "parse_crx_cry" `Quick test_parse_crx_cry;
      Alcotest.test_case "parse_rzz" `Quick test_parse_rzz;
      Alcotest.test_case "parse_cswap" `Quick test_parse_cswap;
      Alcotest.test_case "parse_bad_arity" `Quick test_parse_bad_arity;
      Alcotest.test_case "parse_truncated_file" `Quick
        test_parse_truncated_file;
      Alcotest.test_case "parse_unknown_gate" `Quick test_parse_unknown_gate;
      Alcotest.test_case "parse_index_out_of_range" `Quick
        test_parse_qubit_index_out_of_range;
      Alcotest.test_case "parse_fractional_index" `Quick
        test_parse_fractional_qubit_index;
      Alcotest.test_case "parse_bad_register_size" `Quick
        test_parse_bad_register_size;
      Alcotest.test_case "parse_error_names_token" `Quick
        test_parse_error_names_token;
      Alcotest.test_case "parse_non_finite_parameter" `Quick
        test_parse_non_finite_parameter;
    ]

(* -- fuzz: mutated programs may only fail with a located Parse_error ----- *)

(* A base program touching every statement form the parser knows: version
   header, include, registers, plain/controlled/parameterised gates,
   expressions, measure with arrow, comments. *)
let fuzz_base =
  "OPENQASM 2.0;\n\
   include \"qelib1.inc\";\n\
   // a comment line\n\
   qreg q[4];\n\
   creg c[4];\n\
   h q[0];\n\
   cx q[0],q[1];\n\
   u3(pi/2,0.1,-0.2) q[2];\n\
   crx(0.5) q[1],q[3];\n\
   rzz(pi/4) q[2],q[3];\n\
   ccx q[0],q[1],q[2];\n\
   swap q[1],q[3];\n\
   barrier q;\n\
   measure q -> c;\n"

let mutate_once source op a b =
  let n = String.length source in
  if n = 0 then source
  else
    let a = a mod n and b = b mod n in
    match op mod 5 with
    | 0 ->
      (* delete one character *)
      String.sub source 0 a ^ String.sub source (a + 1) (n - a - 1)
    | 1 ->
      (* insert one printable character *)
      String.sub source 0 a
      ^ String.make 1 (Char.chr (32 + (b mod 95)))
      ^ String.sub source a (n - a)
    | 2 ->
      (* swap two characters *)
      let bytes = Bytes.of_string source in
      let tmp = Bytes.get bytes a in
      Bytes.set bytes a (Bytes.get bytes b);
      Bytes.set bytes b tmp;
      Bytes.to_string bytes
    | 3 -> (* truncate *) String.sub source 0 a
    | _ ->
      (* splice a slice of the program over another position *)
      let lo = min a b and hi = max a b in
      String.sub source 0 lo
      ^ String.sub source lo (hi - lo)
      ^ String.sub source lo (n - lo)

let mutation_arb =
  (* up to three stacked mutations, each (op, position, position) *)
  QCheck.make
    ~print:(fun muts ->
      String.concat "; "
        (List.map
           (fun (op, a, b) -> Printf.sprintf "(%d,%d,%d)" op a b)
           muts))
    QCheck.Gen.(
      list_size (1 -- 3)
        (triple (0 -- 4) (0 -- 1000) (0 -- 1000)))

let prop_mutations_fail_located =
  QCheck.Test.make
    ~name:"mutated QASM: parses, or raises a located Parse_error" ~count:800
    mutation_arb
    (fun muts ->
      let source =
        List.fold_left
          (fun s (op, a, b) -> mutate_once s op a b)
          fuzz_base muts
      in
      match Qasm.of_string source with
      | _ -> true
      | exception Qasm.Parse_error { line; message } ->
        line >= 1 && String.length message > 0)

let test_duplicate_qubit_is_parse_error () =
  (* the concrete corruption the fuzzer is most likely to hit: an index
     mutated into a collision must not leak Invalid_argument from the
     circuit layer *)
  let _, message =
    parse_error_of "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];\n"
  in
  check_bool "duplicate argument named" true
    (contains_sub message "duplicate qubit argument")

let suite =
  suite
  @ [
      Alcotest.test_case "parse_duplicate_qubit" `Quick
        test_duplicate_qubit_is_parse_error;
      QCheck_alcotest.to_alcotest prop_mutations_fail_located;
    ]
