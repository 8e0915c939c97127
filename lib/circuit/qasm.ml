exception Unsupported of string
exception Parse_error of { line : int; message : string }

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let base_spelling (kind : Gate.kind) =
  match kind with
  | Gate.X -> ("x", [])
  | Gate.Y -> ("y", [])
  | Gate.Z -> ("z", [])
  | Gate.H -> ("h", [])
  | Gate.S -> ("s", [])
  | Gate.Sdg -> ("sdg", [])
  | Gate.T -> ("t", [])
  | Gate.Tdg -> ("tdg", [])
  | Gate.Sx -> ("sx", [])
  | Gate.Sxdg -> ("sxdg", [])
  | Gate.Sy -> raise (Unsupported "sy has no OpenQASM 2.0 spelling")
  | Gate.Sydg -> raise (Unsupported "sydg has no OpenQASM 2.0 spelling")
  | Gate.Rx theta -> ("rx", [ theta ])
  | Gate.Ry theta -> ("ry", [ theta ])
  | Gate.Rz theta -> ("rz", [ theta ])
  | Gate.Phase theta -> ("p", [ theta ])
  | Gate.Custom { label; matrix = _ } ->
    raise (Unsupported ("custom gate " ^ label))

let controlled_spelling (kind : Gate.kind) n_controls =
  match (kind, n_controls) with
  | Gate.X, 1 -> Some "cx"
  | Gate.Y, 1 -> Some "cy"
  | Gate.Z, 1 -> Some "cz"
  | Gate.H, 1 -> Some "ch"
  | Gate.Rz _, 1 -> Some "crz"
  | Gate.Phase _, 1 -> Some "cp"
  | Gate.X, 2 -> Some "ccx"
  | _, _ -> None

let params_string = function
  | [] -> ""
  | ps ->
    "("
    ^ String.concat "," (List.map (fun p -> Printf.sprintf "%.12g" p) ps)
    ^ ")"

let emit_gate buf (gate : Gate.t) =
  let q i = Printf.sprintf "q[%d]" i in
  let negatives =
    List.filter_map
      (fun (c : Gate.control) -> if c.positive then None else Some c.qubit)
      gate.controls
  in
  List.iter (fun i -> Buffer.add_string buf ("x " ^ q i ^ ";\n")) negatives;
  let control_qubits = List.map (fun (c : Gate.control) -> c.qubit) gate.controls in
  let base, params = base_spelling gate.kind in
  let line =
    match control_qubits with
    | [] -> Printf.sprintf "%s%s %s;" base (params_string params) (q gate.target)
    | _ -> (
      match controlled_spelling gate.kind (List.length control_qubits) with
      | Some spelled ->
        Printf.sprintf "%s%s %s;" spelled (params_string params)
          (String.concat ","
             (List.map q control_qubits @ [ q gate.target ]))
      | None ->
        raise
          (Unsupported
             (Printf.sprintf "%s with %d controls" base
                (List.length control_qubits))))
  in
  Buffer.add_string buf line;
  Buffer.add_char buf '\n';
  List.iter (fun i -> Buffer.add_string buf ("x " ^ q i ^ ";\n")) negatives

let to_string circuit =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "OPENQASM 2.0;\n";
  Buffer.add_string buf "include \"qelib1.inc\";\n";
  Buffer.add_string buf
    (Printf.sprintf "qreg q[%d];\n" circuit.Circuit.qubits);
  List.iter (emit_gate buf) (Circuit.flatten circuit);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Import                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Ident of string
  | Number of float
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Comma
  | Semicolon
  | Plus
  | Minus
  | Star
  | Slash
  | Arrow
  | Str of string

let tokenize source =
  let tokens = ref [] in
  let line = ref 1 in
  let n = String.length source in
  let fail message = raise (Parse_error { line = !line; message }) in
  let i = ref 0 in
  let push t = tokens := (t, !line) :: !tokens in
  while !i < n do
    let c = source.[!i] in
    (match c with
    | '\n' ->
      incr line;
      incr i
    | ' ' | '\t' | '\r' -> incr i
    | '/' when !i + 1 < n && source.[!i + 1] = '/' ->
      while !i < n && source.[!i] <> '\n' do
        incr i
      done
    | '(' -> push Lparen; incr i
    | ')' -> push Rparen; incr i
    | '[' -> push Lbracket; incr i
    | ']' -> push Rbracket; incr i
    | ',' -> push Comma; incr i
    | ';' -> push Semicolon; incr i
    | '+' -> push Plus; incr i
    | '*' -> push Star; incr i
    | '/' -> push Slash; incr i
    | '-' ->
      if !i + 1 < n && source.[!i + 1] = '>' then begin
        push Arrow;
        i := !i + 2
      end
      else begin
        push Minus;
        incr i
      end
    | '"' ->
      let start = !i + 1 in
      let stop = ref start in
      while !stop < n && source.[!stop] <> '"' do
        incr stop
      done;
      if !stop >= n then fail "unterminated string";
      push (Str (String.sub source start (!stop - start)));
      i := !stop + 1
    | '0' .. '9' | '.' ->
      let start = !i in
      while
        !i < n
        && (match source.[!i] with
           | '0' .. '9' | '.' | 'e' | 'E' -> true
           | '+' | '-' ->
             !i > start
             && (source.[!i - 1] = 'e' || source.[!i - 1] = 'E')
           | _ -> false)
      do
        incr i
      done;
      let text = String.sub source start (!i - start) in
      (match float_of_string_opt text with
      | Some v -> push (Number v)
      | None -> fail ("bad number: " ^ text))
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      let start = !i in
      while
        !i < n
        && (match source.[!i] with
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
           | _ -> false)
      do
        incr i
      done;
      push (Ident (String.sub source start (!i - start)))
    | _ -> fail (Printf.sprintf "unexpected character %C" c));
  done;
  List.rev !tokens

let token_to_string = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Number v -> Printf.sprintf "number %g" v
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Lbracket -> "'['"
  | Rbracket -> "']'"
  | Comma -> "','"
  | Semicolon -> "';'"
  | Plus -> "'+'"
  | Minus -> "'-'"
  | Star -> "'*'"
  | Slash -> "'/'"
  | Arrow -> "'->'"
  | Str s -> Printf.sprintf "string %S" s

(* [last_line] remembers the line of the most recently consumed token, so
   an error at end of input (truncated file) is reported at the final line
   of the source rather than at a meaningless line 0. *)
type parser_state = {
  mutable tokens : (token * int) list;
  mutable last_line : int;
}

let peek state =
  match state.tokens with [] -> None | (t, _) :: _ -> Some t

let current_line state =
  match state.tokens with
  | [] -> state.last_line
  | (_, l) :: _ -> l

let fail state message =
  raise (Parse_error { line = current_line state; message })

let advance state =
  match state.tokens with
  | [] -> fail state "unexpected end of input"
  | (t, l) :: rest ->
    state.tokens <- rest;
    state.last_line <- l;
    t

let expect state token message =
  match state.tokens with
  | [] -> fail state (message ^ " (got end of input)")
  | _ ->
    let got = advance state in
    if got <> token then
      fail state (Printf.sprintf "%s (got %s)" message (token_to_string got))

(* expression := term (('+'|'-') term)*
   term := factor (('*'|'/') factor)*
   factor := number | pi | '-' factor | '(' expression ')' *)
let rec parse_expression state =
  let acc = ref (parse_term state) in
  let rec loop () =
    match peek state with
    | Some Plus ->
      ignore (advance state);
      acc := !acc +. parse_term state;
      loop ()
    | Some Minus ->
      ignore (advance state);
      acc := !acc -. parse_term state;
      loop ()
    | Some
        ( Ident _ | Number _ | Lparen | Rparen | Lbracket | Rbracket | Comma
        | Semicolon | Star | Slash | Arrow | Str _ )
    | None ->
      ()
  in
  loop ();
  !acc

and parse_term state =
  let acc = ref (parse_factor state) in
  let rec loop () =
    match peek state with
    | Some Star ->
      ignore (advance state);
      acc := !acc *. parse_factor state;
      loop ()
    | Some Slash ->
      ignore (advance state);
      acc := !acc /. parse_factor state;
      loop ()
    | Some
        ( Ident _ | Number _ | Lparen | Rparen | Lbracket | Rbracket | Comma
        | Semicolon | Plus | Minus | Arrow | Str _ )
    | None ->
      ()
  in
  loop ();
  !acc

and parse_factor state =
  match advance state with
  | Number v -> v
  | Ident "pi" -> Float.pi
  | Minus -> -.parse_factor state
  | Lparen ->
    let v = parse_expression state in
    expect state Rparen "expected )";
    v
  | Ident other -> fail state ("unknown identifier in expression: " ^ other)
  | Plus | Star | Slash | Rparen | Lbracket | Rbracket | Comma | Semicolon
  | Arrow | Str _ ->
    fail state "malformed expression"

let parse_qubit_ref state register ~size =
  match advance state with
  | Ident name when name = register ->
    expect state Lbracket "expected [";
    let index =
      match advance state with
      | Number v when Float.is_integer v -> int_of_float v
      | Number v ->
        fail state (Printf.sprintf "qubit index %g is not an integer" v)
      | other ->
        fail state ("expected qubit index, got " ^ token_to_string other)
    in
    expect state Rbracket "expected ]";
    if index < 0 || index >= size then
      fail state
        (Printf.sprintf
           "qubit index %d out of range (register %s has %d qubits)" index
           register size);
    index
  | Ident other -> fail state ("unknown register: " ^ other)
  | other ->
    fail state ("expected qubit reference, got " ^ token_to_string other)

let skip_statement state =
  let rec loop () =
    match advance state with
    | Semicolon -> ()
    | Ident _ | Number _ | Lparen | Rparen | Lbracket | Rbracket | Comma
    | Plus | Minus | Star | Slash | Arrow | Str _ ->
      loop ()
  in
  loop ()

(* OpenQASM u3(theta, phi, lambda) as an explicit 2x2 matrix *)
let u3_kind theta phi lambda =
  let open Dd_complex in
  let ct = cos (theta /. 2.) and st = sin (theta /. 2.) in
  Gate.Custom
    {
      matrix =
        [|
          Cnum.of_float ct;
          Cnum.of_polar (-.st) lambda;
          Cnum.of_polar st phi;
          Cnum.of_polar ct (phi +. lambda);
        |];
      label = Printf.sprintf "u3(%.6g,%.6g,%.6g)" theta phi lambda;
    }

let gate_of_spelling state spelling params qubits =
  let p i = List.nth params i in
  let q i = List.nth qubits i in
  let need np nq =
    if List.length params <> np || List.length qubits <> nq then
      fail state ("bad arity for " ^ spelling)
  in
  match spelling with
  | "x" -> need 0 1; [ Gate.x (q 0) ]
  | "y" -> need 0 1; [ Gate.y (q 0) ]
  | "z" -> need 0 1; [ Gate.z (q 0) ]
  | "h" -> need 0 1; [ Gate.h (q 0) ]
  | "s" -> need 0 1; [ Gate.s (q 0) ]
  | "sdg" -> need 0 1; [ Gate.sdg (q 0) ]
  | "t" -> need 0 1; [ Gate.t_gate (q 0) ]
  | "tdg" -> need 0 1; [ Gate.tdg (q 0) ]
  | "sx" -> need 0 1; [ Gate.sx (q 0) ]
  | "sxdg" -> need 0 1; [ Gate.make Gate.Sxdg (q 0) ]
  | "id" -> need 0 1; []
  | "rx" -> need 1 1; [ Gate.rx (p 0) (q 0) ]
  | "ry" -> need 1 1; [ Gate.ry (p 0) (q 0) ]
  | "rz" -> need 1 1; [ Gate.rz (p 0) (q 0) ]
  | "p" | "u1" -> need 1 1; [ Gate.phase (p 0) (q 0) ]
  | "cx" -> need 0 2; [ Gate.cx (q 0) (q 1) ]
  | "cy" -> need 0 2; [ Gate.make ~controls:[ Gate.ctrl (q 0) ] Gate.Y (q 1) ]
  | "cz" -> need 0 2; [ Gate.cz (q 0) (q 1) ]
  | "ch" -> need 0 2; [ Gate.make ~controls:[ Gate.ctrl (q 0) ] Gate.H (q 1) ]
  | "crz" ->
    need 1 2;
    [ Gate.make ~controls:[ Gate.ctrl (q 0) ] (Gate.Rz (p 0)) (q 1) ]
  | "cp" | "cu1" -> need 1 2; [ Gate.cphase (p 0) (q 0) (q 1) ]
  | "ccx" -> need 0 3; [ Gate.ccx (q 0) (q 1) (q 2) ]
  | "swap" -> need 0 2; [ Gate.cx (q 0) (q 1); Gate.cx (q 1) (q 0); Gate.cx (q 0) (q 1) ]
  | "cswap" ->
    need 0 3;
    [ Gate.cx (q 2) (q 1); Gate.ccx (q 0) (q 1) (q 2); Gate.cx (q 2) (q 1) ]
  | "crx" ->
    need 1 2;
    [ Gate.make ~controls:[ Gate.ctrl (q 0) ] (Gate.Rx (p 0)) (q 1) ]
  | "cry" ->
    need 1 2;
    [ Gate.make ~controls:[ Gate.ctrl (q 0) ] (Gate.Ry (p 0)) (q 1) ]
  | "rzz" ->
    need 1 2;
    [ Gate.cx (q 0) (q 1); Gate.rz (p 0) (q 1); Gate.cx (q 0) (q 1) ]
  | "u2" ->
    need 2 1;
    [ Gate.make (u3_kind (Float.pi /. 2.) (p 0) (p 1)) (q 0) ]
  | "u3" | "u" ->
    need 3 1;
    [ Gate.make (u3_kind (p 0) (p 1) (p 2)) (q 0) ]
  | other -> fail state ("unsupported gate: " ^ other)

let of_string ?(name = "qasm") source =
  let state = { tokens = tokenize source; last_line = 1 } in
  let register = ref None in
  let qubits = ref 0 in
  let gates = ref [] in
  let rec loop () =
    match peek state with
    | None -> ()
    | Some (Ident "OPENQASM") | Some (Ident "include") | Some (Ident "creg")
    | Some (Ident "barrier") | Some (Ident "measure") ->
      skip_statement state;
      loop ()
    | Some (Ident "qreg") ->
      ignore (advance state);
      (match advance state with
      | Ident reg_name ->
        if !register <> None then fail state "multiple qreg declarations";
        register := Some reg_name;
        expect state Lbracket "expected [";
        (match advance state with
        | Number v when Float.is_integer v && v >= 1. ->
          qubits := int_of_float v
        | Number v ->
          fail state
            (Printf.sprintf "register size %g is not a positive integer" v)
        | other ->
          fail state ("expected register size, got " ^ token_to_string other));
        expect state Rbracket "expected ]";
        expect state Semicolon "expected ;"
      | other ->
        fail state ("expected register name, got " ^ token_to_string other));
      loop ()
    | Some (Ident spelling) ->
      ignore (advance state);
      let reg =
        match !register with
        | Some r -> r
        | None -> fail state "gate before qreg declaration"
      in
      let params =
        match peek state with
        | Some Lparen ->
          ignore (advance state);
          let rec collect acc =
            let v = parse_expression state in
            if not (Float.is_finite v) then
              fail state
                (Printf.sprintf "non-finite parameter %g to %s" v spelling);
            match advance state with
            | Comma -> collect (v :: acc)
            | Rparen -> List.rev (v :: acc)
            | Ident _ | Number _ | Lparen | Lbracket | Rbracket | Semicolon
            | Plus | Minus | Star | Slash | Arrow | Str _ ->
              fail state "expected , or ) in parameter list"
          in
          collect []
        | Some
            ( Ident _ | Number _ | Rparen | Lbracket | Rbracket | Comma
            | Semicolon | Plus | Minus | Star | Slash | Arrow | Str _ )
        | None ->
          []
      in
      let rec collect_qubits acc =
        let q = parse_qubit_ref state reg ~size:!qubits in
        match advance state with
        | Comma -> collect_qubits (q :: acc)
        | Semicolon -> List.rev (q :: acc)
        | Ident _ | Number _ | Lparen | Rparen | Lbracket | Rbracket | Plus
        | Minus | Star | Slash | Arrow | Str _ ->
          fail state "expected , or ; after qubit"
      in
      let qs = collect_qubits [] in
      (* Circuit.of_gates rejects a gate touching the same wire twice with a
         bare Invalid_argument; report it here instead, with a line number *)
      let rec distinct = function
        | [] -> ()
        | q :: rest ->
          if List.mem q rest then
            fail state
              (Printf.sprintf "duplicate qubit argument %s[%d] to %s" reg q
                 spelling);
          distinct rest
      in
      distinct qs;
      gates := List.rev_append (gate_of_spelling state spelling params qs) !gates;
      loop ()
    | Some
        ( Number _ | Lparen | Rparen | Lbracket | Rbracket | Comma | Semicolon
        | Plus | Minus | Star | Slash | Arrow | Str _ ) ->
      fail state "expected statement"
  in
  loop ();
  if !qubits <= 0 then fail state "no qreg declaration";
  Circuit.of_gates ~name ~qubits:!qubits (List.rev !gates)
