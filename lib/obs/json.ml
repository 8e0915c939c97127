type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- parsing: plain recursive descent over a cursor ---- *)

type cursor = { text : string; mutable pos : int }

let fail c message =
  failwith (Printf.sprintf "JSON parse error at offset %d: %s" c.pos message)

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let continue = ref true in
  while !continue do
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> advance c
    | _ -> continue := false
  done

let expect c ch =
  match peek c with
  | Some got when got = ch -> advance c
  | Some got -> fail c (Printf.sprintf "expected %c, got %c" ch got)
  | None -> fail c (Printf.sprintf "expected %c, got end of input" ch)

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.text
    && String.sub c.text c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

(* \uXXXX escapes are decoded to UTF-8; surrogate pairs are not needed for
   anything this repository writes and decode as two replacement chars *)
let utf8_of_code buffer code =
  if code < 0x80 then Buffer.add_char buffer (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buffer (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buffer (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let buffer = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some '"' -> Buffer.add_char buffer '"'; advance c
      | Some '\\' -> Buffer.add_char buffer '\\'; advance c
      | Some '/' -> Buffer.add_char buffer '/'; advance c
      | Some 'b' -> Buffer.add_char buffer '\b'; advance c
      | Some 'f' -> Buffer.add_char buffer '\012'; advance c
      | Some 'n' -> Buffer.add_char buffer '\n'; advance c
      | Some 'r' -> Buffer.add_char buffer '\r'; advance c
      | Some 't' -> Buffer.add_char buffer '\t'; advance c
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.text then fail c "truncated \\u escape";
        let hex = String.sub c.text c.pos 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | Some code -> utf8_of_code buffer code
        | None -> fail c "malformed \\u escape");
        c.pos <- c.pos + 4
      | _ -> fail c "unknown escape");
      loop ()
    | Some ch ->
      Buffer.add_char buffer ch;
      advance c;
      loop ()
  in
  loop ();
  Buffer.contents buffer

let parse_number c =
  let start = c.pos in
  let continue = ref true in
  while !continue do
    match peek c with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> advance c
    | _ -> continue := false
  done;
  let raw = String.sub c.text start (c.pos - start) in
  match float_of_string_opt raw with
  | Some v -> v
  | None -> fail c (Printf.sprintf "malformed number %S" raw)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec loop () =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let value = parse_value c in
        fields := (key, value) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' -> advance c; loop ()
        | Some '}' -> advance c
        | _ -> fail c "expected , or } in object"
      in
      loop ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let items = ref [] in
      let rec loop () =
        let value = parse_value c in
        items := value :: !items;
        skip_ws c;
        match peek c with
        | Some ',' -> advance c; loop ()
        | Some ']' -> advance c
        | _ -> fail c "expected , or ] in array"
      in
      loop ();
      Arr (List.rev !items)
    end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> Num (parse_number c)

let parse text =
  let c = { text; pos = 0 } in
  let value = parse_value c in
  skip_ws c;
  if c.pos <> String.length text then fail c "trailing garbage";
  value

let member json key =
  match json with Obj fields -> List.assoc_opt key fields | _ -> None

let to_str = function
  | Str s -> s
  | _ -> failwith "JSON: expected a string"

let to_list = function
  | Arr items -> items
  | _ -> failwith "JSON: expected an array"

let escape s =
  let buffer = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buffer ch)
    s;
  Buffer.contents buffer
