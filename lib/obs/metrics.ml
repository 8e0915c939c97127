type counter = { mutable count : int }
type gauge = { mutable reading : float }

type instrument = C of counter | G of gauge
type t = (string, instrument) Hashtbl.t

let create () : t = Hashtbl.create 64

let register (t : t) name make match_existing =
  match Hashtbl.find_opt t name with
  | None ->
    let fresh = make () in
    Hashtbl.add t name fresh;
    fresh
  | Some existing -> (
    match match_existing existing with
    | Some instrument -> instrument
    | None ->
      invalid_arg
        (Printf.sprintf
           "Metrics: %S is already registered as a different kind" name))

let counter t name =
  match
    register t name
      (fun () -> C { count = 0 })
      (function C _ as c -> Some c | _ -> None)
  with
  | C c -> c
  | _ -> assert false

let gauge t name =
  match
    register t name
      (fun () -> G { reading = 0. })
      (function G _ as g -> Some g | _ -> None)
  with
  | G g -> g
  | _ -> assert false

let add (c : counter) n = c.count <- c.count + n
let count (c : counter) = c.count
let set (g : gauge) v = g.reading <- v

let bucket_exponent v =
  if v <= 0. then -32
  else
    let _, e = Float.frexp v in
    if e < -32 then -32 else if e > 31 then 31 else e

type value = Count of int | Value of float

type snapshot = (string * value) list

let snapshot (t : t) : snapshot =
  Hashtbl.fold
    (fun name instrument acc ->
      let value =
        match instrument with
        | C c -> Count c.count
        | G g -> Value g.reading
      in
      (name, value) :: acc)
    t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let find (s : snapshot) name = List.assoc_opt name s

let to_json (s : snapshot) =
  let buffer = Buffer.create 1024 in
  Buffer.add_char buffer '{';
  List.iteri
    (fun i (name, value) ->
      if i > 0 then Buffer.add_char buffer ',';
      Buffer.add_string buffer (Printf.sprintf "\"%s\":" (Json.escape name));
      match value with
      | Count n -> Buffer.add_string buffer (string_of_int n)
      | Value v -> Buffer.add_string buffer (Printf.sprintf "%.9g" v))
    s;
  Buffer.add_char buffer '}';
  Buffer.contents buffer

let pp fmt (s : snapshot) =
  List.iter
    (fun (name, value) ->
      match value with
      | Count n -> Format.fprintf fmt "%-36s %d@\n" name n
      | Value v -> Format.fprintf fmt "%-36s %g@\n" name v)
    s
