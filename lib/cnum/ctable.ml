type t = {
  tolerance : float;
  buckets : (int * int, Cnum.t list) Hashtbl.t;
  mutable next_tag : int;
}

let zero_tag = 0
let one_tag = 1

let bucket_key table z =
  let scale x = int_of_float (floor ((x /. table.tolerance) +. 0.5)) in
  (scale (Cnum.re z), scale (Cnum.im z))

let add_entry table key z =
  let entries = try Hashtbl.find table.buckets key with Not_found -> [] in
  Hashtbl.replace table.buckets key (z :: entries)

let create ?(tolerance = 1e-12) () =
  let table = { tolerance; buckets = Hashtbl.create 4096; next_tag = 2 } in
  add_entry table (bucket_key table Cnum.zero) Cnum.zero;
  add_entry table (bucket_key table Cnum.one) Cnum.one;
  table

let tolerance table = table.tolerance

(* A value within [tolerance] of the query may live in a bucket adjacent to
   the query's own bucket, so all nine neighbours are scanned. *)
let find_existing table z =
  let bre, bim = bucket_key table z in
  let rec scan = function
    | [] -> None
    | candidate :: rest ->
      if Cnum.approx_equal ~tol:table.tolerance candidate z then Some candidate
      else scan rest
  in
  let rec loop deltas =
    match deltas with
    | [] -> None
    | (di, dj) :: rest -> (
      let entries =
        try Hashtbl.find table.buckets (bre + di, bim + dj)
        with Not_found -> []
      in
      match scan entries with Some c -> Some c | None -> loop rest)
  in
  loop
    [ (0, 0); (-1, 0); (1, 0); (0, -1); (0, 1);
      (-1, -1); (-1, 1); (1, -1); (1, 1) ]

let intern table z =
  if Cnum.tag z >= 0 then z
  else
    match find_existing table z with
    | Some canonical -> canonical
    | None ->
      let tag = table.next_tag in
      table.next_tag <- tag + 1;
      let canonical = Cnum.with_tag z tag in
      add_entry table (bucket_key table canonical) canonical;
      canonical

let size table = table.next_tag
