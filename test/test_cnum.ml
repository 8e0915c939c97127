open Dd_complex
open Util

let test_add () =
  check_cnum "1 + i" (Cnum.make 1. 1.)
    (Cnum.add Cnum.one (Cnum.make 0. 1.))

let test_sub () =
  check_cnum "(3+2i) - (1+5i)" (Cnum.make 2. (-3.))
    (Cnum.sub (Cnum.make 3. 2.) (Cnum.make 1. 5.))

let test_mul () =
  check_cnum "(1+i)(1-i) = 2" (Cnum.make 2. 0.)
    (Cnum.mul (Cnum.make 1. 1.) (Cnum.make 1. (-1.)));
  check_cnum "i*i = -1" (Cnum.make (-1.) 0.)
    (Cnum.mul (Cnum.make 0. 1.) (Cnum.make 0. 1.))

let test_div () =
  let a = Cnum.make 3. 7. and b = Cnum.make (-2.) 0.5 in
  check_cnum "a/b*b = a" a (Cnum.mul (Cnum.div a b) b)

let test_div_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Cnum.div Cnum.one Cnum.zero))

let test_conj () =
  check_cnum "conj" (Cnum.make 2. (-3.)) (Cnum.conj (Cnum.make 2. 3.))

let test_neg () =
  check_cnum "neg" (Cnum.make (-2.) 3.) (Cnum.neg (Cnum.make 2. (-3.)))

let test_scale () =
  check_cnum "scale" (Cnum.make 3. (-1.5)) (Cnum.scale 1.5 (Cnum.make 2. (-1.)))

let test_mag () =
  check_float "mag2 of 3+4i" 25. (Cnum.mag2 (Cnum.make 3. 4.));
  check_float "mag of 3+4i" 5. (Cnum.mag (Cnum.make 3. 4.))

let test_polar () =
  check_cnum "polar pi/2" (Cnum.make 0. 1.) (Cnum.of_polar 1. (Float.pi /. 2.));
  check_cnum "polar pi" (Cnum.make (-1.) 0.) (Cnum.of_polar 1. Float.pi)

let test_approx () =
  check_bool "approx zero" true (Cnum.approx_zero (Cnum.make 1e-15 (-1e-14)));
  check_bool "not approx zero" false (Cnum.approx_zero (Cnum.make 1e-3 0.));
  check_bool "approx equal" true
    (Cnum.approx_equal (Cnum.make 1. 1.) (Cnum.make (1. +. 1e-14) 1.))

let test_exact_flags () =
  check_bool "exact zero" true (Cnum.is_exact_zero Cnum.zero);
  check_bool "exact one" true (Cnum.is_exact_one Cnum.one);
  check_bool "tiny is not exact zero" false
    (Cnum.is_exact_zero (Cnum.make 1e-30 0.))

let test_compare_mag () =
  check_bool "larger magnitude wins" true
    (Cnum.compare_mag (Cnum.make 2. 0.) (Cnum.make 1. 1.) > 0);
  check_bool "ties broken by re" true
    (Cnum.compare_mag (Cnum.make 0. 1.) (Cnum.make 1. 0.) < 0)

let test_intern_constants () =
  let table = Ctable.create () in
  let z = Ctable.intern table (Cnum.make 0. 0.) in
  check_bool "interned zero is the exact constant" true (z == Cnum.zero);
  let o = Ctable.intern table (Cnum.make 1. 0.) in
  check_bool "interned one is the exact constant" true (o == Cnum.one)

let test_intern_snaps_noise () =
  let table = Ctable.create () in
  let z = Ctable.intern table (Cnum.make 1e-13 (-1e-13)) in
  check_bool "FP noise snaps to exact zero" true (Cnum.is_exact_zero z);
  let o = Ctable.intern table (Cnum.make (1. -. 1e-12) 1e-13) in
  check_bool "near-one snaps to exact one" true (Cnum.is_exact_one o)

let test_intern_shares () =
  let table = Ctable.create () in
  let a = Ctable.intern table (Cnum.make 0.25 0.75) in
  let b = Ctable.intern table (Cnum.make (0.25 +. 1e-12) 0.75) in
  check_bool "nearby values share one representative" true (a == b);
  check_int "same tag" (Cnum.tag a) (Cnum.tag b)

let test_intern_distinct () =
  let table = Ctable.create () in
  let a = Ctable.intern table (Cnum.make 0.25 0.) in
  let b = Ctable.intern table (Cnum.make 0.5 0.) in
  check_bool "distinct values get distinct tags" true
    (Cnum.tag a <> Cnum.tag b)

let test_intern_idempotent () =
  let table = Ctable.create () in
  let a = Ctable.intern table (Cnum.make 0.3 0.4) in
  let b = Ctable.intern table a in
  check_bool "interning a canonical value is the identity" true (a == b)

let test_table_size () =
  let table = Ctable.create () in
  let initial = Ctable.size table in
  ignore (Ctable.intern table (Cnum.make 0.123 0.));
  ignore (Ctable.intern table (Cnum.make 0.123 0.));
  check_int "size grows once per distinct value" (initial + 1)
    (Ctable.size table)

let test_bucket_boundary () =
  (* values straddling a bucket boundary but within tolerance must merge *)
  let table = Ctable.create ~tolerance:1e-6 () in
  let a = Ctable.intern table (Cnum.make (1.5e-6 +. 4.9e-7) 0.) in
  let b = Ctable.intern table (Cnum.make (1.5e-6 -. 4.9e-7) 0.) in
  check_bool "boundary straddlers merge" true (a == b)

(* -- the table against a reference model --------------------------------

   The model is the table's original implementation: a [Hashtbl] from bucket
   key to a newest-first list, nine neighbour probes in a fixed order.  The
   flat table must pick the same representative (hence the same tag) for
   every value, because that choice reaches node counts through the tags. *)

module Model = struct
  type t = {
    tolerance : float;
    buckets : (int * int, Cnum.t list) Hashtbl.t;
    mutable next_tag : int;
  }

  let bucket_key table z =
    let scale x = int_of_float (floor ((x /. table.tolerance) +. 0.5)) in
    (scale (Cnum.re z), scale (Cnum.im z))

  let add_entry table z =
    let key = bucket_key table z in
    let entries = try Hashtbl.find table.buckets key with Not_found -> [] in
    Hashtbl.replace table.buckets key (z :: entries)

  let create tolerance =
    let table = { tolerance; buckets = Hashtbl.create 16; next_tag = 2 } in
    add_entry table Cnum.zero;
    add_entry table Cnum.one;
    table

  let find_existing table z =
    let bre, bim = bucket_key table z in
    List.find_map
      (fun (di, dj) ->
        let entries =
          try Hashtbl.find table.buckets (bre + di, bim + dj)
          with Not_found -> []
        in
        List.find_opt (Cnum.approx_equal ~tol:table.tolerance z) entries)
      [ (0, 0); (-1, 0); (1, 0); (0, -1); (0, 1);
        (-1, -1); (-1, 1); (1, -1); (1, 1) ]

  let intern table z =
    match find_existing table z with
    | Some canonical -> canonical
    | None ->
      let canonical = Cnum.with_tag z table.next_tag in
      table.next_tag <- table.next_tag + 1;
      add_entry table canonical;
      canonical
end

(* One coordinate, in units of the tolerance: near 0 and +-1, on either side
   of a bucket edge ((k + 1/2) tol), or spread over a few thousand buckets of
   both signs with a jitter of a few tolerances, so clusters form. *)
let coordinate_gen tol =
  let open QCheck.Gen in
  oneof
    [
      map2
        (fun base j -> base +. (j *. tol))
        (oneofl [ 0.; 1.; -1. ])
        (float_range (-3.) 3.);
      map2
        (fun k e -> (float_of_int k +. 0.5 +. e) *. tol)
        (int_range (-40) 40)
        (oneofl [ -0.49; -1e-3; -1e-9; 0.; 1e-9; 1e-3; 0.49 ]);
      map2
        (fun k j -> (float_of_int k +. j) *. tol)
        (int_range (-1500) 1500)
        (float_range (-2.) 2.);
    ]

let stream_arb =
  let open QCheck.Gen in
  let gen =
    oneofl [ 1e-12; 1e-3 ] >>= fun tol ->
    let coord = coordinate_gen tol in
    list_size (return 6000) (pair coord coord) >>= fun values ->
    return (tol, values)
  in
  QCheck.make
    ~print:(fun (tol, values) ->
      Printf.sprintf "tol %g, %d values" tol (List.length values))
    gen

let prop_table_matches_model =
  QCheck.Test.make ~name:"intern returns the reference model's tag"
    ~count:12 stream_arb (fun (tolerance, values) ->
      let table = Ctable.create ~tolerance ()
      and model = Model.create tolerance in
      let agree =
        List.for_all
          (fun (re, im) ->
            let z = Cnum.make re im in
            Cnum.tag (Ctable.intern table z) = Cnum.tag (Model.intern model z))
          values
      in
      (* a few thousand entries: several index doublings and many chunks *)
      agree
      && Ctable.size table = model.Model.next_tag
      && Ctable.size table > 2048)

let test_intern_allocates_nothing () =
  let table = Ctable.create () in
  for k = 1 to 5000 do
    ignore (Ctable.intern table (Cnum.make (float_of_int k *. 1e-9) 0.5))
  done;
  let tagged = Ctable.intern table (Cnum.make 0.3 0.4) in
  (* hits in its own bucket, and one found only by a neighbour probe *)
  let near = Cnum.make (0.3 +. 1e-13) 0.4 in
  let edge = Cnum.make 0.3 (0.4 -. 9e-13) in
  check_bool "untagged values hit the entry" true
    (Ctable.intern table near == tagged && Ctable.intern table edge == tagged);
  let measure f =
    let before = Gc.minor_words () in
    for _ = 1 to 100_000 do
      ignore (Sys.opaque_identity (f ()))
    done;
    Gc.minor_words () -. before
  in
  check_float "interning a tagged value allocates nothing" 0.
    (measure (fun () -> Ctable.intern table tagged));
  check_float "an own-bucket hit allocates nothing" 0.
    (measure (fun () -> Ctable.intern table near));
  check_float "a neighbour-bucket hit allocates nothing" 0.
    (measure (fun () -> Ctable.intern table edge))

(* Context's residency gauge charges [cnum_entry_words] per canonical
   weight; it must track what a large table really holds. *)
let test_residency_estimate () =
  let table = Ctable.create () in
  for k = 1 to 120_000 do
    ignore (Ctable.intern table (Cnum.make (float_of_int k *. 1e-7) 0.25))
  done;
  let estimate =
    float_of_int (Ctable.size table * Dd.Context.cnum_entry_words)
  in
  let actual = float_of_int (Obj.reachable_words (Obj.repr table)) in
  check_bool
    (Printf.sprintf "estimate %.0f words vs %.0f reachable" estimate actual)
    true
    (abs_float (estimate -. actual) <= 0.25 *. actual)

let suite =
  [
    Alcotest.test_case "add" `Quick test_add;
    Alcotest.test_case "sub" `Quick test_sub;
    Alcotest.test_case "mul" `Quick test_mul;
    Alcotest.test_case "div" `Quick test_div;
    Alcotest.test_case "div_by_zero" `Quick test_div_by_zero;
    Alcotest.test_case "conj" `Quick test_conj;
    Alcotest.test_case "neg" `Quick test_neg;
    Alcotest.test_case "scale" `Quick test_scale;
    Alcotest.test_case "mag" `Quick test_mag;
    Alcotest.test_case "polar" `Quick test_polar;
    Alcotest.test_case "approx" `Quick test_approx;
    Alcotest.test_case "exact_flags" `Quick test_exact_flags;
    Alcotest.test_case "compare_mag" `Quick test_compare_mag;
    Alcotest.test_case "intern_constants" `Quick test_intern_constants;
    Alcotest.test_case "intern_snaps_noise" `Quick test_intern_snaps_noise;
    Alcotest.test_case "intern_shares" `Quick test_intern_shares;
    Alcotest.test_case "intern_distinct" `Quick test_intern_distinct;
    Alcotest.test_case "intern_idempotent" `Quick test_intern_idempotent;
    Alcotest.test_case "table_size" `Quick test_table_size;
    Alcotest.test_case "bucket_boundary" `Quick test_bucket_boundary;
    QCheck_alcotest.to_alcotest prop_table_matches_model;
    Alcotest.test_case "intern_allocates_nothing" `Quick
      test_intern_allocates_nothing;
    Alcotest.test_case "residency_estimate" `Quick test_residency_estimate;
  ]
