(* Unit and property tests for the complex-object value substrate. *)

open Helpers
module Value = Cobj.Value

let test_set_dedup_sort () =
  let s = Value.set [ vi 3; vi 1; vi 3; vi 2; vi 1 ] in
  Alcotest.check value "sorted, dup-free" (Value.Set [ vi 1; vi 2; vi 3 ]) s

let test_set_nested_dedup () =
  let s = Value.set [ vset [ vi 1; vi 2 ]; vset [ vi 2; vi 1 ] ] in
  Alcotest.check Alcotest.int "inner sets compare equal" 1 (Value.set_card s)

let test_tuple_sorted () =
  let t = tup [ ("b", vi 2); ("a", vi 1) ] in
  match t with
  | Value.Tuple [ ("a", _); ("b", _) ] -> ()
  | _ -> Alcotest.fail "fields not sorted"

let test_tuple_duplicate_label () =
  Alcotest.check_raises "duplicate label rejected"
    (Invalid_argument "Value.tuple: duplicate label \"a\"") (fun () ->
      ignore (Value.tuple [ ("a", vi 1); ("a", vi 2) ]))

let test_numeric_cross_compare () =
  Alcotest.check Alcotest.bool "1 = 1.0 across Int/Float" true
    (Value.equal (vi 1) (Value.Float 1.0));
  Alcotest.check Alcotest.bool "1 < 1.5" true
    (Value.compare (vi 1) (Value.Float 1.5) < 0)

let test_field_access () =
  let t = tup [ ("a", vi 1); ("b", vs "x") ] in
  Alcotest.check value "field a" (vi 1) (Value.field "a" t);
  Alcotest.check_raises "missing field"
    (Value.Type_error "no field \"z\" in (a = 1, b = \"x\")") (fun () ->
      ignore (Value.field "z" t))

let test_set_ops () =
  let a = vset [ vi 1; vi 2; vi 3 ] and b = vset [ vi 2; vi 3; vi 4 ] in
  Alcotest.check value "union" (vset [ vi 1; vi 2; vi 3; vi 4 ])
    (Value.set_union a b);
  Alcotest.check value "inter" (vset [ vi 2; vi 3 ]) (Value.set_inter a b);
  Alcotest.check value "diff" (vset [ vi 1 ]) (Value.set_diff a b);
  Alcotest.check Alcotest.bool "mem" true (Value.set_mem (vi 2) a);
  Alcotest.check Alcotest.bool "not mem" false (Value.set_mem (vi 9) a);
  Alcotest.check Alcotest.bool "subseteq refl" true (Value.set_subseteq a a);
  Alcotest.check Alcotest.bool "subset irrefl" false (Value.set_subset a a);
  Alcotest.check Alcotest.bool "subset" true
    (Value.set_subset (vset [ vi 1 ]) a)

let test_empty_set_ops () =
  let e = vset [] and a = vset [ vi 1 ] in
  Alcotest.check Alcotest.bool "empty subseteq all" true
    (Value.set_subseteq e a);
  Alcotest.check value "union with empty" a (Value.set_union e a);
  Alcotest.check value "inter with empty" e (Value.set_inter e a);
  Alcotest.check Alcotest.bool "is_empty" true (Value.set_is_empty e)

let test_null_ordering () =
  Alcotest.check Alcotest.bool "Null smallest" true
    (Value.compare Value.Null (vi (-1000)) < 0);
  Alcotest.check Alcotest.bool "Null = Null" true
    (Value.equal Value.Null Value.Null)

(* --- properties --------------------------------------------------------- *)

let prop_compare_total =
  qcheck "compare is a total order (antisymmetric, transitive on triples)"
    QCheck2.Gen.(triple value_gen value_gen value_gen)
    (fun (a, b, c) ->
      let cab = Value.compare a b and cba = Value.compare b a in
      let anti = compare cab 0 = compare 0 cba in
      let trans =
        (* if a <= b <= c then a <= c *)
        not (Value.compare a b <= 0 && Value.compare b c <= 0)
        || Value.compare a c <= 0
      in
      anti && trans)

let prop_set_idempotent =
  qcheck "set construction is idempotent"
    QCheck2.Gen.(list_size (int_range 0 8) value_gen)
    (fun xs ->
      let s1 = Value.set xs in
      let s2 = Value.set (Value.elements s1) in
      Value.equal s1 s2)

let prop_hash_respects_equal =
  qcheck "equal values hash equally"
    QCheck2.Gen.(list_size (int_range 0 6) value_gen)
    (fun xs ->
      (* build the same set from two different orderings *)
      let s1 = Value.set xs and s2 = Value.set (List.rev xs) in
      Value.hash s1 = Value.hash s2)

let prop_union_commutes =
  qcheck "set union commutes, inter distributes"
    QCheck2.Gen.(pair (list_size (int_range 0 6) value_gen)
                   (list_size (int_range 0 6) value_gen))
    (fun (xs, ys) ->
      let a = Value.set xs and b = Value.set ys in
      Value.equal (Value.set_union a b) (Value.set_union b a)
      && Value.equal (Value.set_inter a b) (Value.set_inter b a))

(* --- rendering ------------------------------------------------------- *)

let test_render_golden () =
  let case expected v =
    Alcotest.(check string) expected expected (Value.to_string v)
  in
  case "null" Value.Null;
  case "{}" (vset []);
  case "[]" (Value.List []);
  case "()" (tup []);
  case "-7" (vi (-7));
  case "[true, false]" (Value.List [ Value.Bool true; Value.Bool false ]);
  case "1." (Value.Float 1.);
  case "-0." (Value.Float (-0.));
  case "nan" (Value.Float nan);
  case "infinity" (Value.Float infinity);
  case "1e+100" (Value.Float 1e100);
  case {|"say \"hi\""|} (vs {|say "hi"|});
  case {|"a\\b"|} (vs {|a\b|});
  case {|"l1\nl2"|} (vs "l1\nl2");
  case {|"caf\195\169"|} (vs "caf\xc3\xa9");
  case "(a = 1, b = {2, 3})" (tup [ ("b", vset [ vi 3; vi 2 ]); ("a", vi 1) ]);
  let point = tup [ ("x", vi (-1)); ("y", Value.Float 2.5) ] in
  case "circle!(r!((x = -1, y = 2.5)))"
    (Value.Variant ("circle", Value.Variant ("r", point)))

(* Sets of 20–40 tuples with float leaves: always wider than 78 columns,
   [Format]'s default margin, so any line breaking would show here. *)
let wide_value_gen =
  let open QCheck2.Gen in
  let float_leaf =
    map (fun i -> Value.Float (float_of_int i /. 4.)) (int_range (-400) 400)
  in
  let row =
    map3
      (fun k f v -> Value.tuple [ ("k", Value.Int k); ("f", f); ("v", v) ])
      (int_range (-50) 50) float_leaf (oneof [ value_gen; float_leaf ])
  in
  map Value.set (list_size (int_range 20 40) row)

let prop_pp_parse_roundtrip =
  qcheck "printed values parse back equal (via Lang literals)"
    QCheck2.Gen.(oneof [ value_gen; wide_value_gen ])
    (fun v ->
      match Lang.Parser.expr_result (Value.to_string v) with
      | Error _ -> false
      | Ok e -> (
        match Lang.Interp.run Cobj.Catalog.empty e with
        | v' -> Value.equal v v'
        | exception _ -> false))

(* However narrow the formatter, [pp] prints [to_string]'s single line. *)
let prop_pp_one_line =
  qcheck "pp at margin 10 = to_string, newline-free"
    QCheck2.Gen.(oneof [ value_gen; wide_value_gen ])
    (fun v ->
      let buf = Buffer.create 256 in
      let ppf = Format.formatter_of_buffer buf in
      Format.pp_set_margin ppf 10;
      Format.fprintf ppf "%a@?" Value.pp v;
      let s = Buffer.contents buf in
      String.equal s (Value.to_string v) && not (String.contains s '\n'))

(* [Value.add_int] spells every integer as [string_of_int] does. *)
let prop_add_int =
  qcheck ~count:1000 "add_int = string_of_int"
    QCheck2.Gen.(
      oneof
        [
          int;
          small_signed_int;
          oneofl [ 0; 1; -1; 9; 10; -10; min_int; max_int; min_int + 1 ];
        ])
    (fun n ->
      let buf = Buffer.create 24 in
      Value.add_int buf n;
      String.equal (Buffer.contents buf) (string_of_int n))

let test_add_int_edges () =
  List.iter
    (fun n ->
      let buf = Buffer.create 24 in
      Value.add_int buf n;
      Alcotest.(check string) (string_of_int n) (string_of_int n)
        (Buffer.contents buf))
    [ 0; 1; -1; min_int; max_int ]

(* [equal] identifies an [Int] with the [Float] it converts to, so the two
   must hash alike, at the 2^53 rounding edge, the int range's ends, -0.0
   and nan included. *)
let prop_hash_numeric =
  let open QCheck2.Gen in
  let edge =
    oneofl
      [ 1 lsl 53; (1 lsl 53) + 1; -(1 lsl 53) - 1; max_int; max_int - 1;
        min_int; min_int + 1; (1 lsl 62) - 512 ]
  in
  let i =
    oneof [ small_signed_int; int; edge; map2 ( + ) edge small_signed_int ]
  in
  let f =
    oneof
      [
        float;
        map float_of_int i;
        oneofl
          [ 0.0; -0.0; nan; infinity; neg_infinity; 0.5; -1.5; 0x1p53; 0x1p62;
            -0x1p62; 0x1p63 ];
      ]
  in
  let num =
    oneof [ map (fun i -> Value.Int i) i; map (fun f -> Value.Float f) f ]
  in
  qcheck ~count:1000 "equal numbers hash equally"
    (oneof
       [
         pair num num;
         map (fun i -> (Value.Int i, Value.Float (float_of_int i))) i;
         map
           (fun i ->
             ( Value.List [ Value.Int i ],
               Value.List [ Value.Float (float_of_int i) ] ))
           i;
       ])
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

(* An integer key is hashed once per build and probe row: it must not box
   a float. *)
let test_hash_int_no_alloc () =
  let keys = Array.init 10_000 (fun i -> Value.Int ((i * 7919) - 5000)) in
  let acc = ref 0 in
  let hash_all () =
    for i = 0 to Array.length keys - 1 do
      acc := !acc lxor Value.hash keys.(i)
    done
  in
  (* the words [f] allocates, beside the measurement's own *)
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  hash_all ();
  Alcotest.(check (float 0.)) "minor words for 10 000 Int hashes"
    (words ignore) (words hash_all)

let suite =
  [
    Alcotest.test_case "set dedup and sort" `Quick test_set_dedup_sort;
    Alcotest.test_case "nested set dedup" `Quick test_set_nested_dedup;
    Alcotest.test_case "tuple fields sorted" `Quick test_tuple_sorted;
    Alcotest.test_case "tuple duplicate label" `Quick test_tuple_duplicate_label;
    Alcotest.test_case "numeric cross compare" `Quick test_numeric_cross_compare;
    Alcotest.test_case "field access" `Quick test_field_access;
    Alcotest.test_case "set operations" `Quick test_set_ops;
    Alcotest.test_case "empty set operations" `Quick test_empty_set_ops;
    Alcotest.test_case "null ordering" `Quick test_null_ordering;
    prop_compare_total;
    prop_set_idempotent;
    prop_hash_respects_equal;
    prop_union_commutes;
    Alcotest.test_case "render golden cases" `Quick test_render_golden;
    prop_pp_parse_roundtrip;
    prop_pp_one_line;
    prop_add_int;
    Alcotest.test_case "add_int edge cases" `Quick test_add_int_edges;
    prop_hash_numeric;
    Alcotest.test_case "Int hash allocates nothing" `Quick
      test_hash_int_no_alloc;
  ]
