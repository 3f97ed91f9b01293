(* Workload generator tests: determinism, declared keys, knob behaviour. *)

module Gen = Workload.Gen
module Value = Cobj.Value
module Table = Cobj.Table
module Catalog = Cobj.Catalog

let card cat name = Table.cardinality (Catalog.find_exn name cat)

let test_determinism () =
  let c1 = Gen.xy Gen.default_xy and c2 = Gen.xy Gen.default_xy in
  List.iter2
    (fun t1 t2 ->
      Alcotest.check Alcotest.bool
        ("same rows for " ^ Table.name t1)
        true
        (Value.equal (Table.to_value t1) (Table.to_value t2)))
    (Catalog.tables c1) (Catalog.tables c2)

let test_seed_changes_data () =
  let c1 = Gen.xy Gen.default_xy in
  let c2 = Gen.xy { Gen.default_xy with seed = 43 } in
  Alcotest.check Alcotest.bool "different seeds differ" false
    (Value.equal
       (Table.to_value (Catalog.find_exn "X" c1))
       (Table.to_value (Catalog.find_exn "X" c2)))

let test_cardinalities () =
  let spec = { Gen.default_xy with nx = 57; ny = 123 } in
  let cat = Gen.xy spec in
  Alcotest.check Alcotest.int "|X|" 57 (card cat "X");
  Alcotest.check Alcotest.int "|Y|" 123 (card cat "Y")

let test_dangling_fraction () =
  let spec = { Gen.default_xy with nx = 1000; dangling = 0.3; seed = 5 } in
  let cat = Gen.xy spec in
  let xs = Table.rows (Catalog.find_exn "X" cat) in
  let dangling =
    List.length
      (List.filter
         (fun r -> Value.as_int (Value.field "b" r) >= spec.Gen.key_dom)
         xs)
  in
  let frac = float_of_int dangling /. 1000.0 in
  Alcotest.check Alcotest.bool
    (Printf.sprintf "dangling fraction %.2f near 0.3" frac)
    true
    (frac > 0.22 && frac < 0.38)

let test_xyz_schema () =
  let cat = Gen.xyz Gen.default_xyz in
  Alcotest.(check (list string)) "tables" [ "X"; "Y"; "Z" ] (Catalog.names cat)

let test_company_consistency () =
  let cat = Gen.company Gen.default_company in
  let depts = Table.rows (Catalog.find_exn "DEPT" cat) in
  let emps = Table.rows (Catalog.find_exn "EMP" cat) in
  Alcotest.check Alcotest.int "10 departments" 10 (List.length depts);
  Alcotest.check Alcotest.int "200 employees" 200 (List.length emps);
  (* every embedded employee appears in the EMP extension *)
  let all_embedded =
    List.concat_map (fun d -> Value.elements (Value.field "emps" d)) depts
  in
  Alcotest.check Alcotest.int "embedding is consistent" 200
    (List.length all_embedded);
  List.iter
    (fun e ->
      if not (List.exists (Value.equal e) emps) then
        Alcotest.fail "embedded employee missing from EMP")
    all_embedded

let test_table1_instances () =
  let cat = Gen.table1 () in
  Alcotest.check Alcotest.int "|X| = 3" 3 (card cat "X");
  Alcotest.check Alcotest.int "|Y| = 3" 3 (card cat "Y")

let test_prng_stability () =
  (* lock the splitmix64 stream: a regression here would silently change
     every bench workload *)
  let rng = Workload.Prng.create 42 in
  let observed = List.init 6 (fun _ -> Workload.Prng.int rng 1000) in
  Alcotest.(check (list int))
    "fixed stream for seed 42"
    [ 853; 72; 964; 941; 812; 265 ]
    observed

(* The pre-fix [Prng.int] folded the whole 62-bit draw with [v mod n],
   over-weighting the first [2^62 mod n] residues. The reference stream
   below replays splitmix64 with that fold; for a bound of [2^61 + 1] about
   half of all draws land in the rejected tail, so the fixed generator must
   diverge from it (while staying in range and deterministic). For small
   bounds the tail is hit with probability < n / 2^62 — streams like the
   one pinned above are unchanged. *)
let splitmix_biased seed =
  let state = ref (Int64.of_int seed) in
  fun n ->
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int (Int64.shift_right_logical z 2) mod n

let test_prng_rejection () =
  let n = (1 lsl 61) + 1 in
  let rng = Workload.Prng.create 7 in
  let fixed = List.init 64 (fun _ -> Workload.Prng.int rng n) in
  List.iter
    (fun v ->
      Alcotest.check Alcotest.bool "in range" true (v >= 0 && v < n))
    fixed;
  let biased =
    let draw = splitmix_biased 7 in
    List.init 64 (fun _ -> draw n)
  in
  Alcotest.check Alcotest.bool "rejection sampling diverges from mod fold"
    false (fixed = biased)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed changes data" `Quick test_seed_changes_data;
    Alcotest.test_case "cardinalities" `Quick test_cardinalities;
    Alcotest.test_case "dangling fraction" `Quick test_dangling_fraction;
    Alcotest.test_case "xyz schema" `Quick test_xyz_schema;
    Alcotest.test_case "company consistency" `Quick test_company_consistency;
    Alcotest.test_case "table 1 instances" `Quick test_table1_instances;
    Alcotest.test_case "prng stability" `Quick test_prng_stability;
    Alcotest.test_case "prng rejection sampling" `Quick test_prng_rejection;
  ]
