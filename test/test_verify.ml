(* The plan verifier: mutation tests (each corrupted plan is caught by the
   specific rule, with the phase preserved) and a property that every
   pipeline phase of every strategy verifies cleanly on a random query
   corpus, under serial and parallel execution. *)

open Helpers
module Plan = Algebra.Plan
module P = Engine.Physical
module V = Analysis.Verify

(* Register the hook for the whole test binary: with INSIDE_DUNE set,
   [Pipeline.compile] then phase-verifies every plan built anywhere in the
   suite, not just in this file. *)
let () = Analysis.Verify.install ()

let catalog = xy_catalog ()
let scan_x = Plan.Table { name = "X"; var = "x" }
let scan_y = Plan.Table { name = "Y"; var = "y" }

let expect_rule ~phase ~rule = function
  | Ok _ -> Alcotest.failf "expected a %s violation, but the plan verified" rule
  | Error (v : V.violation) ->
    Alcotest.(check string) "rule" rule v.V.rule;
    Alcotest.(check string) "phase" phase v.V.phase;
    (* the report must carry a pretty-printed subplan *)
    Alcotest.(check bool) "subplan rendered" true (String.length v.V.subplan > 0)

let check ?(phase = "decorrelate") plan =
  V.check_query ~phase catalog { Plan.plan; result = parse "x.a" }

(* --- mutation tests: each corruption trips its specific rule ------------- *)

let test_unbound_predicate_var () =
  expect_rule ~phase:"decorrelate" ~rule:"unbound-var"
    (check (Plan.Select { pred = parse "nope > 1"; input = scan_x }))

let test_shadowed_nestjoin_label () =
  expect_rule ~phase:"rewrite" ~rule:"shadowed-label"
    (V.check_query ~phase:"rewrite" catalog
       {
         Plan.plan =
           Plan.Nestjoin
             {
               pred = parse "x.b = y.c";
               func = parse "y.d";
               label = "x" (* shadows the left operand's variable *);
               left = scan_x;
               right = scan_y;
             };
         result = parse "x.a";
       })

let test_project_missing_var () =
  expect_rule ~phase:"decorrelate" ~rule:"project-unbound"
    (check (Plan.Project { vars = [ "ghost" ]; input = scan_x }))

let test_duplicate_binding () =
  expect_rule ~phase:"translate" ~rule:"duplicate-binding"
    (V.check_query ~phase:"translate" catalog
       {
         Plan.plan =
           Plan.Join
             {
               pred = Lang.Ast.vbool true;
               left = scan_x;
               right = Plan.Table { name = "X"; var = "x" };
             };
         result = parse "x.a";
       })

let test_predicate_not_boolean () =
  expect_rule ~phase:"decorrelate" ~rule:"predicate-not-boolean"
    (check (Plan.Select { pred = parse "x.a + 1"; input = scan_x }))

let test_union_mismatch () =
  expect_rule ~phase:"simplify" ~rule:"union-mismatch"
    (V.check_query ~phase:"simplify" catalog
       { Plan.plan = Plan.Union { left = scan_x; right = scan_y };
         result = parse "1" })

let test_apply_free_vars () =
  expect_rule ~phase:"translate" ~rule:"apply-free-vars"
    (check ~phase:"translate"
       (Plan.Apply
          {
            var = "q";
            subquery = { Plan.plan = scan_y; result = parse "w.c" };
            input = scan_x;
          }))

let test_hash_key_type () =
  (* x.s : P INT has no common type with y.c : INT *)
  expect_rule ~phase:"plan" ~rule:"hash-key-type"
    (V.check_physical_query ~phase:"plan" catalog
       {
         P.plan =
           keyed_join P.Hash P.Inner (parse "x.s") (parse "y.c")
             (P.Scan { table = "X"; var = "x" })
             (P.Scan { table = "Y"; var = "y" });
         result = parse "x.a";
       })

let test_cached_build_missing_field () =
  (* a bare-scan build keyed on a plain field is a cached build: its key
     must name a field the scanned table's rows have *)
  let plan =
    keyed_join P.Hash (P.Semi { anti = false }) (parse "x.b") (parse "y.zz")
      (P.Scan { table = "X"; var = "x" }) (P.Scan { table = "Y"; var = "y" })
  in
  Alcotest.(check bool) "cached build" true (P.cached_build plan <> None);
  expect_rule ~phase:"plan" ~rule:"ill-typed"
    (V.check_physical_query ~phase:"plan" catalog
       { P.plan; result = parse "x.a" })

let test_unknown_table () =
  expect_rule ~phase:"translate" ~rule:"unknown-table"
    (check ~phase:"translate" (Plan.Table { name = "NOPE"; var = "n" }))

let test_nest_unbound () =
  expect_rule ~phase:"kim" ~rule:"nest-unbound"
    (V.check_query ~phase:"kim" catalog
       {
         Plan.plan =
           Plan.Nest
             { by = [ "ghost" ]; label = "g"; func = parse "x.a"; nulls = [];
               input = scan_x };
         result = parse "g";
       })

(* --- sound plans pass ---------------------------------------------------- *)

let test_valid_plans_verify () =
  List.iter
    (fun src ->
      List.iter
        (fun strategy ->
          match
            Core.Pipeline.compile_string ~verify:true strategy catalog src
          with
          | Ok _ -> ()
          | Error msg ->
            Alcotest.failf "%s failed verification on %s: %s"
              (Core.Pipeline.strategy_name strategy)
              src msg)
        Core.Pipeline.all_strategies)
    [
      "SELECT x.a FROM X x WHERE x.b IN (SELECT y.d FROM Y y WHERE y.c = \
       x.a)";
      "SELECT x.a FROM X x WHERE COUNT(SELECT y.c FROM Y y WHERE y.d = x.b) \
       = 0";
      "SELECT (a = x.a, m = (SELECT y.c FROM Y y WHERE y.d = x.b)) FROM X x";
      "SELECT x.a FROM X x WHERE x.s SUBSETEQ (SELECT y.c FROM Y y WHERE \
       y.d = x.b)";
    ]

let test_violation_rendering () =
  match check (Plan.Select { pred = parse "nope > 1"; input = scan_x }) with
  | Ok _ -> Alcotest.fail "expected a violation"
  | Error v ->
    let s = V.to_string v in
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "rendered violation mentions %S" needle)
          true
          (Astring.String.is_infix ~affix:needle s))
      [ "decorrelate"; "unbound-var"; "nope"; "table X x" ]

(* --- the nested-loop embedding -------------------------------------------- *)

(* A logical plan is checked as its nested-loop plan and reported through
   [P.to_logical]: erasing the embedding must give back the logical plan
   exactly — each strategy's compiled plan and the naive translation. *)
let test_nested_loops_round_trip () =
  let plans = ref 0 in
  List.iter
    (fun seed ->
      let catalog = Workload.Gen.xy { Workload.Gen.default_xy with seed } in
      List.iter
        (fun src ->
          List.iter
            (fun strategy ->
              match Core.Pipeline.compile_string strategy catalog src with
              | Error msg -> Alcotest.failf "%s: %s" src msg
              | Ok { Core.Pipeline.logical = None; _ } -> ()
              | Ok { Core.Pipeline.logical = Some q; source; _ } ->
                List.iter
                  (fun q ->
                    incr plans;
                    if P.to_logical_query (Core.Planner.nested_loops q) <> q
                    then
                      Alcotest.failf "%s (%s): the round trip changes@.%a" src
                        (Core.Pipeline.strategy_name strategy)
                        Plan.pp_query q)
                  [ q; Core.Translate.query_exn catalog source ])
            Core.Pipeline.all_strategies)
        (Workload.Gen.queries ~count:150 ~seed ()))
    [ 2024; 31 ];
  Alcotest.(check bool) "plans compared" true (!plans > 0)

(* --- property: every phase of every strategy verifies on random queries -- *)

let gen_catalog =
  Workload.Gen.xy
    { Workload.Gen.default_xy with
      nx = 20; ny = 20; key_dom = 5; dangling = 0.25; val_dom = 5; seed = 99 }

let corpus = Workload.Gen.queries ~count:80 ~seed:0x5eed ()

let prop_phases_verify =
  qcheck ~count:60 "every phase verifies; jobs ∈ {1,4} agree with interp"
    (QCheck2.Gen.oneofl corpus)
    (fun src ->
      match Core.Pipeline.run Core.Pipeline.Interp gen_catalog src with
      | Error msg ->
        QCheck2.Test.fail_reportf "interp failed on %s: %s" src msg
      | Ok reference ->
        List.for_all
          (fun strategy ->
            match
              Core.Pipeline.compile_string ~verify:true strategy gen_catalog
                src
            with
            | Error msg ->
              QCheck2.Test.fail_reportf "%s failed verification on %s: %s"
                (Core.Pipeline.strategy_name strategy)
                src msg
            | Ok compiled ->
              (* baselines may differ from the reference on purpose (the
                 COUNT bug); sound strategies must agree at any width *)
              let sound =
                match strategy with
                | Core.Pipeline.Kim_baseline | Core.Pipeline.Ganski_wong
                | Core.Pipeline.Muralikrishna ->
                  false
                | _ -> true
              in
              List.for_all
                (fun jobs ->
                  match
                    Core.Pipeline.execute ~jobs gen_catalog compiled
                  with
                  | v ->
                    (not sound)
                    || Cobj.Value.equal reference v
                    || QCheck2.Test.fail_reportf
                         "%s jobs=%d differs on %s"
                         (Core.Pipeline.strategy_name strategy)
                         jobs src
                  | exception Cobj.Value.Type_error msg ->
                    QCheck2.Test.fail_reportf "%s jobs=%d crashed on %s: %s"
                      (Core.Pipeline.strategy_name strategy)
                      jobs src msg)
                [ 1; 4 ])
          Core.Pipeline.all_strategies)

let suite =
  [
    Alcotest.test_case "unbound predicate variable" `Quick
      test_unbound_predicate_var;
    Alcotest.test_case "shadowed nest-join label" `Quick
      test_shadowed_nestjoin_label;
    Alcotest.test_case "project references missing variable" `Quick
      test_project_missing_var;
    Alcotest.test_case "duplicate binding across join operands" `Quick
      test_duplicate_binding;
    Alcotest.test_case "non-boolean predicate" `Quick
      test_predicate_not_boolean;
    Alcotest.test_case "union operand mismatch" `Quick test_union_mismatch;
    Alcotest.test_case "apply subquery free variables" `Quick
      test_apply_free_vars;
    Alcotest.test_case "incomparable hash-join key types" `Quick
      test_hash_key_type;
    Alcotest.test_case "cached build keyed on a missing field" `Quick
      test_cached_build_missing_field;
    Alcotest.test_case "unknown table" `Quick test_unknown_table;
    Alcotest.test_case "nest groups by unbound variable" `Quick
      test_nest_unbound;
    Alcotest.test_case "sound plans verify under every strategy" `Quick
      test_valid_plans_verify;
    Alcotest.test_case "violation rendering" `Quick test_violation_rendering;
    Alcotest.test_case "nested-loop embedding round-trips" `Quick
      test_nested_loops_round_trip;
    prop_phases_verify;
  ]
