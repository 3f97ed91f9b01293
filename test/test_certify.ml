(* The rewrite certifier: mutation tests (each hand-broken rewrite step is
   caught by its specific rule, with the phase and step index preserved),
   the whole-phase obligations, the proven keys behind the cost model's
   key hint, and a property that a random query corpus certifies clean
   under every strategy with the EXPLAIN ANALYZE bounds cross-check armed. *)

open Helpers
module Plan = Algebra.Plan
module P = Engine.Physical
module C = Analysis.Certify
module Steps = Core.Steps

(* Register the certifier (and annotator + cost key hint) for the whole
   test binary: with INSIDE_DUNE set, [Pipeline.compile] then certifies
   every rewrite step recorded anywhere in the suite. *)
let () = Analysis.Certify.install ()

let catalog = xy_catalog ()
let scan_x = Plan.Table { name = "X"; var = "x" }
let scan_y = Plan.Table { name = "Y"; var = "y" }

let expect_rule ?step ~phase ~rule = function
  | Ok () ->
    Alcotest.failf "expected a %s violation, but the steps certified" rule
  | Error (v : C.violation) ->
    Alcotest.(check string) "rule" rule v.C.rule;
    Alcotest.(check string) "phase" phase v.C.phase;
    Alcotest.(check (option int)) "step index" step v.C.step;
    (* the report must carry a pretty-printed subplan *)
    Alcotest.(check bool) "subplan rendered" true (String.length v.C.subplan > 0)

let step ?(meta = []) rule before after =
  { Steps.rule; before; after; meta }

(* A step that genuinely certifies — used as a prefix to check that the
   reported index points at the broken step, not the first one. *)
let valid_step =
  step "select-true-elim"
    (Plan.Select { pred = Lang.Ast.vbool true; input = scan_x })
    scan_x

(* --- mutation tests: one hand-broken step per optimizer pass ------------- *)

(* decorrelate: flattening a COUNT-bound predicate to a semijoin is the
   literal COUNT bug — the classifier's ¬∃ verdict does not justify it. *)
let test_count_bug_flattening () =
  let subquery = { Plan.plan = scan_y; result = parse "y.c" } in
  let broken =
    step ~meta:[ ("label", "z") ] "apply-to-semijoin"
      (Plan.Select
         {
           pred = parse "COUNT(z) = 0";
           input = Plan.Apply { var = "z"; subquery; input = scan_x };
         })
      (Plan.Semijoin { pred = parse "x.b = y.c"; left = scan_x; right = scan_y })
  in
  expect_rule ~step:0 ~phase:"decorrelate" ~rule:"count-bug-safety"
    (C.check_steps ~phase:"decorrelate" catalog [ broken ])

(* decorrelate, grouping form: the nest join must rebind the Apply
   variable, not a fresh label. *)
let test_nestjoin_rebinds_wrong_label () =
  let subquery = { Plan.plan = scan_y; result = parse "y.c" } in
  let broken =
    step ~meta:[ ("label", "z") ] "apply-to-nestjoin"
      (Plan.Apply { var = "z"; subquery; input = scan_x })
      (Plan.Nestjoin
         {
           pred = parse "x.b = y.c";
           func = parse "y.c";
           label = "g";
           left = scan_x;
           right = scan_y;
         })
  in
  expect_rule ~step:0 ~phase:"decorrelate" ~rule:"apply-to-nestjoin"
    (C.check_steps ~phase:"decorrelate" catalog [ broken ])

(* rewrite: fusing two selections while dropping a conjunct. The broken
   step sits at index 1 behind a valid one — the index must point at it. *)
let test_select_fuse_drops_conjunct () =
  let broken =
    step "select-fuse"
      (Plan.Select
         {
           pred = parse "x.a = 1";
           input = Plan.Select { pred = parse "x.b = 2"; input = scan_x };
         })
      (Plan.Select { pred = parse "x.a = 1"; input = scan_x })
  in
  expect_rule ~step:1 ~phase:"rewrite" ~rule:"select-fuse"
    (C.check_steps ~phase:"rewrite" catalog [ valid_step; broken ])

(* rewrite: eliminating a dead nest join must return the *left* operand. *)
let test_dead_nestjoin_returns_wrong_operand () =
  let broken =
    step ~meta:[ ("label", "g") ] "dead-nestjoin-elim"
      (Plan.Nestjoin
         {
           pred = parse "x.b = y.c";
           func = parse "y.d";
           label = "g";
           left = scan_x;
           right = scan_y;
         })
      scan_y
  in
  expect_rule ~step:0 ~phase:"rewrite" ~rule:"dead-nestjoin-elim"
    (C.check_steps ~phase:"rewrite" catalog [ broken ])

(* simplify: eliminating a selection whose predicate is not provably true. *)
let test_select_true_elim_non_true () =
  let broken =
    step "select-true-elim"
      (Plan.Select { pred = parse "x.a > 1"; input = scan_x })
      scan_x
  in
  expect_rule ~step:0 ~phase:"simplify" ~rule:"select-true-elim"
    (C.check_steps ~phase:"simplify" catalog [ broken ])

(* reorder: sinking a semijoin below a join into the operand whose
   variables its predicate does NOT read. *)
let test_sink_below_join_wrong_side () =
  let scan_w = Plan.Table { name = "Y"; var = "w" } in
  let jp = parse "x.b = y.c" in
  let op_pred = parse "y.d = w.d" (* reads y, the operand left behind *) in
  let broken =
    step "sink-below-join"
      (Plan.Semijoin
         {
           pred = op_pred;
           left = Plan.Join { pred = jp; left = scan_x; right = scan_y };
           right = scan_w;
         })
      (Plan.Join
         {
           pred = jp;
           left =
             Plan.Semijoin { pred = op_pred; left = scan_x; right = scan_w };
           right = scan_y;
         })
  in
  expect_rule ~step:0 ~phase:"reorder" ~rule:"sink-below-join"
    (C.check_steps ~phase:"reorder" catalog [ broken ])

(* a rule name with no registered obligation must not certify silently *)
let test_unknown_rule_rejected () =
  expect_rule ~step:0 ~phase:"rewrite" ~rule:"fuse-everything"
    (C.check_steps ~phase:"rewrite" catalog
       [ step "fuse-everything" scan_x scan_x ])

(* --- whole-phase obligations --------------------------------------------- *)

let test_phase_type_change () =
  expect_rule ~phase:"simplify" ~rule:"phase-type"
    (C.check_logical ~phase:"simplify" catalog
       ~before:{ Plan.plan = scan_x; result = parse "x.a" }
       ~after:{ Plan.plan = scan_x; result = parse "x.s" }
       [])

let test_phase_disjoint_bounds () =
  (* scan X is proven [5,5]; Unit is proven [1,1] — disjoint intervals *)
  expect_rule ~phase:"rewrite" ~rule:"phase-bounds"
    (C.check_logical ~phase:"rewrite" catalog
       ~before:{ Plan.plan = scan_x; result = parse "1" }
       ~after:{ Plan.plan = Plan.Unit; result = parse "1" }
       [])

(* --- proven keys -------------------------------------------------------- *)

let keyed_catalog =
  let k_elt = Cobj.Ctype.ttuple [ ("id", Cobj.Ctype.TInt); ("v", Cobj.Ctype.TInt) ] in
  let krow id v = tup [ ("id", vi id); ("v", vi v) ] in
  Cobj.Catalog.of_tables
    [
      Cobj.Table.create ~key:[ "id" ] ~name:"K" ~elt:k_elt
        [ krow 1 10; krow 2 20; krow 3 30 ];
      Cobj.Table.create ~name:"L" ~elt:k_elt [ krow 1 1; krow 2 2 ];
    ]

let test_key_proven_through_filter () =
  (* K declares the key id and a selection keeps it; L declares none *)
  let key_of plan e = Analysis.Props.key_of keyed_catalog plan (parse e) in
  let filtered =
    P.Filter
      { pred = parse "k.v > 0"; input = P.Scan { table = "K"; var = "k" } }
  in
  Alcotest.(check bool) "k.id over a filter" true (key_of filtered "k.id");
  Alcotest.(check bool) "k.v" false (key_of filtered "k.v");
  Alcotest.(check bool) "l.id over keyless L" false
    (key_of (P.Scan { table = "L"; var = "l" }) "l.id")

(* --- real compilations certify ------------------------------------------- *)

let test_fixed_queries_certify () =
  List.iter
    (fun src ->
      List.iter
        (fun strategy ->
          match
            Core.Pipeline.compile_string ~verify:true ~certify:true strategy
              catalog src
          with
          | Ok _ -> ()
          | Error msg ->
            Alcotest.failf "%s failed certification on %s: %s"
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

(* --- property: random corpus certifies clean, bounds hold under EA ------- *)

let gen_catalog =
  Workload.Gen.xy
    { Workload.Gen.default_xy with
      nx = 20; ny = 20; key_dom = 5; dangling = 0.25; val_dom = 5; seed = 99 }

let corpus = Workload.Gen.queries ~count:80 ~seed:0x5eed ()

let prop_corpus_certifies =
  qcheck ~count:40
    "corpus certifies under every strategy; EA bounds hold at jobs ∈ {1,4}"
    (QCheck2.Gen.oneofl corpus)
    (fun src ->
      List.for_all
        (fun strategy ->
          match
            Core.Pipeline.compile_string ~verify:true ~certify:true strategy
              gen_catalog src
          with
          | Error msg ->
            QCheck2.Test.fail_reportf "%s failed certification on %s: %s"
              (Core.Pipeline.strategy_name strategy)
              src msg
          | Ok compiled ->
            (* EXPLAIN ANALYZE cross-checks the proven [lo,hi] bounds
               against the actual per-operator row counts — a violation
               surfaces as an Error here *)
            List.for_all
              (fun jobs ->
                if strategy = Core.Pipeline.Interp then
                  (* no physical plan to instrument — execution suffices *)
                  match Core.Pipeline.execute ~jobs gen_catalog compiled with
                  | _ -> true
                else
                  match Core.Pipeline.analyze ~jobs gen_catalog compiled with
                  | Ok _ -> true
                  | Error msg ->
                    QCheck2.Test.fail_reportf
                      "%s jobs=%d bounds cross-check failed on %s: %s"
                      (Core.Pipeline.strategy_name strategy)
                      jobs src msg)
              [ 1; 4 ])
        Core.Pipeline.all_strategies)

(* --- proven properties do not depend on the join method ------------------ *)

let seed_corpora =
  List.map
    (fun seed ->
      ( Workload.Gen.xy { Workload.Gen.default_xy with seed },
        Workload.Gen.queries ~count:150 ~seed () ))
    [ 2024; 31 ]

let operands = function
  | P.Unit_row | P.Scan _ -> []
  | P.Filter { input; _ }
  | P.Unnest_op { input; _ }
  | P.Nest_op { input; _ }
  | P.Extend_op { input; _ }
  | P.Project_op { input; _ } ->
    [ input ]
  | P.Join { left; right; _ } | P.Union_op { left; right } -> [ left; right ]
  | P.Apply_op { subquery; input; _ } -> [ subquery.P.plan; input ]

(* The joins of [plan] paired with the same joins of [nl], the nested-loop
   plan of the same logical plan, where both take their operands in the
   same orientation. The planner maps operators one to one and only swaps
   the operands of an inner hash join. *)
let rec matched_joins nl plan =
  let here, below =
    match nl, plan with
    | P.Join { left = nl_left; _ }, P.Join { left; right; _ }
      when P.vars_of nl_left <> P.vars_of left ->
      ([], List.combine (operands nl) [ right; left ])
    | P.Join _, P.Join _ ->
      ([ (nl, plan) ], List.combine (operands nl) (operands plan))
    | _ -> ([], List.combine (operands nl) (operands plan))
  in
  here @ List.concat_map (fun (a, b) -> matched_joins a b) below

let test_props_method_independent () =
  let facts catalog plan =
    let p = Analysis.Props.of_physical catalog plan in
    let elts = Lang.Ast.String_set.elements in
    ( List.sort compare (List.map elts p.Analysis.Props.keys),
      (p.bounds.lo, p.bounds.hi),
      (elts p.null_free, elts p.non_empty, p.distinct) )
  in
  let physical catalog force src strategy =
    let options = { Core.Planner.default_options with force } in
    match Core.Pipeline.compile_string ~options strategy catalog src with
    | Ok { Core.Pipeline.physical = Some pq; _ } -> Some pq.P.plan
    | Ok _ -> None
    | Error msg -> Alcotest.failf "%s: %s" src msg
  in
  let pairs = ref 0 and bands = ref 0 in
  List.iter
    (fun (catalog, queries) ->
      List.iter
        (fun src ->
          List.iter
            (fun strategy ->
              match physical catalog Core.Planner.Force_nl src strategy with
              | None -> ()
              | Some nl ->
                List.iter
                  (fun force ->
                    let plan =
                      Option.get (physical catalog force src strategy)
                    in
                    List.iter
                      (fun (a, b) ->
                        incr pairs;
                        (match b with
                        | P.Join { how = P.Keyed { by = P.Sort cmp; _ }; _ }
                          when cmp <> P.Eq ->
                          incr bands
                        | _ -> ());
                        if facts catalog a <> facts catalog b then
                          Alcotest.failf
                            "%s (%s): %a@.proves %a@.but %a@.proves %a" src
                            (Core.Pipeline.strategy_name strategy)
                            P.pp b Analysis.Props.pp
                            (Analysis.Props.of_physical catalog b)
                            P.pp a Analysis.Props.pp
                            (Analysis.Props.of_physical catalog a))
                      (matched_joins nl plan))
                  Core.Planner.[ Auto; Force_hash; Force_merge ])
            Core.Pipeline.all_strategies)
        queries)
    seed_corpora;
  Alcotest.(check bool) "joins compared" true (!pairs > 0);
  Alcotest.(check bool) "band joins compared" true (!bands > 0)

let suite =
  [
    Alcotest.test_case "COUNT-bug flattening caught (decorrelate)" `Quick
      test_count_bug_flattening;
    Alcotest.test_case "nest join rebinds the wrong label (decorrelate)"
      `Quick test_nestjoin_rebinds_wrong_label;
    Alcotest.test_case "selection fusion drops a conjunct (rewrite)" `Quick
      test_select_fuse_drops_conjunct;
    Alcotest.test_case "dead nest-join elim keeps wrong operand (rewrite)"
      `Quick test_dead_nestjoin_returns_wrong_operand;
    Alcotest.test_case "non-true selection eliminated (simplify)" `Quick
      test_select_true_elim_non_true;
    Alcotest.test_case "operator sunk into the wrong side (reorder)" `Quick
      test_sink_below_join_wrong_side;
    Alcotest.test_case "unknown rule rejected" `Quick test_unknown_rule_rejected;
    Alcotest.test_case "phase changes the result type" `Quick
      test_phase_type_change;
    Alcotest.test_case "phase moves the proven bounds" `Quick
      test_phase_disjoint_bounds;
    Alcotest.test_case "proven key through a filter accepted (§6)" `Quick
      test_key_proven_through_filter;
    Alcotest.test_case "fixed queries certify under every strategy" `Quick
      test_fixed_queries_certify;
    Alcotest.test_case "a join proves the same facts by every method" `Quick
      test_props_method_independent;
    prop_corpus_certifies;
  ]
