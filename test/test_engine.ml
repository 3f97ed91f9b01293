(* Physical operator tests: every implementation must agree with the
   logical oracle [Algebra.Sem] on randomized catalogs, including dangling
   rows, duplicate keys and empty operands. *)

open Helpers
module Value = Cobj.Value
module Env = Cobj.Env
module Plan = Algebra.Plan
module P = Engine.Physical
module Exec = Engine.Exec
module Sem = Algebra.Sem

let canonical rows = List.sort_uniq Env.compare rows

let check_against_oracle name catalog logical physical =
  let expected = Sem.rows catalog Env.empty logical in
  let got = canonical (Exec.rows catalog Env.empty physical) in
  let pp = Fmt.Dump.list Env.pp in
  if not (List.length expected = List.length got
          && List.for_all2 Env.equal expected got) then
    Alcotest.failf "%s:@.oracle = %a@.engine = %a" name pp expected pp got

let catalogs =
  (* several shapes: dense keys, many danglings, empty Y, tiny X *)
  [
    ("default", Workload.Gen.xy Workload.Gen.default_xy);
    ( "dense keys",
      Workload.Gen.xy
        { Workload.Gen.default_xy with key_dom = 3; nx = 40; ny = 40; seed = 1 } );
    ( "all dangling",
      Workload.Gen.xy
        { Workload.Gen.default_xy with dangling = 1.0; nx = 20; ny = 20; seed = 2 } );
    ( "empty inner",
      Workload.Gen.xy { Workload.Gen.default_xy with ny = 0; nx = 15; seed = 3 } );
    ( "empty outer",
      Workload.Gen.xy { Workload.Gen.default_xy with nx = 0; ny = 15; seed = 4 } );
    ( "skewed singleton",
      Workload.Gen.xy
        { Workload.Gen.default_xy with key_dom = 1; nx = 12; ny = 12; seed = 5 } );
  ]

let x = Plan.Table { name = "X"; var = "x" }
let y = Plan.Table { name = "Y"; var = "y" }
let sx = P.Scan { table = "X"; var = "x" }
let sy = P.Scan { table = "Y"; var = "y" }
let pred = parse "x.b = y.b"
let lkey = parse "x.b"
let rkey = parse "y.b"
let func = parse "y.a"

let on_all_catalogs name mk_logical mk_physicals () =
  List.iter
    (fun (cname, catalog) ->
      List.iter
        (fun (iname, physical) ->
          check_against_oracle
            (Printf.sprintf "%s/%s/%s" name cname iname)
            catalog mk_logical physical)
        mk_physicals)
    catalogs

let join_test =
  on_all_catalogs "join"
    (Plan.Join { pred; left = x; right = y })
    [
      ("nl", loop_join P.Inner pred sx sy);
      ("hash", keyed_join P.Hash P.Inner lkey rkey sx sy);
      ("merge", keyed_join (P.Sort P.Eq) P.Inner lkey rkey sx sy);
    ]

let join_residual_test =
  let pred = parse "x.b = y.b AND x.a < y.a" in
  let residual = Some (parse "x.a < y.a") in
  on_all_catalogs "join+residual"
    (Plan.Join { pred; left = x; right = y })
    [
      ("nl", loop_join P.Inner pred sx sy);
      ("hash", keyed_join ?residual P.Hash P.Inner lkey rkey sx sy);
      ("merge", keyed_join ?residual (P.Sort P.Eq) P.Inner lkey rkey sx sy);
    ]

let semijoin_test =
  on_all_catalogs "semijoin"
    (Plan.Semijoin { pred; left = x; right = y })
    [
      ("nl", loop_join (P.Semi { anti = false }) pred sx sy);
      ( "hash",
        keyed_join P.Hash (P.Semi { anti = false }) lkey rkey sx sy );
      ( "merge",
        keyed_join (P.Sort P.Eq) (P.Semi { anti = false }) lkey rkey sx sy );
    ]

let antijoin_test =
  on_all_catalogs "antijoin"
    (Plan.Antijoin { pred; left = x; right = y })
    [
      ("nl", loop_join (P.Semi { anti = true }) pred sx sy);
      ( "hash",
        keyed_join P.Hash (P.Semi { anti = true }) lkey rkey sx sy );
      ( "merge",
        keyed_join (P.Sort P.Eq) (P.Semi { anti = true }) lkey rkey sx sy );
    ]

let semijoin_residual_test =
  let pred = parse "x.b = y.b AND x.a < y.a" in
  let residual = Some (parse "x.a < y.a") in
  on_all_catalogs "semijoin+residual"
    (Plan.Semijoin { pred; left = x; right = y })
    [
      ("nl", loop_join (P.Semi { anti = false }) pred sx sy);
      ( "hash",
        keyed_join ?residual P.Hash (P.Semi { anti = false }) lkey rkey sx sy );
      ( "merge",
        keyed_join ?residual (P.Sort P.Eq) (P.Semi { anti = false }) lkey rkey sx sy );
    ]

let antijoin_residual_test =
  let pred = parse "x.b = y.b AND x.a < y.a" in
  let residual = Some (parse "x.a < y.a") in
  on_all_catalogs "antijoin+residual"
    (Plan.Antijoin { pred; left = x; right = y })
    [
      ("nl", loop_join (P.Semi { anti = true }) pred sx sy);
      ( "hash",
        keyed_join ?residual P.Hash (P.Semi { anti = true }) lkey rkey sx sy );
      ( "merge",
        keyed_join ?residual (P.Sort P.Eq) (P.Semi { anti = true }) lkey rkey sx sy );
    ]

let outerjoin_test =
  on_all_catalogs "outerjoin"
    (Plan.Outerjoin { pred; left = x; right = y })
    [
      ("nl", loop_join P.Outer pred sx sy);
      ( "hash",
        keyed_join P.Hash P.Outer lkey rkey sx sy );
      ( "merge",
        keyed_join (P.Sort P.Eq) P.Outer lkey rkey sx sy );
    ]

let nestjoin_test =
  on_all_catalogs "nestjoin"
    (Plan.Nestjoin { pred; func; label = "zs"; left = x; right = y })
    [
      ("nl", loop_join (P.Nest { func; label = "zs" }) pred sx sy);
      ( "hash",
        keyed_join P.Hash (P.Nest { func; label = "zs" }) lkey rkey sx sy );
      ( "merge",
        keyed_join (P.Sort P.Eq) (P.Nest { func; label = "zs" }) lkey rkey sx sy );
    ]

let nestjoin_residual_test =
  let pred = parse "x.b = y.b AND y.a > 2" in
  let residual = Some (parse "y.a > 2") in
  on_all_catalogs "nestjoin+residual"
    (Plan.Nestjoin { pred; func; label = "zs"; left = x; right = y })
    [
      ("nl", loop_join (P.Nest { func; label = "zs" }) pred sx sy);
      ( "hash",
        keyed_join ?residual P.Hash (P.Nest { func; label = "zs" }) lkey rkey sx
          sy );
      ( "merge",
        keyed_join ?residual (P.Sort P.Eq) (P.Nest { func; label = "zs" }) lkey rkey sx
          sy );
    ]

(* Left-build hash nest join: legal when the right key is unique. Join Y
   (non-unique b) against X on the unique X id to exercise it. *)
let test_nestjoin_left_build_legal () =
  List.iter
    (fun (cname, catalog) ->
      let logical =
        Plan.Nestjoin
          { pred = parse "y.b = x.id"; func = parse "x.a"; label = "zs";
            left = y; right = x }
      in
      let physical =
        keyed_join P.Hash_left (P.Nest { func = parse "x.a"; label = "zs" })
          (parse "y.b") (parse "x.id") sy sx
      in
      check_against_oracle ("left-build legal/" ^ cname) catalog logical
        physical)
    catalogs

(* With a non-unique right key the streaming left-build variant produces
   un-grouped output — the §6 restriction. Witness the disagreement. *)
let test_nestjoin_left_build_illegal () =
  let catalog =
    Workload.Gen.xy
      { Workload.Gen.default_xy with key_dom = 3; nx = 10; ny = 30; seed = 11 }
  in
  let logical = Plan.Nestjoin { pred; func; label = "zs"; left = x; right = y } in
  let physical =
    keyed_join P.Hash_left (P.Nest { func; label = "zs" }) lkey rkey sx sy
  in
  let expected = Sem.rows catalog Env.empty logical in
  let got = canonical (Exec.rows catalog Env.empty physical) in
  Alcotest.check Alcotest.bool
    "streaming left-build diverges when rkey is not a key" false
    (List.length expected = List.length got
     && List.for_all2 Env.equal expected got)

let test_apply_and_memo () =
  List.iter
    (fun (cname, catalog) ->
      let sub =
        { Plan.plan = Plan.Select { pred = parse "y.b = x.b"; input = y };
          result = parse "y.a" }
      in
      let logical = Plan.Apply { var = "z"; subquery = sub; input = x } in
      let psub =
        { P.plan = P.Filter { pred = parse "y.b = x.b"; input = sy };
          result = parse "y.a" }
      in
      List.iter
        (fun (iname, memo) ->
          check_against_oracle
            (Printf.sprintf "apply/%s/%s" cname iname)
            catalog logical
            (P.Apply_op { var = "z"; subquery = psub; memo; input = sx }))
        [ ("plain", false); ("memo", true) ])
    catalogs

let test_memo_hits_counted () =
  let catalog =
    Workload.Gen.xy
      { Workload.Gen.default_xy with key_dom = 4; nx = 50; ny = 20; seed = 21 }
  in
  let psub =
    { P.plan = P.Filter { pred = parse "y.b = x.b"; input = sy };
      result = parse "y.a" }
  in
  let stats = Engine.Stats.create () in
  ignore
    (Exec.rows ~stats catalog Env.empty
       (P.Apply_op { var = "z"; subquery = psub; memo = true; input = sx }));
  Alcotest.check Alcotest.bool "few evaluations" true
    (stats.Engine.Stats.applies <= 8);
  Alcotest.check Alcotest.bool "many hits" true
    (stats.Engine.Stats.apply_hits >= 40)

let test_unnest_nest_extend_project () =
  List.iter
    (fun (cname, catalog) ->
      check_against_oracle ("unnest/" ^ cname) catalog
        (Plan.Unnest { expr = parse "x.s"; var = "w"; input = x })
        (P.Unnest_op { expr = parse "x.s"; var = "w"; input = sx });
      check_against_oracle ("extend/" ^ cname) catalog
        (Plan.Extend { var = "k"; expr = parse "x.a + 1"; input = x })
        (P.Extend_op { var = "k"; expr = parse "x.a + 1"; input = sx });
      check_against_oracle ("project/" ^ cname) catalog
        (Plan.Project
           { vars = [ "k" ];
             input = Plan.Extend { var = "k"; expr = parse "x.b"; input = x } })
        (P.Project_op
           { vars = [ "k" ];
             input = P.Extend_op { var = "k"; expr = parse "x.b"; input = sx } });
      check_against_oracle ("nest/" ^ cname) catalog
        (Plan.Nest
           { by = [ "x" ]; label = "g"; func = parse "y.a"; nulls = [];
             input = Plan.Join { pred; left = x; right = y } })
        (P.Nest_op
           { by = [ "x" ]; label = "g"; func = parse "y.a"; nulls = [];
             input = loop_join P.Inner pred sx sy }))
    catalogs

let test_stats_counters () =
  let catalog = Workload.Gen.xy Workload.Gen.default_xy in
  let stats = Engine.Stats.create () in
  (* a computed key keeps the build out of the cache: Y is built per run *)
  ignore
    (Exec.rows ~stats catalog Env.empty
       (keyed_join P.Hash P.Inner lkey (parse "y.b + 0") sx sy));
  Alcotest.check Alcotest.bool "builds counted" true
    (stats.Engine.Stats.hash_builds = 100);
  Alcotest.check Alcotest.bool "probes counted" true
    (stats.Engine.Stats.hash_probes = 100);
  Engine.Stats.reset stats;
  (* the bare scan keyed on y.b probes the cached build: no build work *)
  ignore
    (Exec.rows ~stats catalog Env.empty
       (keyed_join P.Hash P.Inner lkey rkey sx sy));
  Alcotest.check Alcotest.int "cached build counts no builds" 0
    stats.Engine.Stats.hash_builds;
  Alcotest.check Alcotest.int "cached build probes counted" 100
    stats.Engine.Stats.hash_probes;
  Engine.Stats.reset stats;
  Alcotest.check Alcotest.int "reset" 0 (Engine.Stats.total_work stats)

let suite =
  [
    Alcotest.test_case "join impls vs oracle" `Quick join_test;
    Alcotest.test_case "join with residual" `Quick join_residual_test;
    Alcotest.test_case "semijoin impls" `Quick semijoin_test;
    Alcotest.test_case "antijoin impls" `Quick antijoin_test;
    Alcotest.test_case "semijoin with residual" `Quick semijoin_residual_test;
    Alcotest.test_case "antijoin with residual" `Quick antijoin_residual_test;
    Alcotest.test_case "outerjoin impls" `Quick outerjoin_test;
    Alcotest.test_case "nestjoin impls" `Quick nestjoin_test;
    Alcotest.test_case "nestjoin with residual" `Quick nestjoin_residual_test;
    Alcotest.test_case "left-build nestjoin (legal)" `Quick
      test_nestjoin_left_build_legal;
    Alcotest.test_case "left-build nestjoin (illegal diverges)" `Quick
      test_nestjoin_left_build_illegal;
    Alcotest.test_case "apply plain and memoized" `Quick test_apply_and_memo;
    Alcotest.test_case "memoization hits counted" `Quick test_memo_hits_counted;
    Alcotest.test_case "unnest/nest/extend/project" `Quick
      test_unnest_nest_extend_project;
    Alcotest.test_case "stats counters" `Quick test_stats_counters;
  ]

(* Join keyed on a complex (set-valued) attribute: exercises Value.hash and
   Value.compare as hash/sort keys. *)
let test_set_valued_join_key () =
  List.iter
    (fun (cname, catalog) ->
      (* self-join of X on the set attribute s *)
      let x2 = Plan.Table { name = "X"; var = "w" } in
      let sx2 = P.Scan { table = "X"; var = "w" } in
      let pred = parse "x.s = w.s" in
      let logical = Plan.Join { pred; left = x; right = x2 } in
      List.iter
        (fun (iname, physical) ->
          check_against_oracle
            (Printf.sprintf "set-key/%s/%s" cname iname)
            catalog logical physical)
        [
          ( "hash",
            keyed_join P.Hash P.Inner (parse "x.s") (parse "w.s") sx sx2 );
          ( "merge",
            keyed_join (P.Sort P.Eq) P.Inner (parse "x.s") (parse "w.s") sx sx2 );
        ])
    catalogs

let suite =
  suite
  @ [
      Alcotest.test_case "set-valued join keys" `Quick
        test_set_valued_join_key;
    ]

(* Random operator trees: the planner's output for a random logical plan
   must agree with the oracle — this exercises operator compositions the
   fixed-shape tests never build (nest joins over semijoins over unions,
   projections between joins, …). *)
let plan_gen =
  let open QCheck2.Gen in
  let xv = Plan.Table { name = "X"; var = "x" } in
  let yv = Plan.Table { name = "Y"; var = "y" } in
  let preds_xy =
    oneofl [ "x.b = y.b"; "x.b = y.b AND x.a < y.a"; "x.a > y.a" ]
  in
  let sel_x = oneofl [ "x.a > 1"; "x.b MOD 2 = 0"; "COUNT(x.s) > 0" ] in
  (* build a plan over X (always binding x), optionally composed with Y *)
  sized @@ fix (fun self n ->
      if n <= 1 then return xv
      else
        let sub = self (n / 2) in
        oneof
          [
            return xv;
            map2
              (fun p input -> Plan.Select { pred = parse p; input })
              sel_x sub;
            map2
              (fun p left -> Plan.Semijoin { pred = parse p; left; right = yv })
              preds_xy sub;
            map2
              (fun p left -> Plan.Antijoin { pred = parse p; left; right = yv })
              preds_xy sub;
            map2
              (fun p left ->
                (* label g is then dead upstream unless a Select uses it;
                   add one sometimes *)
                Plan.Select
                  { pred = parse "COUNT(g) >= 0";
                    input =
                      Plan.Nestjoin
                        { pred = parse p; func = parse "y.a"; label = "g";
                          left; right = yv } })
              preds_xy sub;
            map2
              (fun a b -> Plan.Union { left = a; right = b })
              sub (self (n / 2));
            map (fun input -> Plan.Project { vars = [ "x" ]; input }) sub;
          ])

let prop_random_plans =
  Helpers.qcheck ~count:120 "random plans: planner output = oracle"
    QCheck2.Gen.(pair plan_gen (int_range 0 5_000))
    (fun (plan, seed) ->
      let catalog =
        Workload.Gen.xy
          { Workload.Gen.default_xy with
            nx = 12; ny = 12; key_dom = 4; seed }
      in
      (* only well-formed plans qualify (unions of differing shapes are
         filtered out by the generator construction: all branches bind x
         after the Project normalization below) *)
      let plan = Plan.Project { vars = [ "x" ]; input = plan } in
      match Plan.well_formed plan with
      | Error _ -> true
      | Ok () ->
        let expected = Sem.rows catalog Env.empty plan in
        let physical = Core.Planner.plan catalog plan in
        let got = canonical (Exec.rows catalog Env.empty physical) in
        List.length expected = List.length got
        && List.for_all2 Env.equal expected got)

let suite = suite @ [ prop_random_plans ]

(* A join inside a correlated subquery whose variable [x] shadows the
   outer [x]. A pair binds the ambient env, then the left row, then the
   right row, so the join reads the inner [x]; binding the right row's
   ambient env over the left row would read the outer one. Every strategy
   under every forced join method, and the logical oracle on the
   decorrelated plan, must agree with the interpreter. *)
let test_shadowed_join_variable () =
  let catalog =
    Workload.Gen.xy
      { Workload.Gen.default_xy with nx = 20; ny = 20; key_dom = 5; seed = 42 }
  in
  let src =
    "SELECT (a = x.a, s = (SELECT x.a FROM X x, Y y WHERE x.b = y.b)) FROM X \
     x WHERE x.a < 3"
  in
  let reference = run_strategy Core.Pipeline.Interp catalog src in
  List.iter
    (fun (fname, force) ->
      List.iter
        (fun strategy ->
          let name =
            Printf.sprintf "%s, %s" (Core.Pipeline.strategy_name strategy) fname
          in
          match
            Core.Pipeline.run
              ~options:{ Core.Planner.default_options with force }
              strategy catalog src
          with
          | Ok v -> Alcotest.check value name reference v
          | Error msg -> Alcotest.failf "%s failed: %s" name msg)
        Core.Pipeline.all_strategies)
    Core.Planner.
      [ ("auto", Auto); ("nl", Force_nl); ("hash", Force_hash);
        ("merge", Force_merge) ];
  match
    Core.Pipeline.compile_string Core.Pipeline.Decorrelated catalog src
  with
  | Ok { Core.Pipeline.logical = Some q; _ } ->
    Alcotest.check value "Algebra.Sem on the decorrelated plan" reference
      (Sem.run catalog q)
  | Ok { Core.Pipeline.logical = None; _ } ->
    Alcotest.fail "no decorrelated logical plan"
  | Error msg -> Alcotest.failf "compile failed: %s" msg

let suite =
  suite
  @ [
      Alcotest.test_case "shadowed join variable" `Quick
        test_shadowed_join_variable;
    ]

(* --- 16 pairs the planner emits, plus the left build by hand ------------- *)

(* The forced-method differential's catalogs: a quarter of X dangling, or
   all of it. *)
let pair_catalogs =
  List.map
    (fun (name, dangling) ->
      ( name,
        Workload.Gen.xy
          { Workload.Gen.default_xy with
            nx = 20; ny = 20; key_dom = 5; dangling; val_dom = 5; seed = 99 } ))
    [ ("mixed", 0.25); ("all-dangling", 1.0) ]

let nest_src =
  "SELECT (i = x.id, g = (SELECT y.a FROM Y y WHERE y.b = x.b)) FROM X x"

(* One row per pair: its EXPLAIN line, the rule the verifier raises when the
   left key is the set [x.s], the join with a good and a bad key, and a
   query the join answers — its source, and the physical query around the
   join. The pairs join X x to Y y on [x.b = y.b + 0], the computed key
   keeping the build out of the cache, and the bands on [x.b > y.b + 0];
   the left build needs a key of its right operand, so it nests X into Y
   on [y.b = x.id]. *)
let join_pairs =
  let lkey = parse "x.b" and rkey = parse "y.b + 0" and bad = parse "x.s" in
  let pred = parse "x.b = y.b + 0" and bad_pred = parse "x.s = y.b + 0" in
  let loop kind = (loop_join kind pred sx sy, loop_join kind bad_pred sx sy) in
  let keyed by kind =
    (keyed_join by kind lkey rkey sx sy, keyed_join by kind bad rkey sx sy)
  in
  let over result plan = { P.plan; result = parse result } in
  let inner =
    ( "SELECT (i = x.id, j = y.id) FROM X x, Y y WHERE x.b = y.b",
      over "(i = x.id, j = y.id)" )
  in
  let semi =
    ("SELECT x.id FROM X x WHERE EXISTS y IN Y (x.b = y.b)", over "x.id")
  in
  let anti =
    ("SELECT x.id FROM X x WHERE NOT EXISTS y IN Y (x.b = y.b)", over "x.id")
  in
  (* ν*(X ⟗ Y) = X Δ Y *)
  let outer =
    ( nest_src,
      fun input ->
        over "(i = x.id, g = g)"
          (P.Nest_op
             { by = [ "x" ]; label = "g"; func = parse "y.a"; nulls = [ "y" ];
               input }) )
  in
  let nest = (nest_src, over "(i = x.id, g = g)") in
  (* the same queries on the band [y.b < x.b] *)
  let band_inner =
    ("SELECT (i = x.id, j = y.id) FROM X x, Y y WHERE y.b < x.b", snd inner)
  in
  let band_semi =
    ("SELECT x.id FROM X x WHERE EXISTS y IN Y (y.b < x.b)", snd semi)
  in
  let band_anti =
    ("SELECT x.id FROM X x WHERE NOT EXISTS y IN Y (y.b < x.b)", snd anti)
  in
  let band_nest_src =
    "SELECT (i = x.id, g = (SELECT y.a FROM Y y WHERE y.b < x.b)) FROM X x"
  in
  let band_outer = (band_nest_src, snd outer) in
  let band_nest = (band_nest_src, snd nest) in
  let band kind =
    let rkey = parse "y.b + 0" in
    ( keyed_join (P.Sort P.Gt) kind lkey rkey sx sy,
      keyed_join (P.Sort P.Gt) kind bad rkey sx sy )
  in
  let bands = "[x.b > y.b + 0]" in
  let s = P.Semi { anti = false } and a = P.Semi { anti = true } in
  let g = P.Nest { func = parse "y.a"; label = "g" } in
  let keys = "[x.b = y.b + 0]" in
  let groups = keys ^ " func=y.a label=g" in
  let build_left =
    let g = P.Nest { func = parse "x.a"; label = "g" } in
    let join rkey = keyed_join P.Hash_left g (parse "y.b") rkey sy sx in
    ( ("hash-nestjoin(build=left)", "[y.b = x.id] func=x.a label=g"),
      "hash-key-type",
      (join (parse "x.id"), join (parse "x.s")),
      ( "SELECT (i = y.id, g = (SELECT x.a FROM X x WHERE x.id = y.b)) FROM Y \
         y",
        over "(i = y.id, g = g)" ) )
  in
  [
    (("nl-join", keys), "ill-typed", loop P.Inner, inner);
    (("hash-join", keys), "hash-key-type", keyed P.Hash P.Inner, inner);
    (("merge-join", keys), "merge-key-type", keyed (P.Sort P.Eq) P.Inner, inner);
    (("nl-semijoin", keys), "ill-typed", loop s, semi);
    (("hash-semijoin", keys), "hash-key-type", keyed P.Hash s, semi);
    (("merge-semijoin", keys), "merge-key-type", keyed (P.Sort P.Eq) s, semi);
    (("nl-antijoin", keys), "ill-typed", loop a, anti);
    (("hash-antijoin", keys), "hash-key-type", keyed P.Hash a, anti);
    (("merge-antijoin", keys), "merge-key-type", keyed (P.Sort P.Eq) a, anti);
    (("nl-outerjoin", keys), "ill-typed", loop P.Outer, outer);
    (("hash-outerjoin", keys), "hash-key-type", keyed P.Hash P.Outer, outer);
    (("merge-outerjoin", keys), "merge-key-type", keyed (P.Sort P.Eq) P.Outer, outer);
    (("nl-nestjoin", groups), "ill-typed", loop g, nest);
    (("hash-nestjoin", groups), "hash-key-type", keyed P.Hash g, nest);
    (("merge-nestjoin", groups), "merge-key-type", keyed (P.Sort P.Eq) g, nest);
    (("merge-join", bands), "merge-key-type", band P.Inner, band_inner);
    (("merge-semijoin", bands), "merge-key-type", band s, band_semi);
    (("merge-antijoin", bands), "merge-key-type", band a, band_anti);
    (("merge-outerjoin", bands), "merge-key-type", band P.Outer, band_outer);
    ( ("merge-nestjoin", bands ^ " func=y.a label=g"),
      "merge-key-type",
      band g,
      band_nest );
    build_left;
  ]

let test_join_pairs () =
  List.iter
    (fun ((op, detail), rule, (join, bad_join), (src, query)) ->
      Alcotest.(check string) (op ^ ": EXPLAIN") (op ^ " " ^ detail)
        (List.hd (String.split_on_char '\n' (P.to_string join)));
      Alcotest.(check (pair string string)) (op ^ ": EXPLAIN ANALYZE")
        (op, detail) (Engine.Analyze.label join);
      List.iter
        (fun (cname, catalog) ->
          let what = Printf.sprintf "%s on %s" op cname in
          (match
             Analysis.Verify.check_physical_query ~phase:"plan" catalog
               (query join)
           with
          | Ok () -> ()
          | Error v ->
            Alcotest.failf "%s: verifier: %s" what
              (Analysis.Verify.to_string v));
          (match
             Analysis.Verify.check_physical_query ~phase:"plan" catalog
               (query bad_join)
           with
          | Ok () -> Alcotest.failf "%s: a set key passes the verifier" what
          | Error v ->
            Alcotest.(check string) (what ^ ": bad key rule") rule
              v.Analysis.Verify.rule);
          match Core.Pipeline.run Core.Pipeline.Interp catalog src with
          | Error msg -> Alcotest.failf "%s: interp: %s" what msg
          | Ok reference ->
            Alcotest.check value (what ^ ": = interp") reference
              (Exec.run catalog (query join)))
        pair_catalogs)
    join_pairs

(* Only a nest join may build on the left (§6): on every other kind the
   verifier and the certifier refuse it, though the right key is a key. *)
let test_build_left_needs_nest () =
  let catalog = snd (List.hd pair_catalogs) in
  List.iter
    (fun kind ->
      let join =
        keyed_join P.Hash_left kind (parse "y.b") (parse "x.id") sy sx
      in
      let query = { P.plan = join; result = parse "y.id" } in
      let name = fst (Engine.Analyze.label join) in
      let rule = "nestjoin-build-side" in
      (match
         Analysis.Verify.check_physical_query ~phase:"plan" catalog query
       with
      | Ok () -> Alcotest.failf "%s passes the verifier" name
      | Error v ->
        Alcotest.(check string) (name ^ ": verifier rule") rule
          v.Analysis.Verify.rule);
      match
        Analysis.Certify.check_physical_query ~phase:"plan" catalog query
      with
      | Ok () -> Alcotest.failf "%s passes the certifier" name
      | Error v ->
        Alcotest.(check string) (name ^ ": certifier rule") rule
          v.Analysis.Certify.rule)
    [ P.Inner; P.Semi { anti = false }; P.Semi { anti = true }; P.Outer ]

let suite =
  suite
  @ [
      Alcotest.test_case "every (kind, how) pair" `Quick test_join_pairs;
      Alcotest.test_case "build-left needs a nest join" `Quick
        test_build_left_needs_nest;
    ]

(* --- band joins against the nested loop -------------------------------- *)

module Stats = Engine.Stats

(* X x (id, b) and Y y (id, b, a, f): [f] mixes Int and Float, 1 and 1.0,
   0, 0.0 and -0.0, and a string that makes [y.f + 1] raise. *)
let band_catalog ~xb ~yb =
  let fs =
    [| vi 1; Value.Float 1.0; Value.Float 0.0; Value.Float (-0.0); vi 0;
       Value.Float 2.5; vi 2 |]
  in
  let x_elt = Ctype.ttuple [ ("id", Ctype.TInt); ("b", Ctype.TInt) ] in
  let y_elt =
    Ctype.ttuple
      [ ("id", Ctype.TInt); ("b", Ctype.TInt); ("a", Ctype.TInt);
        ("f", Ctype.TAny); ("g", Ctype.TAny) ]
  in
  Catalog.of_tables
    [
      Table.create ~name:"X" ~elt:x_elt
        (List.mapi (fun i b -> tup [ ("id", vi i); ("b", vi b) ]) xb);
      Table.create ~name:"Y" ~elt:y_elt
        (List.mapi
           (fun j b ->
             tup
               [ ("id", vi j); ("b", vi b); ("a", vi ((j * 7) mod 5));
                 ("f", fs.(j mod Array.length fs));
                 ("g", if j mod 6 = 5 then vs "s" else vi j) ])
           yb);
    ]

let band_catalogs =
  let xb = [ 0; 3; 3; 7; 1; 9; 5; 2; 8; 4; 6; 6 ] in
  let yb = [ 4; 1; 7; 2; 2; 5; 0; 6; 3; 7; 1; 4; 5; 2 ] in
  [
    ("mixed", band_catalog ~xb ~yb);
    ("empty left", band_catalog ~xb:[] ~yb);
    ("empty right", band_catalog ~xb ~yb:[]);
    ("equal build keys", band_catalog ~xb ~yb:(List.map (fun _ -> 4) yb));
    ("probe keys outside", band_catalog ~xb:[ -5; 50; -1; 99 ] ~yb);
    (* keys falling with the row id, so a short range (under an eighth of
       the build) lists its rows against key order, and groups such as
       {0, -0.0, 0.0} print as their first member in build order *)
    ( "descending build keys",
      band_catalog ~xb:[ 3; 1; 38; 20 ] ~yb:(List.init 40 (fun j -> 39 - j)) );
  ]

(* Each one-sided comparison, with the right key first and with the left
   key first. *)
let band_preds =
  List.concat_map
    (fun (op, flipped) ->
      [ Printf.sprintf "y.b %s x.b" op; Printf.sprintf "x.b %s y.b" flipped ])
    [ ("<", ">"); ("<=", ">="); (">", "<"); (">=", "<=") ]

(* A run's rendered value or its error, and its counters with the
   jobs-dependent ones zeroed. *)
let band_outcome ?(jobs = 1) ?(batch = 1024) catalog q =
  let stats = Stats.create () in
  let v =
    match Exec.run ~stats ~jobs ~gate:1 ~batch catalog q with
    | v -> Ok (Value.to_string v)
    | exception Value.Type_error msg -> Error msg
  in
  (v, { stats with Stats.partitions = 0; partition_max_rows = 0 })

(* The band of every kind is the nested loop's value, a nest join's groups
   printed byte for byte as the loop's [Value.set] prints them, or the
   same first error; widths 1 and 3 and jobs 4 with [~gate:1] give width
   1024's value and counters at jobs 1. Nest joins whose function reads
   only Y take their groups from the sorted prefixes; [y.f] meets equal
   values that print differently, and [y.g + 1] raises on some rows. *)
let test_band_joins () =
  let x = Plan.Table { name = "X"; var = "x" } in
  let y = Plan.Table { name = "Y"; var = "y" } in
  let nest ?(res = "") func =
    ( "nest join " ^ func ^ res,
      (fun pred ->
        Plan.Nestjoin
          { pred; func = parse func; label = "g"; left = x; right = y }),
      "(i = x.id, g = g)",
      res )
  in
  let kinds =
    [
      nest "y.a"; nest "y.f"; nest "y.g + 1"; nest "y.a + x.b";
      nest ~res:" AND y.a < 3" "y.f";
      ( "join",
        (fun pred -> Plan.Join { pred; left = x; right = y }),
        "(i = x.id, j = y.id, f = y.f)",
        "" );
      ( "outerjoin",
        (fun pred -> Plan.Outerjoin { pred; left = x; right = y }),
        "(i = x.id, j = y.id)",
        "" );
      ( "semijoin",
        (fun pred -> Plan.Semijoin { pred; left = x; right = y }),
        "x.id",
        "" );
      ( "semijoin",
        (fun pred -> Plan.Semijoin { pred; left = x; right = y }),
        "x.id",
        " AND y.a < 2" );
      ( "antijoin",
        (fun pred -> Plan.Antijoin { pred; left = x; right = y }),
        "x.id",
        "" );
      ( "antijoin",
        (fun pred -> Plan.Antijoin { pred; left = x; right = y }),
        "x.id",
        " AND y.a <> 1" );
    ]
  in
  let is_band = function
    | P.Join { how = P.Keyed { by = P.Sort cmp; _ }; _ } -> cmp <> P.Eq
    | _ -> false
  in
  let raised = ref 0 in
  List.iter
    (fun (cname, catalog) ->
      List.iter
        (fun (kname, logical, result, res) ->
          List.iter
            (fun pred ->
              let what = Printf.sprintf "%s [%s%s] on %s" kname pred res cname in
              let lp = logical (parse (pred ^ res)) in
              let query force =
                let options = { Core.Planner.default_options with force } in
                { P.plan = Core.Planner.plan ~options catalog lp;
                  result = parse result }
              in
              let loop = query Core.Planner.Force_nl in
              let band = query Core.Planner.Force_merge in
              Alcotest.(check bool) (what ^ ": a band") true (is_band band.P.plan);
              let expected = fst (band_outcome catalog loop) in
              if Result.is_error expected then incr raised;
              let got, stats = band_outcome catalog band in
              Alcotest.(check (result string string))
                (what ^ ": = nested loop") expected got;
              List.iter
                (fun (jobs, batch) ->
                  let got', stats' = band_outcome ~jobs ~batch catalog band in
                  Alcotest.(check (result string string))
                    (Printf.sprintf "%s: jobs=%d batch=%d value" what jobs batch)
                    got got';
                  Alcotest.(check string)
                    (Printf.sprintf "%s: jobs=%d batch=%d stats" what jobs batch)
                    (Fmt.str "%a" Stats.pp stats)
                    (Fmt.str "%a" Stats.pp stats'))
                [ (1, 1); (1, 3); (4, 1024) ])
            band_preds)
        kinds)
    band_catalogs;
  Alcotest.(check bool) "some function raised" true (!raised > 0)

let suite =
  suite
  @ [ Alcotest.test_case "band joins = nested loop" `Quick test_band_joins ]
