(* Differential testing on randomly generated nested queries.

   A generator assembles queries from the paper's shapes — WHERE-clause
   nesting with every Table 2 predicate family, SELECT-clause nesting,
   extra z-free conjuncts, multiple subqueries, two nesting levels — and
   every strategy must agree with the reference interpreter. A second
   property checks that the optimizer's output still type-checks against
   the algebra's schema inference (no rewrite may produce an ill-formed
   plan). *)

open Helpers
module Value = Cobj.Value

let make_catalog ~dangling =
  (* the XY tables plus a variant-typed attribute table for the tagged
     query templates *)
  let base =
    Workload.Gen.xy
      { Workload.Gen.default_xy with
        nx = 20; ny = 20; key_dom = 5; dangling; val_dom = 5; seed = 99 }
  in
  let tag_elt =
    Cobj.Ctype.ttuple
      [
        ("k", Cobj.Ctype.TInt);
        ( "v",
          Cobj.Ctype.tvariant
            [ ("num", Cobj.Ctype.TInt); ("txt", Cobj.Ctype.TString) ] );
      ]
  in
  let rng = Workload.Prng.create 7 in
  let rows =
    List.init 15 (fun i ->
        let v =
          if Workload.Prng.bool rng 0.5 then
            Cobj.Value.Variant ("num", Cobj.Value.Int (Workload.Prng.int rng 5))
          else
            Cobj.Value.Variant
              ("txt", Cobj.Value.String (Printf.sprintf "t%d" (Workload.Prng.int rng 3)))
        in
        Cobj.Value.tuple [ ("k", Cobj.Value.Int (i mod 6)); ("v", v) ])
  in
  Cobj.Catalog.add
    (Cobj.Table.create ~name:"TAGS" ~elt:tag_elt rows)
    base

let catalog = make_catalog ~dangling:0.25

(* every X row dangling: all hash-partitioned joins must reproduce the
   Δ-semantics tuples (empty sets / NULL pads / antijoin survivors) exactly *)
let all_dangling_catalog = make_catalog ~dangling:1.0

(* --- query generator ----------------------------------------------------- *)

open QCheck2.Gen

let inner_pred =
  oneofl
    [
      "x.b = y.b";
      "y.b = x.b";
      "x.b = y.b AND y.a > 2";
      "y.b < x.b";
      "x.b + 1 = y.b";
      "x.a = y.a AND x.b = y.b";
      "y.b = 3";
      (* uncorrelated *)
    ]

let inner_result = oneofl [ "y.a"; "y.b"; "y.a + y.b"; "y.id MOD 7" ]

(* an inner subquery over Y, possibly with a second nesting level *)
let subquery =
  let flat =
    map2
      (fun result pred -> Printf.sprintf "SELECT %s FROM Y y WHERE %s" result pred)
      inner_result inner_pred
  in
  let deep =
    map2
      (fun result pred ->
        Printf.sprintf
          "SELECT %s FROM Y y WHERE %s AND y.a IN (SELECT w.a FROM Y w WHERE \
           w.b = y.b)"
          result pred)
      inner_result inner_pred
  in
  frequency [ (3, flat); (1, deep) ]

let where_shape =
  oneofl
    [
      Printf.sprintf "x.a IN (%s)";
      Printf.sprintf "x.a NOT IN (%s)";
      Printf.sprintf "COUNT(%s) = 0";
      Printf.sprintf "COUNT(%s) <> 0";
      Printf.sprintf "x.a = COUNT(%s)";
      Printf.sprintf "x.s SUBSETEQ (%s)";
      Printf.sprintf "x.s SUPSETEQ (%s)";
      Printf.sprintf "x.s = (%s)";
      Printf.sprintf "x.a < MAX(%s)";
      Printf.sprintf "x.a > MIN(%s)";
      Printf.sprintf "x.a >= MAX(%s)";
      Printf.sprintf "EXISTS v IN (%s) (v = x.a)";
      Printf.sprintf "FORALL v IN (%s) (v > x.a)";
      (* quantified Table 2 families: SOME/ALL θ-comparisons spelled with
         EXISTS/FORALL, exercising the semijoin/antijoin split *)
      Printf.sprintf "EXISTS v IN (%s) (v < x.a)";
      Printf.sprintf "EXISTS v IN (%s) (v <> x.a)";
      Printf.sprintf "FORALL v IN (%s) (v <> x.a)";
      Printf.sprintf "FORALL v IN (%s) (v >= x.a)";
      (* strict set-containment variants alongside the SUBSETEQ ones above *)
      Printf.sprintf "x.s SUBSET (%s)";
      Printf.sprintf "(%s) SUBSETEQ x.s";
      Printf.sprintf "x.s SUPSET (%s)";
      Printf.sprintf "(%s) = {}";
      Printf.sprintf "(%s) <> {}";
      Printf.sprintf "x.s INTERSECT (%s) = {}";
    ]

let extra_conjunct =
  oneofl [ ""; " AND x.a > 2"; " AND x.id MOD 2 = 0"; " AND x.b < 4" ]

let select_clause = oneofl [ "x.id"; "x"; "(i = x.id, a = x.a)" ]

let where_query =
  map2
    (fun (shape, sub) (extra, select) ->
      Printf.sprintf "SELECT %s FROM X x WHERE %s%s" select (shape sub) extra)
    (pair where_shape subquery)
    (pair extra_conjunct select_clause)

let double_where_query =
  map2
    (fun (s1, q1) (s2, q2) ->
      Printf.sprintf "SELECT x.id FROM X x WHERE %s AND %s" (s1 q1) (s2 q2))
    (pair where_shape subquery)
    (pair where_shape subquery)

let select_query =
  map2
    (fun sub agg ->
      Printf.sprintf "SELECT (i = x.id, v = %s(%s)) FROM X x" agg sub)
    subquery
    (oneofl [ "COUNT"; "SUM" ])

let unnest_query =
  map
    (fun sub ->
      Printf.sprintf "UNNEST(SELECT (%s) FROM X x)" sub)
    subquery

(* templates exercising variants and conditionals through the optimizer *)
let variant_query =
  map2
    (fun shape k ->
      match shape with
      | 0 ->
        Printf.sprintf
          "SELECT x.id FROM X x WHERE EXISTS t IN (SELECT t FROM TAGS t \
           WHERE t.k = x.b) (t.v IS num)"
      | 1 ->
        Printf.sprintf
          "SELECT x.id FROM X x WHERE %d IN (SELECT IF t.v IS num THEN t.v \
           AS num ELSE 0 FROM TAGS t WHERE t.k = x.b)"
          k
      | _ ->
        Printf.sprintf
          "SELECT (i = x.id, vs = (SELECT t.v FROM TAGS t WHERE t.k = x.b \
           AND t.v IS txt)) FROM X x")
    (int_range 0 2) (int_range 0 4)

let query_gen =
  frequency
    [ (5, where_query); (2, double_where_query); (2, select_query);
      (1, unnest_query); (2, variant_query) ]

(* --- properties ---------------------------------------------------------- *)

let prop_strategies_agree =
  qcheck ~count:250 "all strategies agree with the interpreter on random queries"
    query_gen
    (fun src ->
      match Core.Pipeline.run Core.Pipeline.Interp catalog src with
      | Error msg -> QCheck2.Test.fail_reportf "interp failed on %s: %s" src msg
      | Ok reference ->
        List.for_all
          (fun strategy ->
            match Core.Pipeline.run strategy catalog src with
            | Ok v ->
              Value.equal reference v
              || QCheck2.Test.fail_reportf "%s differs on %s:@.ref = %a@.got = %a"
                   (Core.Pipeline.strategy_name strategy)
                   src Value.pp reference Value.pp v
            | Error msg ->
              QCheck2.Test.fail_reportf "%s failed on %s: %s"
                (Core.Pipeline.strategy_name strategy)
                src msg)
          Core.Pipeline.
            [ Naive; Decorrelated; Decorrelated_outerjoin; Ganski_wong ])

let prop_optimized_plans_typecheck =
  qcheck ~count:250 "optimized logical plans type-check" query_gen (fun src ->
      match
        Core.Pipeline.compile_string Core.Pipeline.Decorrelated catalog src
      with
      | Error msg -> QCheck2.Test.fail_reportf "compile failed on %s: %s" src msg
      | Ok { logical = Some q; _ } -> begin
        match Algebra.Typing.query_type catalog [] q with
        | Ok _ -> true
        | Error msg ->
          QCheck2.Test.fail_reportf "ill-typed optimized plan for %s: %s" src
            msg
      end
      | Ok { logical = None; _ } -> true)

let prop_optimized_plans_well_formed =
  qcheck ~count:250 "optimized logical plans are well-formed" query_gen
    (fun src ->
      match
        Core.Pipeline.compile_string Core.Pipeline.Decorrelated catalog src
      with
      | Error msg -> QCheck2.Test.fail_reportf "compile failed on %s: %s" src msg
      | Ok { logical = Some q; _ } -> begin
        match Algebra.Plan.well_formed q.Algebra.Plan.plan with
        | Ok () -> true
        | Error msg ->
          QCheck2.Test.fail_reportf "ill-formed optimized plan for %s: %s" src
            msg
      end
      | Ok { logical = None; _ } -> true)

(* Forced physical implementations agree too, on a smaller sample: each
   forced join method, on the mixed catalog and on the all-dangling one,
   computes the reference interpreter's value. Its physical plan gives the
   same value and the same complete Stats at batch widths 1 and 3, and as
   morsels on 4 domains with the row gate lowered to 1, as at width 1024
   serially — the morsel counters aside, which count slices. *)
let prop_forced_impls_agree =
  let module Stats = Engine.Stats in
  qcheck ~count:80 "forced physical implementations agree" query_gen
    (fun src ->
      List.for_all
        (fun (cname, cat) ->
          match Core.Pipeline.run Core.Pipeline.Interp cat src with
          | Error msg ->
            QCheck2.Test.fail_reportf "interp failed on %s (%s): %s" src cname
              msg
          | Ok reference ->
            List.for_all
              (fun force ->
                match
                  Core.Pipeline.compile_string
                    ~options:{ Core.Planner.default_options with force }
                    Core.Pipeline.Decorrelated cat src
                with
                | Error msg ->
                  QCheck2.Test.fail_reportf "forced impl failed on %s: %s" src
                    msg
                | Ok { Core.Pipeline.physical = None; _ } -> true
                | Ok { Core.Pipeline.physical = Some pq; _ } ->
                  let run ?(jobs = 1) ~batch () =
                    let stats = Stats.create () in
                    let v =
                      Engine.Exec.run ~stats ~jobs ~gate:1 ~batch cat pq
                    in
                    ( v,
                      { stats with Stats.partitions = 0; partition_max_rows = 0 }
                    )
                  in
                  let v, s = run ~batch:1024 () in
                  (Value.equal reference v
                  || QCheck2.Test.fail_reportf
                       "forced impl differs from interp on %s (%s):@.ref = \
                        %a@.got = %a"
                       src cname Value.pp reference Value.pp v)
                  && List.for_all
                       (fun (jobs, batch) ->
                         let v', s' = run ~jobs ~batch () in
                         (Value.equal v v' && s = s')
                         || QCheck2.Test.fail_reportf
                              "forced impl at jobs=%d batch=%d differs on %s \
                               (%s):@.%a@.vs %a"
                              jobs batch src cname Stats.pp s' Stats.pp s)
                       [ (1, 1); (1, 3); (4, 1024) ])
              Core.Planner.[ Force_nl; Force_hash; Force_merge ])
        [ ("mixed", catalog); ("all-dangling", all_dangling_catalog) ])

(* --- parallel execution ---------------------------------------------------- *)

(* Three-way differential oracle: reference interpreter vs serial engine vs
   morsel-parallel engine at 2 and 4 domains, on the mixed catalog and on
   an all-dangling one. The parallel runs lower the row gate to 1, so every
   hash operator probes as morsels even on these small catalogs.
   [Decorrelated] exercises the parallel hash joins; [Naive] keeps Apply
   nodes, exercising the correlated-stays-serial classification under a
   parallel outer plan. *)
let run_gated ~jobs strategy cat src =
  match Core.Pipeline.compile_string strategy cat src with
  | Error _ as e -> e
  | Ok { Core.Pipeline.physical = None; _ } -> Error "no physical plan"
  | Ok { Core.Pipeline.physical = Some pq; _ } -> (
    match Engine.Exec.run ~jobs ~gate:1 cat pq with
    | v -> Ok v
    | exception Cobj.Value.Type_error msg -> Error msg
    | exception Lang.Interp.Undefined msg -> Error msg)

(* Every hash operator that probed outside an apply subplan (which may run
   serially) ran its probe as morsels. *)
let rec morsels_ran (n : Engine.Stats.node) =
  let module Stats = Engine.Stats in
  match n.Stats.op with
  | "apply" | "apply(memo)" -> true
  | op ->
    (not
       (List.mem op
          [ "hash-join"; "hash-semijoin"; "hash-antijoin"; "hash-outerjoin";
            "hash-nestjoin" ]
       && n.Stats.counters.Stats.hash_probes > 0
       && n.Stats.counters.Stats.partitions = 0))
    && List.for_all morsels_ran n.Stats.children

let prop_parallel_agrees =
  qcheck ~count:120 "parallel execution agrees with serial and interpreter"
    query_gen
    (fun src ->
      List.for_all
        (fun (cname, cat) ->
          match Core.Pipeline.run Core.Pipeline.Interp cat src with
          | Error msg ->
            QCheck2.Test.fail_reportf "interp failed on %s (%s): %s" src cname
              msg
          | Ok reference ->
            List.for_all
              (fun strategy ->
                List.for_all
                  (fun jobs ->
                    match run_gated ~jobs strategy cat src with
                    | Ok v ->
                      Value.equal reference v
                      || QCheck2.Test.fail_reportf
                           "%s jobs=%d differs on %s (%s):@.ref = %a@.got = \
                            %a"
                           (Core.Pipeline.strategy_name strategy)
                           jobs src cname Value.pp reference Value.pp v
                    | Error msg ->
                      QCheck2.Test.fail_reportf "%s jobs=%d failed on %s (%s): %s"
                        (Core.Pipeline.strategy_name strategy)
                        jobs src cname msg)
                  [ 1; 2; 4 ])
              Core.Pipeline.[ Naive; Decorrelated ])
        [ ("mixed", catalog); ("all-dangling", all_dangling_catalog) ])

(* Merged parallel instrumentation is exact: the flat totals of the
   annotation tree and every node's rows_out are invariant in the domain
   count, on the mixed catalog and on the all-dangling one, with the gate
   lowered so that every probing hash operator runs as morsels. *)
let prop_parallel_stats_exact =
  let module Stats = Engine.Stats in
  let rec same_shape_rows (a : Stats.node) (b : Stats.node) =
    a.Stats.op = b.Stats.op
    && a.Stats.counters.Stats.rows_out = b.Stats.counters.Stats.rows_out
    && a.Stats.loops = b.Stats.loops
    && List.length a.Stats.children = List.length b.Stats.children
    && List.for_all2 same_shape_rows a.Stats.children b.Stats.children
  in
  let totals_equal (a : Stats.t) (b : Stats.t) =
    a.Stats.rows_out = b.Stats.rows_out
    && a.Stats.predicate_evals = b.Stats.predicate_evals
    && a.Stats.hash_builds = b.Stats.hash_builds
    && a.Stats.hash_probes = b.Stats.hash_probes
    && a.Stats.sorts = b.Stats.sorts
    && a.Stats.applies = b.Stats.applies
    && a.Stats.apply_hits = b.Stats.apply_hits
    (* bloom counters are jobs-invariant by design: morsels screen against
       the one shared filter *)
    && a.Stats.bloom_checks = b.Stats.bloom_checks
    && a.Stats.bloom_prunes = b.Stats.bloom_prunes
    && a.Stats.build_side_swaps = b.Stats.build_side_swaps
  in
  qcheck ~count:120 "merged parallel stats equal serial stats" query_gen
    (fun src ->
      List.for_all
        (fun (cname, cat) ->
          match
            Core.Pipeline.compile_string Core.Pipeline.Decorrelated cat src
          with
          | Error msg ->
            QCheck2.Test.fail_reportf "compile failed on %s: %s" src msg
          | Ok { physical = None; _ } -> true
          | Ok { physical = Some pq; _ } ->
            let instrument jobs =
              let tree = Engine.Analyze.tree_of_query pq in
              ignore
                (Engine.Exec.batches_instrumented ~jobs ~gate:1 tree cat
                   Cobj.Env.empty pq.Engine.Physical.plan);
              tree
            in
            let serial = instrument 1 in
            List.for_all
              (fun jobs ->
                let par = instrument jobs in
                (totals_equal (Stats.totals serial) (Stats.totals par)
                || QCheck2.Test.fail_reportf
                     "totals differ at jobs=%d on %s (%s):@.serial %a@.\
                      parallel %a"
                     jobs src cname Stats.pp (Stats.totals serial) Stats.pp
                     (Stats.totals par))
                && (same_shape_rows serial par
                   || QCheck2.Test.fail_reportf
                        "per-node rows_out differs at jobs=%d on %s (%s)" jobs
                        src cname)
                && (morsels_ran par
                   || QCheck2.Test.fail_reportf
                        "a hash operator probed without morsels at jobs=%d \
                         on %s (%s)"
                        jobs src cname))
              [ 2; 4 ])
        [ ("mixed", catalog); ("all-dangling", all_dangling_catalog) ])

let suite =
  [
    prop_strategies_agree;
    prop_optimized_plans_typecheck;
    prop_optimized_plans_well_formed;
    prop_forced_impls_agree;
    prop_parallel_agrees;
    prop_parallel_stats_exact;
  ]
