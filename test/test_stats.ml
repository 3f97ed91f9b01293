(* Per-operator instrumentation: the EXPLAIN ANALYZE annotation tree must
   attribute counters to the right node, agree across physical variants of
   the same operator, and sum to exactly what the legacy global [Stats.t]
   records. *)

open Helpers
module Env = Cobj.Env
module P = Engine.Physical
module Exec = Engine.Exec
module Stats = Engine.Stats
module Analyze = Engine.Analyze
module Pipeline = Core.Pipeline

let parse = Lang.Parser.expr
let sx = P.Scan { table = "X"; var = "x" }
let sy = P.Scan { table = "Y"; var = "y" }

let nl_nestjoin =
  loop_join (P.Nest { func = parse "y.a"; label = "s" }) (parse "x.b = y.b") sx
    sy

let hash_nestjoin =
  keyed_join P.Hash (P.Nest { func = parse "y.a"; label = "s" }) (parse "x.b")
    (parse "y.b") sx sy

let catalogs =
  [
    ("default", Workload.Gen.xy Workload.Gen.default_xy);
    ( "all dangling",
      Workload.Gen.xy
        { Workload.Gen.default_xy with dangling = 1.0; nx = 20; ny = 20; seed = 2 } );
    ( "empty inner",
      Workload.Gen.xy { Workload.Gen.default_xy with ny = 0; nx = 15; seed = 3 } );
    ( "dense keys",
      Workload.Gen.xy
        { Workload.Gen.default_xy with key_dom = 3; nx = 40; ny = 40; seed = 1 } );
  ]

let instrument catalog plan =
  let tree = Analyze.tree_of_plan plan in
  let rows =
    Engine.Batch.rows_of_batches
      (Exec.batches_instrumented tree catalog Env.empty plan)
  in
  (rows, tree)

let table_size catalog name =
  List.length (Cobj.Table.rows (Cobj.Catalog.find_exn name catalog))

(* Counters land on the node doing the work: the nest-join node owns the
   build and the probes, each scan child owns its own row production. The
   computed key [y.b + 0] keeps the build out of the cache, so the right
   scan runs; the bare-scan [hash_nestjoin] probes the cached build, with
   no right child, no build work and the same probes. *)
let per_node_attribution () =
  let catalog = List.assoc "default" catalogs in
  let nx = table_size catalog "X" and ny = table_size catalog "Y" in
  let built =
    keyed_join P.Hash (P.Nest { func = parse "y.a"; label = "s" }) (parse "x.b")
      (parse "y.b + 0") sx sy
  in
  let rows, tree = instrument catalog built in
  Alcotest.(check int) "nestjoin preserves left rows" nx (List.length rows);
  Alcotest.(check int) "root rows_out" nx tree.Stats.counters.Stats.rows_out;
  Alcotest.(check int) "one build insertion per right row" ny
    tree.Stats.counters.Stats.hash_builds;
  Alcotest.(check int) "one probe per left row" nx
    tree.Stats.counters.Stats.hash_probes;
  (match tree.Stats.children with
  | [ l; r ] ->
    Alcotest.(check string) "left child op" "scan" l.Stats.op;
    Alcotest.(check int) "left scan rows" nx l.Stats.counters.Stats.rows_out;
    Alcotest.(check int) "right scan rows" ny r.Stats.counters.Stats.rows_out;
    Alcotest.(check int) "scans do no hash work" 0
      (l.Stats.counters.Stats.hash_probes
      + l.Stats.counters.Stats.hash_builds
      + r.Stats.counters.Stats.hash_probes
      + r.Stats.counters.Stats.hash_builds)
  | cs -> Alcotest.failf "expected 2 children, got %d" (List.length cs));
  Alcotest.(check int) "each node ran once" 1 tree.Stats.loops;
  let cached_rows, cached = instrument catalog hash_nestjoin in
  Alcotest.(check int) "cached: same rows" (List.length rows)
    (List.length cached_rows);
  Alcotest.(check int) "cached: no build insertions" 0
    cached.Stats.counters.Stats.hash_builds;
  Alcotest.(check int) "cached: one probe per left row" nx
    cached.Stats.counters.Stats.hash_probes;
  Alcotest.(check (list string)) "cached: only the probe side runs"
    [ "scan" ]
    (List.map (fun c -> c.Stats.op) cached.Stats.children)

(* Hash and nested-loop nest-join must agree on rows_out everywhere in the
   tree — including catalogs where every left row is dangling, i.e. the
   nest-join emits [a = ∅] rows instead of dropping them. *)
let variants_agree () =
  List.iter
    (fun (cname, catalog) ->
      let nl_rows, nl_tree = instrument catalog nl_nestjoin in
      let h_rows, h_tree = instrument catalog hash_nestjoin in
      let canonical rows = List.sort Env.compare rows in
      Alcotest.(check bool)
        (cname ^ ": same result rows") true
        (List.length nl_rows = List.length h_rows
        && List.for_all2 Env.equal (canonical nl_rows) (canonical h_rows));
      Alcotest.(check int)
        (cname ^ ": rows_out agree")
        nl_tree.Stats.counters.Stats.rows_out
        h_tree.Stats.counters.Stats.rows_out;
      Alcotest.(check int)
        (cname ^ ": rows_out = left size (dangling rows kept)")
        (table_size catalog "X")
        h_tree.Stats.counters.Stats.rows_out)
    catalogs

(* Summing the annotation tree reproduces the legacy global counters
   field-for-field, on every operator the planner can emit. *)
let totals_match_global () =
  let queries =
    [
      "SELECT x.id FROM X x WHERE x.a IN (SELECT y.a FROM Y y WHERE x.b = y.b)";
      "SELECT (i = x.id, zs = (SELECT y.a FROM Y y WHERE y.b = x.b)) FROM X x";
      "SELECT x.id FROM X x WHERE COUNT(SELECT y.id FROM Y y WHERE x.b = y.b) = 0";
    ]
  in
  let strategies =
    Pipeline.[ Naive; Decorrelated; Decorrelated_outerjoin; Ganski_wong ]
  in
  let catalog = Workload.Gen.xy Workload.Gen.default_xy in
  List.iter
    (fun strategy ->
      List.iter
        (fun src ->
          let compiled =
            match Pipeline.compile_string strategy catalog src with
            | Ok c -> c
            | Error msg -> Alcotest.failf "compile %s: %s" src msg
          in
          let plan =
            match compiled.Pipeline.physical with
            | Some q -> q
            | None -> Alcotest.fail "no physical plan"
          in
          let global = Stats.create () in
          ignore (Exec.run ~stats:global catalog plan);
          let _, tree = Exec.run_instrumented catalog plan in
          let t = Stats.totals tree in
          let name field = Printf.sprintf "%s/%s: %s"
              (Pipeline.strategy_name strategy) src field in
          Alcotest.(check int) (name "rows_out")
            global.Stats.rows_out t.Stats.rows_out;
          Alcotest.(check int) (name "predicate_evals")
            global.Stats.predicate_evals t.Stats.predicate_evals;
          Alcotest.(check int) (name "hash_builds")
            global.Stats.hash_builds t.Stats.hash_builds;
          Alcotest.(check int) (name "hash_probes")
            global.Stats.hash_probes t.Stats.hash_probes;
          Alcotest.(check int) (name "sorts") global.Stats.sorts t.Stats.sorts;
          Alcotest.(check int) (name "applies")
            global.Stats.applies t.Stats.applies;
          Alcotest.(check int) (name "apply_hits")
            global.Stats.apply_hits t.Stats.apply_hits;
          Alcotest.(check int) (name "bloom_checks")
            global.Stats.bloom_checks t.Stats.bloom_checks;
          Alcotest.(check int) (name "bloom_prunes")
            global.Stats.bloom_prunes t.Stats.bloom_prunes;
          Alcotest.(check int) (name "build_side_swaps")
            global.Stats.build_side_swaps t.Stats.build_side_swaps)
        queries)
    strategies

let rec iter_nodes f node =
  f node;
  List.iter (iter_nodes f) node.Stats.children

(* Pipeline.analyze must leave no node without an estimate or an actual:
   est_rows comes from the cost model, rows_out/loops from execution. *)
let estimates_populated () =
  let catalog = xy_catalog () in
  let compiled =
    match
      Pipeline.compile_string Pipeline.Decorrelated catalog
        "SELECT (a = x.a, ys = (SELECT y.c FROM Y y WHERE y.d = x.b)) FROM X x"
    with
    | Ok c -> c
    | Error msg -> Alcotest.fail msg
  in
  match Pipeline.analyze catalog compiled with
  | Error msg -> Alcotest.fail msg
  | Ok (value, tree) ->
    let expected = run_strategy Pipeline.Interp catalog
        "SELECT (a = x.a, ys = (SELECT y.c FROM Y y WHERE y.d = x.b)) FROM X x"
    in
    Alcotest.check Helpers.value "analyze returns the query result"
      expected value;
    iter_nodes
      (fun n ->
        Alcotest.(check bool)
          (n.Stats.op ^ ": est_rows is a number") false
          (Float.is_nan n.Stats.est_rows);
        Alcotest.(check bool)
          (n.Stats.op ^ ": executed at least once") true (n.Stats.loops >= 1);
        Alcotest.(check bool)
          (n.Stats.op ^ ": time accumulated") true
          (Int64.compare n.Stats.time_ns 0L >= 0))
      tree

(* Under a naive (correlated) plan the subquery side of apply re-runs per
   outer row: its loop counter is the outer cardinality. *)
let apply_loops () =
  let catalog = xy_catalog () in
  let compiled =
    match
      Pipeline.compile_string Pipeline.Naive catalog
        "SELECT x.a FROM X x WHERE COUNT(SELECT y FROM Y y WHERE y.d = x.b) = 0"
    with
    | Ok c -> c
    | Error msg -> Alcotest.fail msg
  in
  match Pipeline.analyze catalog compiled with
  | Error msg -> Alcotest.fail msg
  | Ok (_, tree) ->
    let apply_node = ref None in
    iter_nodes
      (fun n ->
        if Astring.String.is_prefix ~affix:"apply" n.Stats.op then
          apply_node := Some n)
      tree;
    (match !apply_node with
    | None -> Alcotest.fail "no apply node in naive plan"
    | Some n -> (
      match n.Stats.children with
      | [ _input; sub ] ->
        Alcotest.(check int) "subplan loops = outer rows" 5 sub.Stats.loops
      | cs -> Alcotest.failf "apply arity %d" (List.length cs)))

(* The JSON rendering is self-contained and machine-safe: every required
   key present, no bare nan/inf tokens (est_rows of an unannotated tree
   serializes as null). *)
let json_shape () =
  let catalog = List.assoc "default" catalogs in
  let _, tree = instrument catalog hash_nestjoin in
  let doc = Engine.Json.to_string (Analyze.to_json tree) in
  List.iter
    (fun key ->
      Alcotest.(check bool) ("has " ^ key) true
        (Astring.String.is_infix ~affix:(Printf.sprintf "%S" key) doc))
    [ "op"; "detail"; "est_rows"; "rows_out"; "loops"; "time_ns";
      "predicate_evals"; "hash_builds"; "hash_probes"; "sorts"; "applies";
      "apply_hits"; "bloom_checks"; "bloom_prunes"; "build_side_swaps";
      "children" ];
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("no bare " ^ bad) false
        (Astring.String.is_infix ~affix:bad doc))
    [ "nan"; "inf" ]

(* Re-running an instrumented tree without reset accumulates; after
   [reset_node] the counters match a fresh run. *)
let reset_node () =
  let catalog = List.assoc "default" catalogs in
  let tree = Analyze.tree_of_plan hash_nestjoin in
  ignore (Exec.batches_instrumented tree catalog Env.empty hash_nestjoin);
  let once = tree.Stats.counters.Stats.rows_out in
  ignore (Exec.batches_instrumented tree catalog Env.empty hash_nestjoin);
  Alcotest.(check int) "accumulates" (2 * once)
    tree.Stats.counters.Stats.rows_out;
  Alcotest.(check int) "loops accumulate" 2 tree.Stats.loops;
  Stats.reset_node tree;
  Alcotest.(check int) "reset clears counters" 0
    tree.Stats.counters.Stats.rows_out;
  Alcotest.(check int) "reset clears loops" 0 tree.Stats.loops;
  ignore (Exec.batches_instrumented tree catalog Env.empty hash_nestjoin);
  Alcotest.(check int) "fresh after reset" once
    tree.Stats.counters.Stats.rows_out

(* --- Catalog statistics: one record per catalog ----------------------- *)

module Cstats = Cobj.Stats

(* A fresh, physically distinct one-table catalog; [seed] varies the rows. *)
let fresh_catalog seed =
  let elt = Ctype.ttuple [ ("k", Ctype.TInt); ("s", Ctype.TSet Ctype.TInt) ] in
  let row i =
    tup [ ("k", vi ((seed + i) mod 4)); ("s", vset (List.init (i mod 3) vi)) ]
  in
  Catalog.of_tables [ Table.create ~name:"T" ~elt (List.init 6 row) ]

(* Planning against b and c in between must not rescan a: its statistics
   come back as the very same list. *)
let catalog_stats_alternate () =
  let a = fresh_catalog 1 and b = fresh_catalog 2 and c = fresh_catalog 3 in
  let sa = Cstats.of_catalog a in
  let va = Cstats.version a in
  for _ = 1 to 3 do
    ignore (Cstats.of_catalog b);
    ignore (Cstats.version c);
    ignore (Cstats.of_catalog c);
    Alcotest.(check bool) "a not rescanned" true (Cstats.of_catalog a == sa);
    Alcotest.(check int) "a keeps its stamp" va (Cstats.version a)
  done;
  Alcotest.(check bool) "memo = scan" true (sa = Cstats.scan a)

(* No cap: 200 live catalogs get 200 distinct, growing stamps, and a
   catalog stamped before them keeps its stamp. *)
let catalog_stats_stamps () =
  let a = fresh_catalog 0 in
  let va = Cstats.version a in
  let cs = Array.init 200 (fun i -> fresh_catalog (1000 + i)) in
  let stamps = Array.map Cstats.version cs in
  Array.iteri
    (fun i v ->
      let prev = if i = 0 then va else stamps.(i - 1) in
      Alcotest.(check bool)
        (Printf.sprintf "stamp %d grows" i)
        true (v > prev))
    stamps;
  Alcotest.(check int) "a keeps its stamp" va (Cstats.version a);
  Alcotest.(check (array int)) "stamps are stable" stamps
    (Array.map Cstats.version cs)

(* A catalog stamped, scanned and planned through a server cache is
   collected once dropped: its record holds it only weakly, and the
   cache's plan and result entries do not reach it. *)
let catalog_stats_die_with_catalog () =
  let cache =
    Server.Cache.create ~plan_capacity:8 ~result_capacity:(1 lsl 20) ()
  in
  let weak = Weak.create 1 in
  let[@inline never] use seed =
    let c = fresh_catalog seed in
    ignore (Cstats.version c);
    ignore (Cstats.of_catalog c);
    (match
       Server.Cache.query cache Pipeline.Decorrelated c
         "SELECT t.s FROM T t WHERE t.k IN (SELECT u.k FROM T u WHERE u.s \
          = t.s)"
     with
    | Ok r ->
      Alcotest.(check bool) "planned and executed" true
        (r.Server.Cache.plan = Server.Cache.Miss
        && r.Server.Cache.result = Server.Cache.Miss)
    | Error _ -> Alcotest.fail "query failed");
    Weak.set weak 0 (Some c)
  in
  use 41;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "catalog collected" false (Weak.check weak 0);
  Alcotest.(check int) "its result stays cached" 1
    (Server.Cache.result_entries cache)

(* Four domains interleave of_catalog and version over 70 catalogs:
   every answer equals a fresh scan and every stamp is positive. *)
let catalog_stats_hammer () =
  let cs = Array.init 70 (fun i -> fresh_catalog (100 + i)) in
  let expected = Array.map Cstats.scan cs in
  let worker d () =
    let ok = ref true in
    for round = 0 to 5 do
      Array.iteri
        (fun i _ ->
          let j = (i * (d + 1) + round) mod Array.length cs in
          let v = Cstats.version cs.(j) in
          let s = Cstats.of_catalog cs.(j) in
          if v <= 0 || s <> expected.(j) then ok := false)
        cs
    done;
    !ok
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  List.iteri
    (fun d dom ->
      Alcotest.(check bool) (Printf.sprintf "domain %d" d) true
        (Domain.join dom))
    domains

let suite =
  [
    Alcotest.test_case "per-node attribution" `Quick per_node_attribution;
    Alcotest.test_case "hash vs nl nestjoin agree" `Quick variants_agree;
    Alcotest.test_case "tree totals = global stats" `Quick totals_match_global;
    Alcotest.test_case "est and actual populated" `Quick estimates_populated;
    Alcotest.test_case "apply subplan loop count" `Quick apply_loops;
    Alcotest.test_case "json shape" `Quick json_shape;
    Alcotest.test_case "reset_node" `Quick reset_node;
    Alcotest.test_case "catalog stats survive alternation" `Quick
      catalog_stats_alternate;
    Alcotest.test_case "catalog stats: distinct growing stamps" `Quick
      catalog_stats_stamps;
    Alcotest.test_case "catalog stats die with the catalog" `Quick
      catalog_stats_die_with_catalog;
    Alcotest.test_case "catalog stats 4-domain hammer" `Quick
      catalog_stats_hammer;
  ]
