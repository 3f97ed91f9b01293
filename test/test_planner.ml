(* Physical planner tests: implementation selection and forced modes. *)

open Helpers
module Plan = Algebra.Plan
module P = Engine.Physical
module Value = Cobj.Value

let catalog = Workload.Gen.xy Workload.Gen.default_xy
let x = Plan.Table { name = "X"; var = "x" }
let y = Plan.Table { name = "Y"; var = "y" }
let pred = parse "x.b = y.b"

let rec find_op pred plan =
  if pred plan then true
  else
    match plan with
    | P.Unit_row | P.Scan _ -> false
    | P.Filter { input; _ }
    | P.Unnest_op { input; _ }
    | P.Nest_op { input; _ }
    | P.Extend_op { input; _ }
    | P.Project_op { input; _ } ->
      find_op pred input
    | P.Join { left; right; _ } -> find_op pred left || find_op pred right
    | P.Apply_op { subquery; input; _ } ->
      find_op pred subquery.P.plan || find_op pred input
    | P.Union_op { left; right } -> find_op pred left || find_op pred right

let test_equi_join_hashes () =
  (* the hash join builds on the bare scan of Y, which makes its build side
     the cached table *)
  let physical =
    Core.Planner.plan catalog (Plan.Join { pred; left = x; right = y })
  in
  Alcotest.check Alcotest.bool "cached-build hash join selected" true
    (find_op
       (function
         | P.Join { kind = P.Inner; how = P.Keyed { by = P.Hash; _ }; _ } as p
           ->
           P.cached_build p = Some ("Y", "y", "b")
         | _ -> false)
       physical)

(* A predicate with neither an equi pair nor a one-sided band has only
   the nested loop. *)
let test_non_equi_join_nl () =
  let physical =
    Core.Planner.plan catalog
      (Plan.Join { pred = parse "x.b <> y.b"; left = x; right = y })
  in
  Alcotest.check Alcotest.bool "nested loops for non-equi" true
    (find_op
       (function
         | P.Join { kind = P.Inner; how = P.Loop _; _ } -> true | _ -> false)
       physical)

(* At scale 100, [Auto] runs a one-sided inequality as a band of the
   sort family for every join kind, [Force_merge] forces it and
   [Force_hash] has only the loop; with an equi pair beside it the
   inequality stays a hash join's residual. *)
let test_band_join () =
  let band = function
    | P.Join { how = P.Keyed { by = P.Sort (P.Lt | P.Le | P.Gt | P.Ge); _ }; _ }
      ->
      true
    | _ -> false
  in
  let loop = function P.Join { how = P.Loop _; _ } -> true | _ -> false in
  let hash = function
    | P.Join { how = P.Keyed { by = P.Hash; residual = Some _; _ }; _ } -> true
    | _ -> false
  in
  let joins pred =
    let pred = parse pred in
    [
      ("join", Plan.Join { pred; left = x; right = y });
      ("semijoin", Plan.Semijoin { pred; left = x; right = y });
      ("antijoin", Plan.Antijoin { pred; left = x; right = y });
      ("outerjoin", Plan.Outerjoin { pred; left = x; right = y });
      ( "nest join",
        Plan.Nestjoin
          { pred; func = parse "y.a"; label = "g"; left = x; right = y } );
    ]
  in
  let check force what shape pred =
    List.iter
      (fun (kind, logical) ->
        let options = { Core.Planner.default_options with force } in
        Alcotest.check Alcotest.bool
          (Printf.sprintf "%s: %s %s" pred kind what)
          true
          (find_op shape (Core.Planner.plan ~options catalog logical)))
      (joins pred)
  in
  List.iter
    (fun pred ->
      check Core.Planner.Auto "is a band" band pred;
      check Core.Planner.Force_merge "is a band" band pred;
      check Core.Planner.Force_hash "is a loop" loop pred)
    [ "y.b < x.b"; "x.b > y.b"; "y.b <= x.b"; "x.b >= y.b" ];
  check Core.Planner.Auto "stays a hash join" hash "x.b = y.b AND y.a > x.a";
  check Core.Planner.Force_merge "is an equi merge" (function
    | P.Join { how = P.Keyed { by = P.Sort P.Eq; _ }; _ } -> true
    | _ -> false)
    "x.b = y.b AND y.a > x.a"

let test_force_modes () =
  let logical = Plan.Join { pred; left = x; right = y } in
  let run options =
    Engine.Exec.rows catalog Cobj.Env.empty
      (Core.Planner.plan ~options catalog logical)
    |> List.sort_uniq Cobj.Env.compare
  in
  let auto = run Core.Planner.default_options in
  List.iter
    (fun force ->
      let got = run { Core.Planner.default_options with force } in
      Alcotest.check Alcotest.int "same cardinality under forced impl"
        (List.length auto) (List.length got);
      if not (List.for_all2 Cobj.Env.equal auto got) then
        Alcotest.fail "forced implementation changed the result")
    Core.Planner.[ Force_nl; Force_hash; Force_merge ]

let test_residual_extracted () =
  let logical =
    Plan.Join { pred = parse "x.b = y.b AND x.a < y.a"; left = x; right = y }
  in
  let physical = Core.Planner.plan catalog logical in
  Alcotest.check Alcotest.bool "equi key + residual" true
    (find_op
       (function
         | P.Join
             {
               kind = P.Inner;
               how = P.Keyed { by = P.Hash; residual = Some _; _ };
               _;
             } ->
           true
         | _ -> false)
       physical)

let test_multi_key_join () =
  let logical =
    Plan.Join { pred = parse "x.b = y.b AND x.a = y.a"; left = x; right = y }
  in
  let physical = Core.Planner.plan catalog logical in
  let uses_tuple_keys = function
    | P.Join
        {
          kind = P.Inner;
          how =
            P.Keyed
              {
                by = P.Hash;
                lkey = Lang.Ast.TupleE _;
                rkey = Lang.Ast.TupleE _;
                _;
              };
          _;
        } ->
      true
    | _ -> false
  in
  Alcotest.check Alcotest.bool "composite keys become tuples" true
    (find_op uses_tuple_keys physical);
  (* and the result matches the oracle *)
  let expected = Algebra.Sem.rows catalog Cobj.Env.empty logical in
  let got =
    Engine.Exec.rows catalog Cobj.Env.empty physical
    |> List.sort_uniq Cobj.Env.compare
  in
  Alcotest.check Alcotest.int "cardinality" (List.length expected)
    (List.length got)

let test_uncorrelated_apply_memoized () =
  let sub =
    { Plan.plan = Plan.Select { pred = parse "y.b = 3"; input = y };
      result = parse "y.a" }
  in
  let logical = Plan.Apply { var = "z"; subquery = sub; input = x } in
  let physical = Core.Planner.plan catalog logical in
  Alcotest.check Alcotest.bool "memo set" true
    (find_op (function P.Apply_op { memo; _ } -> memo | _ -> false) physical)

let test_correlated_apply_memo_option () =
  let sub =
    { Plan.plan = Plan.Select { pred = parse "y.b = x.b"; input = y };
      result = parse "y.a" }
  in
  let logical = Plan.Apply { var = "z"; subquery = sub; input = x } in
  let plain = Core.Planner.plan catalog logical in
  Alcotest.check Alcotest.bool "correlated not memoized by default" false
    (find_op (function P.Apply_op { memo; _ } -> memo | _ -> false) plain);
  let memoed =
    Core.Planner.plan
      ~options:{ Core.Planner.default_options with memo_applies = true }
      catalog logical
  in
  Alcotest.check Alcotest.bool "memo_applies forces memoization" true
    (find_op (function P.Apply_op { memo; _ } -> memo | _ -> false) memoed)

(* Every hash operator over a bare scan of Y probes the cached build of
   Y.b. Each runs cold (a freshly generated catalog, so a fresh table) and
   then warm, at jobs 1 and 4 with Bloom on and off; both runs must equal
   the reference interpreter, every operator's counters must be identical
   between them, and the hash operator counts no [hash_builds]. *)
let test_cached_builds_correct () =
  let fresh () = Workload.Gen.xy { Workload.Gen.default_xy with seed = 13 } in
  let sx = P.Scan { table = "X"; var = "x" } in
  let sy = P.Scan { table = "Y"; var = "y" } in
  let lkey = parse "x.b" and rkey = parse "y.b" in
  let nest_src =
    "SELECT (i = x.id, g = (SELECT y.a FROM Y y WHERE y.b = x.b)) FROM X x"
  in
  let cases =
    [
      ( "join",
        "SELECT (i = x.id, j = y.id) FROM X x, Y y WHERE x.b = y.b AND x.a < \
         y.a",
        {
          P.plan =
            keyed_join ~residual:(parse "x.a < y.a") P.Hash P.Inner lkey rkey sx
              sy;
          result = parse "(i = x.id, j = y.id)";
        } );
      ( "semijoin",
        "SELECT x.id FROM X x WHERE EXISTS y IN Y (x.b = y.b)",
        {
          P.plan =
            keyed_join P.Hash (P.Semi { anti = false }) lkey rkey sx sy;
          result = parse "x.id";
        } );
      ( "antijoin",
        "SELECT x.id FROM X x WHERE NOT EXISTS y IN Y (x.b = y.b)",
        {
          P.plan =
            keyed_join P.Hash (P.Semi { anti = true }) lkey rkey sx sy;
          result = parse "x.id";
        } );
      (* ν*(X ⟗ Y) = X Δ Y: the padded outerjoin regrouped by x *)
      ( "outerjoin",
        nest_src,
        {
          P.plan =
            P.Nest_op
              {
                by = [ "x" ];
                label = "g";
                func = parse "y.a";
                nulls = [ "y" ];
                input =
                  keyed_join P.Hash P.Outer lkey rkey sx sy;
              };
          result = parse "(i = x.id, g = g)";
        } );
      ( "nest join",
        nest_src,
        {
          P.plan =
            keyed_join P.Hash (P.Nest { func = parse "y.a"; label = "g" }) lkey
              rkey sx sy;
          result = parse "(i = x.id, g = g)";
        } );
    ]
  in
  List.iter
    (fun (name, src, q) ->
      let expected = run_strategy Core.Pipeline.Interp (fresh ()) src in
      List.iter
        (fun (jobs, bloom) ->
          let what = Printf.sprintf "%s, jobs=%d, bloom=%b" name jobs bloom in
          let catalog = fresh () in
          let y = Cobj.Catalog.find_exn "Y" catalog in
          Alcotest.(check bool) (what ^ ": fresh table is cold") false
            (Engine.Exec.is_cached y "b");
          let run () = Engine.Exec.run_instrumented ~jobs ~bloom catalog q in
          let cold, cold_tree = run () in
          Alcotest.(check bool) (what ^ ": cold run fills the cache") true
            (Engine.Exec.is_cached y "b");
          let warm, warm_tree = run () in
          Alcotest.check value (what ^ ": cold = interp") expected cold;
          Alcotest.check value (what ^ ": warm = interp") expected warm;
          let counters t = Engine.Analyze.to_string ~timing:false t in
          Alcotest.(check string) (what ^ ": counters cold = warm")
            (counters cold_tree) (counters warm_tree);
          let rec hash_node (n : Engine.Stats.node) =
            if String.starts_with ~prefix:"hash-" n.Engine.Stats.op then Some n
            else List.find_map hash_node n.Engine.Stats.children
          in
          match hash_node cold_tree with
          | Some n ->
            Alcotest.(check int) (what ^ ": no hash builds") 0
              n.Engine.Stats.counters.Engine.Stats.hash_builds
          | None -> Alcotest.fail (what ^ ": no hash operator"))
        [ (1, true); (1, false); (4, true); (4, false) ])
    cases;
  (* an empty probe side fetches nothing, so the entry stays cold *)
  let catalog = fresh () in
  let none = P.Filter { pred = parse "x.id < 0"; input = sx } in
  ignore
    (Engine.Exec.rows catalog Cobj.Env.empty
       (keyed_join P.Hash (P.Semi { anti = false }) lkey rkey none sy));
  Alcotest.(check bool) "empty probe side leaves the cache cold" false
    (Engine.Exec.is_cached (Cobj.Catalog.find_exn "Y" catalog) "b")

(* Two domains run the same cached-build join on a fresh catalog: the
   table is built once, under the cache lock, and both agree. *)
let test_cached_build_shared () =
  let module M = Obs.Metrics in
  let catalog = Workload.Gen.xy { Workload.Gen.default_xy with seed = 17 } in
  let q =
    {
      P.plan =
        keyed_join P.Hash (P.Nest { func = parse "y.a"; label = "g" })
          (parse "x.b") (parse "y.b") (P.Scan { table = "X"; var = "x" })
          (P.Scan { table = "Y"; var = "y" });
      result = parse "(i = x.id, g = g)";
    }
  in
  M.enable ();
  M.reset ();
  Fun.protect ~finally:M.disable (fun () ->
      let run () = Engine.Exec.run catalog q in
      let d1 = Domain.spawn run and d2 = Domain.spawn run in
      let v1 = Domain.join d1 and v2 = Domain.join d2 in
      Alcotest.check value "both domains agree" v1 v2;
      Alcotest.(check int) "built once" 1 (M.counter "exec.cached_builds"))

let test_cost_sanity () =
  (* hash beats nested loops on equal inputs at these sizes *)
  let sx = P.Scan { table = "X"; var = "x" } in
  let sy = P.Scan { table = "Y"; var = "y" } in
  let nl = loop_join P.Inner pred sx sy in
  let hash =
    keyed_join P.Hash P.Inner (parse "x.b") (parse "y.b") sx sy
  in
  Alcotest.check Alcotest.bool "cost(hash) < cost(nl)" true
    (Core.Cost.cost catalog hash < Core.Cost.cost catalog nl)

let suite =
  [
    Alcotest.test_case "equi join hashes" `Quick test_equi_join_hashes;
    Alcotest.test_case "non-equi join nested-loops" `Quick test_non_equi_join_nl;
    Alcotest.test_case "forced modes agree" `Quick test_force_modes;
    Alcotest.test_case "residual extraction" `Quick test_residual_extracted;
    Alcotest.test_case "composite keys" `Quick test_multi_key_join;
    Alcotest.test_case "uncorrelated apply memoized" `Quick
      test_uncorrelated_apply_memoized;
    Alcotest.test_case "memo_applies option" `Quick
      test_correlated_apply_memo_option;
    Alcotest.test_case "cached builds correct" `Quick
      test_cached_builds_correct;
    Alcotest.test_case "cached build shared by domains" `Quick
      test_cached_build_shared;
    Alcotest.test_case "cost model sanity" `Quick test_cost_sanity;
    Alcotest.test_case "band join for a one-sided inequality" `Quick
      test_band_join;
  ]
