(* Expression compiler tests: compiled closures must agree with the
   reference interpreter on every expression and environment — including
   the Undefined-aggregate behaviour of predicates. *)

open Helpers
module Value = Cobj.Value
module Env = Cobj.Env
module Ast = Lang.Ast

let cat = xy_catalog ()

let env =
  Env.of_bindings
    [
      ("x", tup [ ("a", vi 3); ("b", vi 1); ("s", vset [ vi 1; vi 2 ]) ]);
      ("n", vi 7);
      ("e", vset []);
    ]

let agree src =
  let e = Ast.resolve_tables cat (parse src) in
  let interpreted =
    match Lang.Interp.eval cat env e with
    | v -> Ok v
    | exception Lang.Interp.Undefined m -> Error (`Undefined m)
    | exception Value.Type_error m -> Error (`Type m)
  in
  let compiled =
    match Engine.Compile.expr cat e env with
    | v -> Ok v
    | exception Lang.Interp.Undefined m -> Error (`Undefined m)
    | exception Value.Type_error m -> Error (`Type m)
  in
  match interpreted, compiled with
  | Ok a, Ok b ->
    Alcotest.check value src a b
  | Error (`Undefined _), Error (`Undefined _)
  | Error (`Type _), Error (`Type _) ->
    ()
  | _, _ -> Alcotest.failf "%s: interpreter and compiler disagree on outcome" src

let corpus =
  [
    "1 + 2 * n - x.a";
    "7 / 2"; "7.5 / 2"; "7 MOD 3"; "-x.a"; "- -3";
    "x.a = 3 AND x.b < 2 OR false";
    "NOT (x.a IN x.s)";
    "x.s UNION {3} EXCEPT {1}";
    "x.s SUBSETEQ {1, 2, 3}"; "{1} SUBSET x.s"; "x.s SUPSETEQ {2}";
    "COUNT(x.s)"; "SUM(x.s)"; "MIN(x.s)"; "MAX(x.s)"; "AVG(x.s)";
    "MIN(e)"; (* undefined *)
    "COUNT(e) = 0 AND MIN(e) > 0"; (* short-circuit saves it *)
    "EXISTS v IN x.s (v = x.b)";
    "FORALL v IN x.s (v < n)";
    "x.a IN z WITH z = {3, 4}";
    "UNNEST({{1}, {2, 3}, {}})";
    "(u = x.a, v = {x.b})";
    "[1, 2, 2]";
    "COUNT(X)"; (* table reference *)
    "COUNT(SELECT y FROM Y y WHERE y.d = x.b)"; (* inline SFW fallback *)
    "1 / 0"; (* type error both sides *)
    "x.a + \"s\""; (* type error *)
  ]

let test_corpus () = List.iter agree corpus

let test_pred_undefined_is_false () =
  let p = parse "MIN(e) > 0" in
  Alcotest.check Alcotest.bool "undefined → false" false
    (Engine.Compile.pred cat p env)

(* An arithmetic filter and a hash semijoin: both run on columnar batches,
   whose expression kernels must step aside when compilation is off. *)
let batch_query =
  "SELECT x.a FROM X x WHERE x.a * 2 + 1 > x.b AND x.b IN (SELECT y.d FROM \
   Y y WHERE y.c = x.a)"

let test_disabled_falls_back () =
  let compiled =
    match
      Core.Pipeline.compile_string
        ~options:
          { Core.Planner.default_options with force = Core.Planner.Force_hash }
        Core.Pipeline.Decorrelated cat batch_query
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "compile failed: %s" msg
  in
  let rec has f plan =
    f plan || List.exists (has f) (Engine.Analyze.children plan)
  in
  let plan =
    match compiled.Core.Pipeline.physical with
    | Some pq -> pq.Engine.Physical.plan
    | None -> Alcotest.fail "no physical plan"
  in
  Alcotest.(check bool) "plan has a hash semijoin" true
    (has
       (function
         | Engine.Physical.Join
             {
               kind = Engine.Physical.Semi _;
               how = Engine.Physical.Keyed { by = Engine.Physical.Hash; _ };
               _;
             } ->
           true
         | _ -> false)
       plan);
  Alcotest.(check bool) "plan has a filter" true
    (has (function Engine.Physical.Filter _ -> true | _ -> false) plan);
  let expected = Core.Pipeline.execute ~jobs:1 cat compiled in
  Engine.Compile.enabled := false;
  Fun.protect
    ~finally:(fun () -> Engine.Compile.enabled := true)
    (fun () ->
      List.iter agree corpus;
      Alcotest.check value batch_query expected
        (Core.Pipeline.execute ~jobs:1 cat compiled))

(* randomized: reuse the parser fuzz generator, evaluating under [env];
   outcomes (value / undefined / type error) must match exactly *)
let prop_random_agreement =
  qcheck ~count:400 "compiled = interpreted on random expressions"
    Test_parser.expr_gen
    (fun e0 ->
      let e =
        Ast.resolve_tables cat
          (Ast.subst "x" (Ast.Const (Env.find "x" env))
             (Ast.subst "y" (Ast.Const (vset [ vi 1 ])) e0))
      in
      let outcome f =
        match f () with
        | v -> `Ok v
        | exception Lang.Interp.Undefined _ -> `Undefined
        | exception Value.Type_error _ -> `Type_error
        | exception Stack_overflow -> `Overflow
      in
      let a = outcome (fun () -> Lang.Interp.eval cat Env.empty e) in
      let b = outcome (fun () -> Engine.Compile.expr cat e Env.empty) in
      match a, b with
      | `Ok va, `Ok vb -> Value.equal va vb
      | `Undefined, `Undefined | `Type_error, `Type_error
      | `Overflow, `Overflow ->
        true
      | _, _ -> false)

let suite =
  [
    Alcotest.test_case "corpus agreement" `Quick test_corpus;
    Alcotest.test_case "pred: undefined is false" `Quick
      test_pred_undefined_is_false;
    Alcotest.test_case "disabled falls back to interpreter" `Quick
      test_disabled_falls_back;
    prop_random_agreement;
  ]
