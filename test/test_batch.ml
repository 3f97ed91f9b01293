(* The columnar batch engine (Engine.Batch / Engine.Vexpr / the batch
   operators in Engine.Exec).

   Two layers of evidence:
   - unit tests pinning the batch representation itself — chunking at the
     batch boundary, selection-vector narrowing, late-materialized
     environments — on the edge cases (empty batch, all-selected,
     singleton, rows straddling a batch boundary);
   - width differentials: on edge-case and random nested queries, every
     batch width must produce the same value AND the same Engine.Stats
     work profile as width 1024, and that value must equal the reference
     interpreter's. Agreement across jobs and catalogs is
     test_random_queries' parallel properties. *)

open Helpers
module Batch = Engine.Batch
module Exec = Engine.Exec
module Stats = Engine.Stats

(* --- batch representation ------------------------------------------------ *)

let values_of batches =
  List.map (Env.find "v") (Batch.rows_of_batches batches)

let test_batch_chunking () =
  (* A scan constructor splits at the batch boundary and preserves row
     order; the last batch straddles nothing and is short. *)
  let vals = List.init 5 (fun i -> Value.Int i) in
  let bs = Batch.of_values ~size:2 "v" Env.empty vals in
  Alcotest.(check (list int)) "chunk lengths" [ 2; 2; 1 ]
    (List.map Batch.live bs);
  Alcotest.(check int) "live total" 5 (Batch.live_total bs);
  Alcotest.(check (list value)) "row order preserved" vals (values_of bs);
  (* the empty input produces no batches at all *)
  Alcotest.(check int) "empty: no batches" 0
    (List.length (Batch.of_values ~size:2 "v" Env.empty []));
  Alcotest.(check int) "empty rows: no batches" 0
    (List.length (Batch.of_rows ~size:4 [] Env.empty []));
  (* a singleton input is one short batch *)
  let one = Batch.of_values ~size:1024 "v" Env.empty [ Value.Int 7 ] in
  Alcotest.(check (list int)) "singleton" [ 1 ] (List.map Batch.live one)

let test_selection_vectors () =
  let vals = List.init 4 (fun i -> Value.Int i) in
  let b = List.hd (Batch.of_values ~size:8 "v" Env.empty vals) in
  (* all-selected: an explicit full selection behaves like none at all *)
  let full = Batch.narrow b [| 0; 1; 2; 3 |] in
  Alcotest.(check int) "all selected" 4 (Batch.live full);
  Alcotest.(check (list value)) "all rows" vals (values_of [ full ]);
  (* a sparse selection keeps ascending live order *)
  let odd = Batch.narrow b [| 1; 3 |] in
  Alcotest.(check (list value)) "narrowed"
    [ Value.Int 1; Value.Int 3 ]
    (values_of [ odd ]);
  (* the empty selection is a live batch of zero rows *)
  let none = Batch.narrow b [||] in
  Alcotest.(check int) "none selected" 0 (Batch.live none);
  Alcotest.(check int) "no rows materialized" 0
    (List.length (Batch.to_rows none));
  (* a singleton selection *)
  let one = Batch.narrow b [| 2 |] in
  Alcotest.(check (list value)) "singleton selection" [ Value.Int 2 ]
    (values_of [ one ])

let test_late_materialization () =
  (* env_at layers columns over the shared tail exactly like the row
     engine's Env.bind nesting: newest column found first. *)
  let tail = Env.bind "outer" (Value.Int 99) Env.empty in
  let b = List.hd (Batch.of_values ~size:8 "v" tail [ Value.Int 0 ]) in
  let b = Batch.add_col b "w" (Batch.Const (Value.Int 5)) in
  let env = Batch.env_at b 0 in
  Alcotest.check value "new column" (Value.Int 5) (Env.find "w" env);
  Alcotest.check value "scan column" (Value.Int 0) (Env.find "v" env);
  Alcotest.check value "ambient tail" (Value.Int 99) (Env.find "outer" env)

(* [env_at] builds in one pass what binding the columns oldest-first over
   the tail built: same bindings in the same order, on random column sets
   whose names repeat and shadow the tail. *)
let prop_env_at_one_pass =
  let name = QCheck2.Gen.oneofl [ "a"; "b"; "c"; "d" ] in
  let binding =
    QCheck2.Gen.(pair name (map (fun i -> Value.Int i) small_int))
  in
  qcheck ~count:300 "env_at = fold of binds"
    QCheck2.Gen.(pair (list_size (int_range 0 5) binding)
                   (list_size (int_range 0 5) binding))
    (fun (cols, tail) ->
      let tail = Env.of_bindings tail in
      let b =
        Batch.of_cols 1 (List.map (fun (x, v) -> (x, Batch.Const v)) cols) tail
      in
      let old =
        List.fold_left
          (fun acc (x, v) -> Env.bind x v acc)
          tail (List.rev cols)
      in
      Env.bindings (Batch.env_at b 0) = Env.bindings old)

(* --- executor edge cases -------------------------------------------------- *)

(* Run one query at several batch widths against width 1024: identical
   value and identical full Stats (partition counters included — same
   jobs on every side), and the value must equal the reference
   interpreter's. *)
let differential ?(jobs = 1) ?(batches = [ 1; 2; 3; 7; 64 ]) catalog src =
  match
    Core.Pipeline.compile_string Core.Pipeline.Decorrelated catalog src
  with
  | Error msg -> Alcotest.failf "compile failed on %s: %s" src msg
  | Ok { Core.Pipeline.physical = None; _ } ->
    Alcotest.failf "no physical plan for %s" src
  | Ok { Core.Pipeline.physical = Some pq; _ } ->
    let run ~batch =
      let stats = Stats.create () in
      let v = Exec.run_under ~stats ~jobs ~batch catalog Env.empty pq in
      (v, stats)
    in
    let vref, sref = run ~batch:1024 in
    (match Core.Pipeline.run Core.Pipeline.Interp catalog src with
    | Ok v -> Alcotest.check value ("interpreter agrees on " ^ src) v vref
    | Error msg -> Alcotest.failf "interpreter failed on %s: %s" src msg);
    List.iter
      (fun batch ->
        let v, s = run ~batch in
        Alcotest.check value
          (Printf.sprintf "value (batch=%d) on %s" batch src)
          vref v;
        Alcotest.(check bool)
          (Printf.sprintf "stats (batch=%d) on %s" batch src)
          true (s = sref))
      batches

let test_filter_edges () =
  let catalog = xy_catalog () in
  (* all five X rows pass: every batch fully selected *)
  differential catalog "SELECT x.a FROM X x WHERE x.a >= 0";
  (* none pass: every batch narrows to empty and is dropped *)
  differential catalog "SELECT x.a FROM X x WHERE x.a > 100";
  (* exactly one passes (the dangling b = 5 row): singleton selection *)
  differential catalog "SELECT x.a FROM X x WHERE x.b = 5";
  (* a predicate whose matching rows straddle the batch-2 boundary *)
  differential catalog "SELECT x.b FROM X x WHERE x.a = 2"

let test_join_edges () =
  let catalog = xy_catalog () in
  differential catalog
    "SELECT x.a FROM X x WHERE x.a IN (SELECT y.c FROM Y y WHERE y.d = x.b)";
  differential catalog
    "SELECT (a = x.a, cs = (SELECT y.c FROM Y y WHERE y.d = x.b)) FROM X x";
  differential catalog
    "SELECT x.a FROM X x WHERE COUNT(SELECT y.c FROM Y y WHERE y.d = x.b) \
     = 0";
  (* arithmetic + comparison kernels in the extend/filter fragment *)
  differential catalog
    "SELECT x.a + x.b FROM X x WHERE x.a * 2 < x.b + 10 AND x.a MOD 2 = 0"

(* Batch-width sensitivity on random queries: the width is physical
   layout only, never semantics. Every width, serially and as morsels on 4
   domains (row gate lowered to 1), must reproduce serial width 1024's
   outcome (value or identical error) and complete Stats — the morsel
   counters aside, which count slices of each width's batches — and a
   value at 1024 must equal the reference interpreter's. *)
let prop_batch_width_invariant =
  qcheck ~count:60 "batch width never changes value or stats"
    Test_random_queries.query_gen
    (fun src ->
      let cat = Test_random_queries.catalog in
      match
        Core.Pipeline.compile_string Core.Pipeline.Decorrelated cat src
      with
      | Error msg ->
        QCheck2.Test.fail_reportf "compile failed on %s: %s" src msg
      | Ok { Core.Pipeline.physical = None; _ } -> true
      | Ok { Core.Pipeline.physical = Some pq; _ } ->
        let run ?(jobs = 1) ~batch () =
          let stats = Stats.create () in
          let outcome =
            match
              Exec.run_under ~stats ~jobs ~gate:1 ~batch cat Env.empty pq
            with
            | v -> Ok v
            | exception Cobj.Value.Type_error m -> Error m
            | exception Lang.Interp.Undefined m -> Error m
          in
          ( outcome,
            { stats with Stats.partitions = 0; partition_max_rows = 0 } )
        in
        let rv, rs = run ~batch:1024 () in
        let interp_agrees =
          match (Core.Pipeline.run Core.Pipeline.Interp cat src, rv) with
          | Ok a, Ok b -> Value.equal a b
          | Error _, Error _ -> true
          | _ -> false
        in
        (interp_agrees
        || QCheck2.Test.fail_reportf "interpreter differs on %s" src)
        && List.for_all
             (fun (jobs, batch) ->
               let vv, vs = run ~jobs ~batch () in
               let same =
                 match (rv, vv) with
                 | Ok a, Ok b -> Value.equal a b
                 | Error a, Error b -> String.equal a b
                 | _ -> false
               in
               (same && vs = rs)
               || QCheck2.Test.fail_reportf "jobs=%d batch=%d differs on %s"
                    jobs batch src)
             (List.concat_map
                (fun jobs -> List.map (fun b -> (jobs, b)) [ 1; 2; 3; 7; 64 ])
                [ 1; 4 ]
             @ [ (4, 1024) ]))

(* --- the columnar hash-join family ------------------------------------- *)

module P = Engine.Physical

let e = Lang.Parser.expr
let scan table var = P.Scan { table; var }

(* Output rows and counters of a plan, with the row-fallback count. *)
let run_plan ?(batch = 1024) catalog plan =
  let stats = Stats.create () in
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.enable ();
  let before = Obs.Metrics.counter "exec.batch.kernel_fallbacks" in
  let bs = Exec.batches ~stats ~batch catalog Env.empty plan in
  let fell = Obs.Metrics.counter "exec.batch.kernel_fallbacks" - before in
  if not was then Obs.Metrics.disable ();
  (bs, stats, fell)

(* Every hash operator over X x and Y y, cached builds ([y.d]) and built
   ones ([y.d + 0]) alike. *)
let hash_family rkey =
  let lkey = e "x.b" and left = scan "X" "x" and right = scan "Y" "y" in
  let residual = Some (e "y.c >= x.a") in
  [
    ("join", keyed_join P.Hash P.Inner lkey rkey left right);
    ("join+residual", keyed_join ?residual P.Hash P.Inner lkey rkey left right);
    ( "semijoin",
      keyed_join P.Hash (P.Semi { anti = false }) lkey rkey left right );
    ( "semijoin+residual",
      keyed_join ?residual P.Hash (P.Semi { anti = false }) lkey rkey left
        right );
    ( "antijoin+residual",
      keyed_join ?residual P.Hash (P.Semi { anti = true }) lkey rkey left right
    );
    ( "outerjoin+residual",
      keyed_join ?residual P.Hash P.Outer lkey rkey left right );
    ( "nestjoin+residual",
      keyed_join ?residual P.Hash
        (P.Nest { func = e "y.c + x.a"; label = "z" })
        lkey rkey left right );
  ]

(* Every sort-merge operator over X x and Y y. *)
let merge_family rkey =
  let lkey = e "x.b" and left = scan "X" "x" and right = scan "Y" "y" in
  let residual = Some (e "y.c >= x.a") in
  [
    ("merge join", keyed_join (P.Sort P.Eq) P.Inner lkey rkey left right);
    ( "merge join+residual",
      keyed_join ?residual (P.Sort P.Eq) P.Inner lkey rkey left right );
    ( "merge semijoin",
      keyed_join (P.Sort P.Eq) (P.Semi { anti = false }) lkey rkey left right );
    ( "merge antijoin+residual",
      keyed_join ?residual (P.Sort P.Eq) (P.Semi { anti = true }) lkey rkey left right
    );
    ( "merge outerjoin+residual",
      keyed_join ?residual (P.Sort P.Eq) P.Outer lkey rkey left right );
    ( "merge nestjoin+residual",
      keyed_join ?residual (P.Sort P.Eq)
        (P.Nest { func = e "y.c + x.a"; label = "z" })
        lkey rkey left right );
  ]

(* The hash and sort-merge families emit a column per output variable,
   with no batch falling back to the row closures. *)
let test_hash_family_columns () =
  let catalog = xy_catalog () in
  List.iter
    (fun rkey ->
      List.iter
        (fun (name, plan) ->
          List.iter
            (fun batch ->
              let bs, _, fell = run_plan ~batch catalog plan in
              Alcotest.(check int) (name ^ ": no row fallback") 0 fell;
              List.iter
                (fun b ->
                  List.iter
                    (fun x ->
                      Alcotest.(check bool)
                        (Printf.sprintf "%s: column %s" name x)
                        true
                        (Option.is_some (Batch.col b x)))
                    (P.vars_of plan))
                bs)
            [ 1; 2; 1024 ])
        (hash_family rkey @ merge_family rkey))
    [ e "y.d"; e "y.d + 0" ]

let test_merge_order () =
  (* Keys arrive unsorted and repeat on both sides: the output comes out in
     ascending left-key order; within a key, left rows in input order, each
     with its right matches in input order. *)
  let catalog =
    Catalog.of_tables
      [
        Table.create ~name:"X"
          ~elt:(Ctype.ttuple [ ("i", Ctype.TInt); ("k", Ctype.TInt) ])
          (List.map
             (fun (i, k) -> tup [ ("i", vi i); ("k", vi k) ])
             [ (1, 3); (2, 1); (3, 3); (4, 2); (5, 1); (6, 9) ]);
        Table.create ~name:"Y"
          ~elt:(Ctype.ttuple [ ("j", Ctype.TInt); ("k", Ctype.TInt) ])
          (List.map
             (fun (j, k) -> tup [ ("j", vi j); ("k", vi k) ])
             [ (10, 1); (20, 3); (30, 1); (40, 2); (50, 3) ]);
      ]
  in
  let plan =
    keyed_join (P.Sort P.Eq) P.Inner (e "x.k") (e "y.k") (scan "X" "x") (scan "Y" "y")
  in
  List.iter
    (fun batch ->
      let bs, stats, _ = run_plan ~batch catalog plan in
      let pairs =
        List.map
          (fun r ->
            let f v l = Value.field l (Env.find v r) in
            match f "x" "i", f "y" "j" with
            | Value.Int i, Value.Int j -> (i, j)
            | _ -> Alcotest.fail "non-integer id")
          (Batch.rows_of_batches bs)
      in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "merge order (batch=%d)" batch)
        [ (2, 10); (2, 30); (5, 10); (5, 30); (4, 40); (1, 20); (1, 50);
          (3, 20); (3, 50) ]
        pairs;
      Alcotest.(check int) "both sides sorted" 11 stats.Stats.sorts;
      Alcotest.(check int) "no hash probes" 0 stats.Stats.hash_probes)
    [ 1; 2; 1024 ]

let test_cached_gather () =
  (* A cached build ([y.d], a bare scan keyed on a field) and the same
     build hashed at run time ([y.d + 0]) give the same rows in the same
     order, and the operator itself counts alike but for [hash_builds]
     (the scan under the built one counts its own rows). *)
  let catalog = xy_catalog () in
  let run plan =
    let tree = Engine.Analyze.tree_of_plan plan in
    let rows =
      Batch.rows_of_batches
        (Exec.batches_instrumented tree catalog Env.empty plan)
    in
    (rows, tree.Stats.counters)
  in
  List.iter2
    (fun (name, cached) (_, built) ->
      Alcotest.(check bool) (name ^ ": cached") true
        (Option.is_some (P.cached_build cached));
      let crows, cs = run cached in
      let brows, bs = run built in
      Alcotest.(check bool) (name ^ ": same rows, same order") true
        (List.equal Env.equal crows brows);
      Alcotest.(check int) (name ^ ": cached counts no build") 0
        cs.Stats.hash_builds;
      Alcotest.(check bool) (name ^ ": built counts its build") true
        (bs.Stats.hash_builds > 0);
      Alcotest.(check bool) (name ^ ": other counters") true
        ({ cs with Stats.hash_builds = 0 } = { bs with Stats.hash_builds = 0 }))
    (hash_family (e "y.d"))
    (hash_family (e "y.d + 0"))

let test_semijoin_stops_at_first_match () =
  (* X's one row matches three Y rows, in order a = 1, 2, 3. The residual
     is false on the first, true on the second and raises (division by
     zero) on the third, which the row loop never evaluates. The kernel,
     run over all three, does; the batch is replayed, and the answer is
     the row loop's: the row kept, two evaluations, no error. *)
  let catalog =
    Catalog.of_tables
      [
        Table.create ~name:"X" ~elt:(Ctype.ttuple [ ("b", Ctype.TInt) ])
          [ tup [ ("b", vi 1) ] ];
        Table.create ~name:"Y"
          ~elt:(Ctype.ttuple [ ("a", Ctype.TInt); ("b", Ctype.TInt) ])
          (List.map (fun a -> tup [ ("a", vi a); ("b", vi 1) ]) [ 1; 2; 3 ]);
      ]
  in
  let plan =
    keyed_join
      ~residual:(e "y.a = 2 OR 10 / (y.a - 3) = 7")
      P.Hash (P.Semi { anti = false }) (e "x.b") (e "y.b + 0") (scan "X" "x")
      (scan "Y" "y")
  in
  let kernel_rows, ks, fell = run_plan catalog plan in
  let row_rows, rs =
    let enabled = !Engine.Compile.enabled in
    Engine.Compile.enabled := false;
    Fun.protect
      ~finally:(fun () -> Engine.Compile.enabled := enabled)
      (fun () ->
        let bs, s, _ = run_plan catalog plan in
        (bs, s))
  in
  Alcotest.(check int) "one row kept" 1 (Batch.live_total kernel_rows);
  Alcotest.(check int) "row path agrees" 1 (Batch.live_total row_rows);
  Alcotest.(check int) "evaluations up to the first true match" 2
    ks.Stats.predicate_evals;
  Alcotest.(check bool) "counters = row path's" true (ks = rs);
  Alcotest.(check int) "the raising batch was replayed" 1 fell

(* [~vector:false] names an engine that does not exist: the pipeline
   rejects it instead of silently running the only one there is. *)
let test_no_row_engine () =
  let catalog = xy_catalog () in
  match
    Core.Pipeline.compile_string Core.Pipeline.Decorrelated catalog
      "SELECT x.a FROM X x"
  with
  | Error msg -> Alcotest.failf "compile failed: %s" msg
  | Ok compiled ->
    Alcotest.check_raises "execute ~vector:false"
      (Invalid_argument "Pipeline: ~vector:false (there is no row engine)")
      (fun () ->
        ignore (Core.Pipeline.execute ~vector:false catalog compiled));
    Alcotest.check value "execute ~vector:true"
      (Core.Pipeline.execute catalog compiled)
      (Core.Pipeline.execute ~vector:true catalog compiled)

let suite =
  [
    Alcotest.test_case "batch chunking" `Quick test_batch_chunking;
    Alcotest.test_case "selection vectors" `Quick test_selection_vectors;
    Alcotest.test_case "late materialization" `Quick test_late_materialization;
    prop_env_at_one_pass;
    Alcotest.test_case "hash family: columns out" `Quick
      test_hash_family_columns;
    Alcotest.test_case "hash family: cached gather = built" `Quick
      test_cached_gather;
    Alcotest.test_case "semijoin stops at its first match" `Quick
      test_semijoin_stops_at_first_match;
    Alcotest.test_case "filter edge cases" `Quick test_filter_edges;
    Alcotest.test_case "join edge cases" `Quick test_join_edges;
    prop_batch_width_invariant;
    Alcotest.test_case "execute ~vector:false raises" `Quick
      test_no_row_engine;
    Alcotest.test_case "merge join output order" `Quick test_merge_order;
  ]
