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
    (List.length (Batch.of_rows ~size:4 []));
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
    Alcotest.test_case "filter edge cases" `Quick test_filter_edges;
    Alcotest.test_case "join edge cases" `Quick test_join_edges;
    prop_batch_width_invariant;
    Alcotest.test_case "execute ~vector:false raises" `Quick
      test_no_row_engine;
  ]
