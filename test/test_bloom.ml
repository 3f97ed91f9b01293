(* Bloom-filter sideways information passing: filter unit properties,
   one-pass catalog statistics, the runtime build-side swap, and a
   differential property that pruning is invisible — same values, same
   counters modulo the bloom-specific ones — across bloom on/off and
   every domain count. *)

open Helpers
module Value = Cobj.Value
module Env = Cobj.Env
module Cstats = Cobj.Stats
module P = Engine.Physical
module Exec = Engine.Exec
module Stats = Engine.Stats
module Bloom = Engine.Bloom
module Pipeline = Core.Pipeline

let parse = Lang.Parser.expr

(* --- the filter itself --------------------------------------------------- *)

let hashes n = List.init n (fun i -> Value.hash (Value.Int (i * 7919)))

(* A filter driven past 1/2 fill ratio must still answer [mem] for every
   inserted hash — false positives are allowed, false negatives never. *)
let no_false_negatives () =
  let f = Bloom.create 16 in
  let hs = hashes 400 in
  List.iter (Bloom.add f) hs;
  Alcotest.(check bool) "saturated past 1/2" true (Bloom.fill_ratio f >= 0.5);
  List.iter
    (fun h -> Alcotest.(check bool) "added hash is member" true (Bloom.mem f h))
    hs

(* --- catalog statistics -------------------------------------------------- *)

(* Hand-checked numbers on the fixture catalog: X.a = {1,2,0,3,2},
   X.b = {1,1,5,3,3}, X.s = {{1,2},{1},∅,{3},{2,3}}, Y.c = {1,2,3,2,9},
   Y.d = {1,1,3,3,9}. *)
let catalog_stats () =
  let catalog = xy_catalog () in
  let s = Cstats.scan catalog in
  let check_rows name n =
    Alcotest.(check (option int)) (name ^ " rows") (Some n)
      (Cstats.row_count catalog name)
  in
  check_rows "X" 5;
  check_rows "Y" 5;
  let check_ndv table field n =
    Alcotest.(check (option int))
      (Printf.sprintf "%s.%s ndv" table field)
      (Some n)
      (Cstats.ndv catalog ~table ~field)
  in
  check_ndv "X" "a" 4;
  check_ndv "X" "b" 3;
  check_ndv "Y" "c" 4;
  check_ndv "Y" "d" 3;
  Alcotest.(check (option (float 1e-9))) "X.s avg set cardinality"
    (Some 1.2)
    (Cstats.avg_set_card catalog ~table:"X" ~field:"s");
  (match Cstats.attr s "X" "s" with
  | None -> Alcotest.fail "no stats for X.s"
  | Some a ->
    Alcotest.(check (option (float 1e-9))) "X.s empty fraction" (Some 0.2)
      a.Cstats.empty_frac;
    Alcotest.(check (float 1e-9)) "X.s null fraction" 0.0 a.Cstats.null_frac);
  Alcotest.(check (option int)) "missing table" None
    (Cstats.row_count catalog "NOPE");
  Alcotest.(check bool) "of_catalog memoizes" true
    (Cstats.of_catalog catalog == Cstats.of_catalog catalog)

(* --- runtime build-side swap --------------------------------------------- *)

let swap_catalog =
  Workload.Gen.xy
    { Workload.Gen.default_xy with nx = 8; ny = 40; key_dom = 5; seed = 11 }

(* The computed right key keeps the build out of the cache, so the right
   operand is a run-time build the executor may swap. *)
let join ~left ~right =
  let lv, rv = if left = "X" then ("x", "y") else ("y", "x") in
  keyed_join P.Hash P.Inner (parse (lv ^ ".b")) (parse (rv ^ ".b + 0"))
    (P.Scan { table = left; var = lv }) (P.Scan { table = right; var = rv })

let canonical rows = List.sort Env.compare rows

(* Parallel runs lower the row gate to 1, so they probe as morsels. *)
let run_counted ?(jobs = 1) plan =
  let stats = Stats.create () in
  let rows = Exec.rows ~stats ~jobs ~gate:1 swap_catalog Env.empty plan in
  if jobs > 1 then
    Alcotest.(check bool)
      (Printf.sprintf "jobs=%d: probed as morsels" jobs)
      true (stats.Stats.partitions > 0);
  (rows, stats)

(* The commutative hash join builds on the smaller operand whichever side
   it appears on; the merged rows are identical to an unswapped plan. *)
let build_side_swap () =
  List.iter
    (fun jobs ->
      let tag s = Printf.sprintf "jobs=%d: %s" jobs s in
      (* X (8 rows) on the left, Y (40 rows) on the right: the estimated
         build side (right) is bigger, so the executor swaps. *)
      let rows_xy, st_xy = run_counted ~jobs (join ~left:"X" ~right:"Y") in
      Alcotest.(check int) (tag "swapped once") 1 st_xy.Stats.build_side_swaps;
      Alcotest.(check int) (tag "builds on the 8-row side") 8
        st_xy.Stats.hash_builds;
      Alcotest.(check int) (tag "probes with the 40-row side") 40
        st_xy.Stats.hash_probes;
      (* Y on the left: the right side is already the smaller one. *)
      let rows_yx, st_yx = run_counted ~jobs (join ~left:"Y" ~right:"X") in
      Alcotest.(check int) (tag "no swap needed") 0 st_yx.Stats.build_side_swaps;
      Alcotest.(check int) (tag "still builds on 8") 8 st_yx.Stats.hash_builds;
      Alcotest.(check int) (tag "still probes with 40") 40
        st_yx.Stats.hash_probes;
      (* Both orientations and a nested-loop reference agree on the rows. *)
      let nl =
        loop_join P.Inner (parse "x.b = y.b")
          (P.Scan { table = "X"; var = "x" })
          (P.Scan { table = "Y"; var = "y" })
      in
      let rows_nl = Exec.rows swap_catalog Env.empty nl in
      let check_same name a b =
        Alcotest.(check bool) (tag name) true
          (List.length a = List.length b
          && List.for_all2 Env.equal (canonical a) (canonical b))
      in
      check_same "swapped = nested loop" rows_nl rows_xy;
      check_same "orientations agree" rows_xy rows_yx;
      (* A cached build side is never swapped: its table already exists. *)
      let cached =
        keyed_join P.Hash P.Inner (parse "x.b") (parse "y.b")
          (P.Scan { table = "X"; var = "x" })
          (P.Scan { table = "Y"; var = "y" })
      in
      let rows_c, st_c = run_counted ~jobs cached in
      Alcotest.(check int) (tag "cached: no swap") 0
        st_c.Stats.build_side_swaps;
      Alcotest.(check int) (tag "cached: no builds") 0 st_c.Stats.hash_builds;
      Alcotest.(check int) (tag "cached: probes with the 8 left rows") 8
        st_c.Stats.hash_probes;
      check_same "cached = nested loop" rows_nl rows_c)
    [ 1; 4 ]

(* §7: the nest join's left operand is preserved, so it must stay on the
   probe side no matter how lopsided the cardinalities are. The computed
   right key keeps the build out of the cache, so it is built per run. *)
let nestjoin_never_swaps () =
  let nj =
    keyed_join P.Hash (P.Nest { func = parse "y.a"; label = "g" }) (parse "x.b")
      (parse "y.b + 0") (P.Scan { table = "X"; var = "x" })
      (P.Scan { table = "Y"; var = "y" })
  in
  List.iter
    (fun jobs ->
      let rows, st = run_counted ~jobs nj in
      Alcotest.(check int) "never swaps" 0 st.Stats.build_side_swaps;
      Alcotest.(check int) "builds on the 40-row right side" 40
        st.Stats.hash_builds;
      Alcotest.(check int) "probes with the 8 left rows" 8
        st.Stats.hash_probes;
      Alcotest.(check int) "left rows preserved" 8 (List.length rows))
    [ 1; 4 ]

(* --- bloom pruning is observable but invisible --------------------------- *)

(* On an all-dangling catalog most probes miss, so the filter must prune;
   with bloom off the counters must read zero and nothing else changes. *)
let pruning_observable () =
  let catalog =
    Workload.Gen.xy
      { Workload.Gen.default_xy with
        nx = 60; ny = 30; dangling = 1.0; seed = 4 }
  in
  let semi =
    keyed_join P.Hash (P.Semi { anti = false }) (parse "x.b") (parse "y.b")
      (P.Scan { table = "X"; var = "x" }) (P.Scan { table = "Y"; var = "y" })
  in
  let run ~bloom ~jobs =
    let stats = Stats.create () in
    let rows = Exec.rows ~stats ~jobs ~gate:1 ~bloom catalog Env.empty semi in
    (rows, stats)
  in
  let rows_on, on = run ~bloom:true ~jobs:1 in
  Alcotest.(check int) "every probe checked" 60 on.Stats.bloom_checks;
  Alcotest.(check bool) "most dangling probes pruned" true
    (on.Stats.bloom_prunes > 40);
  Alcotest.(check int) "pruned probes still counted" 60 on.Stats.hash_probes;
  let rows_off, off = run ~bloom:false ~jobs:1 in
  Alcotest.(check int) "no checks when disabled" 0 off.Stats.bloom_checks;
  Alcotest.(check int) "no prunes when disabled" 0 off.Stats.bloom_prunes;
  Alcotest.(check int) "probes unchanged" 60 off.Stats.hash_probes;
  Alcotest.(check bool) "same rows" true
    (List.length rows_on = List.length rows_off
    && List.for_all2 Env.equal (canonical rows_on) (canonical rows_off));
  (* jobs-invariance: morsels screen against the one shared filter, so
     parallel pruning equals serial pruning. *)
  List.iter
    (fun jobs ->
      let _, par = run ~bloom:true ~jobs in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d probed as morsels" jobs)
        true (par.Stats.partitions > 0);
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d same checks" jobs)
        on.Stats.bloom_checks par.Stats.bloom_checks;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d same prunes" jobs)
        on.Stats.bloom_prunes par.Stats.bloom_prunes)
    [ 2; 4 ]

(* Differential property over the random-query corpus: bloom on/off ×
   jobs 1/2/4 all return the same value, and the stats trees agree on
   every counter except the bloom ones (equal when both runs have bloom
   on, zero when off). *)
let counters_mod_bloom (a : Stats.t) (b : Stats.t) =
  a.Stats.rows_out = b.Stats.rows_out
  && a.Stats.predicate_evals = b.Stats.predicate_evals
  && a.Stats.hash_builds = b.Stats.hash_builds
  && a.Stats.hash_probes = b.Stats.hash_probes
  && a.Stats.sorts = b.Stats.sorts
  && a.Stats.applies = b.Stats.applies
  && a.Stats.apply_hits = b.Stats.apply_hits
  && a.Stats.build_side_swaps = b.Stats.build_side_swaps

let prop_bloom_invisible =
  qcheck ~count:100 "bloom on/off x jobs: same values, same non-bloom counters"
    Test_random_queries.query_gen
    (fun src ->
      List.for_all
        (fun (cname, cat) ->
          match Pipeline.compile_string Pipeline.Decorrelated cat src with
          | Error msg ->
            QCheck2.Test.fail_reportf "compile failed on %s: %s" src msg
          | Ok { Pipeline.physical = None; _ } -> true
          | Ok { Pipeline.physical = Some pq; _ } ->
            let run ~bloom ~jobs =
              let stats = Stats.create () in
              let v =
                Exec.run_under ~stats ~jobs ~gate:1 ~bloom cat Env.empty pq
              in
              (v, stats)
            in
            let ref_v, ref_s = run ~bloom:true ~jobs:1 in
            List.for_all
              (fun (bloom, jobs) ->
                let v, s = run ~bloom ~jobs in
                (Value.equal ref_v v
                || QCheck2.Test.fail_reportf
                     "value differs (%s bloom=%b jobs=%d) on %s" cname bloom
                     jobs src)
                && (counters_mod_bloom ref_s s
                   || QCheck2.Test.fail_reportf
                        "non-bloom counters differ (%s bloom=%b jobs=%d) on \
                         %s:@.ref %a@.got %a"
                        cname bloom jobs src Stats.pp ref_s Stats.pp s)
                && ((not bloom)
                    || (s.Stats.bloom_checks = ref_s.Stats.bloom_checks
                       && s.Stats.bloom_prunes = ref_s.Stats.bloom_prunes)
                    || QCheck2.Test.fail_reportf
                         "bloom counters not jobs-invariant (%s jobs=%d) on %s"
                         cname jobs src)
                && (bloom
                    || (s.Stats.bloom_checks = 0 && s.Stats.bloom_prunes = 0)
                    || QCheck2.Test.fail_reportf
                         "bloom counters nonzero with bloom off (%s) on %s"
                         cname src))
              [ (false, 1); (true, 2); (false, 4); (true, 4) ])
        [ ("mixed", Test_random_queries.catalog);
          ("all-dangling", Test_random_queries.all_dangling_catalog) ])

let suite =
  [
    Alcotest.test_case "no false negatives at 1/2 fill" `Quick
      no_false_negatives;
    Alcotest.test_case "catalog statistics" `Quick catalog_stats;
    Alcotest.test_case "build-side swap" `Quick build_side_swap;
    Alcotest.test_case "nest join never swaps" `Quick nestjoin_never_swaps;
    Alcotest.test_case "pruning observable and invisible" `Quick
      pruning_observable;
    prop_bloom_invisible;
  ]
