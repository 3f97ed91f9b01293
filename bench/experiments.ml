(* The experiment suite: one function per table/figure of DESIGN.md §3.

   Every experiment prints the same kind of table the paper's narrative
   implies, plus machine-independent work counters next to wall-clock
   times. Absolute numbers are 2026 hardware; the shapes (who wins, by
   what factor, where crossovers fall) are the reproduction target. *)

module Value = Cobj.Value
module Env = Cobj.Env
module Plan = Algebra.Plan
module P = Engine.Physical
module Pipeline = Core.Pipeline
open Harness

let run_ms ?options strategy catalog query =
  let compiled =
    match Pipeline.compile_string ?options strategy catalog query with
    | Ok c -> c
    | Error msg -> failwith msg
  in
  let stats = Engine.Stats.create () in
  let value = ref (Value.Set []) in
  let ms = measure_ms (fun () -> value := Pipeline.execute catalog compiled) in
  (* one extra run to collect counters *)
  ignore (Pipeline.execute ~stats catalog compiled);
  (ms, !value, stats)

let forced force =
  { Core.Planner.default_options with Core.Planner.force }

(* ---------------------------------------------------------------- T1 --- *)

let table1 () =
  let catalog = Workload.Gen.table1 () in
  Printf.printf "\n== T1: the paper's Table 1 — nest equijoin of X and Y ==\n";
  Fmt.pr "%a@.@.%a@.@." Cobj.Table.pp
    (Cobj.Catalog.find_exn "X" catalog)
    Cobj.Table.pp
    (Cobj.Catalog.find_exn "Y" catalog);
  let mk_physical impl =
    let lkey = Lang.Parser.expr "x.d" and rkey = Lang.Parser.expr "y.b" in
    let pred = Lang.Parser.expr "x.d = y.b" in
    let func = Lang.Parser.expr "y" in
    let left = P.Scan { table = "X"; var = "x" } in
    let right = P.Scan { table = "Y"; var = "y" } in
    let how =
      match impl with
      | `Nl -> P.Loop { pred }
      | `Hash -> P.Keyed { by = P.Hash; lkey; rkey; residual = None }
      | `Merge -> P.Keyed { by = P.Sort P.Eq; lkey; rkey; residual = None }
    in
    P.Join { kind = P.Nest { func; label = "s" }; how; left; right }
  in
  let result impl =
    Engine.Exec.rows catalog Env.empty (mk_physical impl)
    |> List.sort Env.compare
  in
  let reference = result `Nl in
  List.iter
    (fun (name, impl) ->
      let rows = result impl in
      assert (List.for_all2 Env.equal reference rows);
      ignore name)
    [ ("nl", `Nl); ("hash", `Hash); ("merge", `Merge) ];
  let rows =
    List.map
      (fun r ->
        let x = Env.find "x" r and s = Env.find "s" r in
        let fmt_pair v =
          Printf.sprintf "(%s,%s)"
            (Value.to_string (Value.field "a" v))
            (Value.to_string (Value.field "b" v))
        in
        [
          Value.to_string (Value.field "e" x);
          Value.to_string (Value.field "d" x);
          (match s with
          | Value.Set [] -> "∅"
          | Value.Set xs -> "{" ^ String.concat "," (List.map fmt_pair xs) ^ "}"
          | _ -> assert false);
        ])
      reference
  in
  print_table ~title:"X Δ Y on the second attribute (identity function)"
    ~header:[ "e"; "d"; "s(e,d)" ] rows;
  print_endline
    "(all three implementations — nl, hash, merge — produced identical rows)"

(* ---------------------------------------------------------------- T2 --- *)

let table2 () =
  Printf.printf
    "\n== T2: the paper's Table 2 — rewriting TM predicates ==\n";
  let rows =
    List.map
      (fun row ->
        let p = Core.Table2.predicate row in
        let verdict = Core.Classify.classify ~z:"z" p in
        let got = Core.Table2.kind verdict in
        let rewritten =
          match Core.Classify.to_expr ~z:"z" verdict with
          | Some e -> Lang.Pretty.to_math_string e
          | None -> "(grouping → nest join)"
        in
        [
          row.Core.Table2.source;
          (if row.Core.Table2.in_paper then "paper" else "ext");
          Core.Table2.expected_to_string got;
          (if got = row.Core.Table2.expected then "ok" else "MISMATCH");
          rewritten;
        ])
      Core.Table2.rows
  in
  print_table ~title:"predicate classification"
    ~header:[ "P(x, z)"; "origin"; "verdict"; "check"; "rewritten form" ]
    rows

(* ---------------------------------------------------------------- E1 --- *)

(* Nested-loop processing vs the flattened (semijoin) query. *)
let flatten_sweep () =
  let query =
    "SELECT x.id FROM X x WHERE x.a IN (SELECT y.a FROM Y y WHERE x.b = y.b)"
  in
  Printf.printf "\n== E1: flattening beats nested-loop processing ==\n";
  Printf.printf "query: %s\n" query;
  let rows =
    List.map
      (fun n ->
        let catalog =
          Workload.Gen.xy
            { Workload.Gen.default_xy with
              nx = n; ny = n; key_dom = max 1 (n / 4); dangling = 0.1;
              seed = 11 }
        in
        let naive_ms, naive_v, naive_st =
          run_ms Pipeline.Naive catalog query
        in
        let flat_nl_ms, flat_nl_v, _ =
          run_ms ~options:(forced Core.Planner.Force_nl) Pipeline.Decorrelated
            catalog query
        in
        let flat_hash_ms, flat_hash_v, flat_st =
          run_ms Pipeline.Decorrelated catalog query
        in
        assert (Value.equal naive_v flat_hash_v);
        assert (Value.equal naive_v flat_nl_v);
        [
          fint n;
          fms naive_ms;
          fms flat_nl_ms;
          fms flat_hash_ms;
          fratio (naive_ms /. flat_hash_ms);
          fint (Engine.Stats.total_work naive_st);
          fint (Engine.Stats.total_work flat_st);
        ])
      [ 25; 50; 100; 200; 400; 800 ]
  in
  print_table ~title:"|X| = |Y| = n, 10% dangling, fan-out ≈ 4"
    ~header:
      [
        "n"; "naive ms"; "semijoin(nl) ms"; "semijoin(hash) ms"; "speedup";
        "naive work"; "flat work";
      ]
    rows;
  print_endline
    "shape check: naive grows ~quadratically; the hash semijoin stays \
     near-linear."

(* ---------------------------------------------------------------- E2 --- *)

(* Nest join implementations, and the ν* ∘ outerjoin encoding. Every
   method must give the nested loop's value: a mismatch exits 1. *)
let nestjoin_impls () =
  let catalog n =
    Workload.Gen.xy
      { Workload.Gen.default_xy with
        nx = n; ny = n; key_dom = max 1 (n / 4); dangling = 0.2; seed = 5 }
  in
  let agree what n = function
    | v :: rest when List.for_all (Value.equal v) rest -> ()
    | _ ->
      Printf.eprintf "%s: the methods disagree at n = %d\n" what n;
      exit 1
  in
  let query =
    "SELECT (i = x.id, zs = (SELECT y.a FROM Y y WHERE y.b = x.b)) FROM X x"
  in
  Printf.printf "\n== E2: nest join implementations (§6) ==\n";
  Printf.printf "query: %s\n" query;
  let rows =
    List.map
      (fun n ->
        let catalog = catalog n in
        let nl_ms, nl_v, _ =
          run_ms ~options:(forced Core.Planner.Force_nl) Pipeline.Decorrelated
            catalog query
        in
        let hash_ms, hash_v, _ =
          run_ms ~options:(forced Core.Planner.Force_hash)
            Pipeline.Decorrelated catalog query
        in
        let merge_ms, merge_v, _ =
          run_ms ~options:(forced Core.Planner.Force_merge)
            Pipeline.Decorrelated catalog query
        in
        let oj_ms, oj_v, _ =
          run_ms Pipeline.Decorrelated_outerjoin catalog query
        in
        agree "E2" n [ nl_v; hash_v; merge_v; oj_v ];
        [
          fint n; fms nl_ms; fms hash_ms; fms merge_ms; fms oj_ms;
          fratio (nl_ms /. hash_ms);
        ])
      [ 100; 200; 400; 800 ]
  in
  print_table
    ~title:"Δ by nested loops / hash / sort-merge, and ν*(X ⟗ Y)"
    ~header:
      [ "n"; "Δ nl ms"; "Δ hash ms"; "Δ merge ms"; "ν*∘⟗ ms"; "nl/hash" ]
    rows;
  print_endline
    "shape check: any join method implements Δ; hash wins; the outerjoin \
     encoding pays for NULL padding and a separate grouping pass.";
  (* The band [y.b < x.b] has no equal keys: the nested loop, or the sort
     family's band, which reads each left row's range off the sorted Y. *)
  let band_queries =
    [
      ( "nest",
        "SELECT (i = x.id, zs = (SELECT y.a FROM Y y WHERE y.b < x.b)) FROM \
         X x" );
      ( "semi",
        "SELECT x.id FROM X x WHERE COUNT(SELECT y.id FROM Y y WHERE y.b < \
         x.b) <> 0" );
      ( "anti",
        "SELECT x.id FROM X x WHERE COUNT(SELECT y.id FROM Y y WHERE y.b < \
         x.b) = 0" );
    ]
  in
  Printf.printf "band queries:\n";
  List.iter (fun (op, q) -> Printf.printf "  %s %s\n" op q) band_queries;
  let rows =
    List.concat_map
      (fun n ->
        let catalog = catalog n in
        List.map
          (fun (op, query) ->
            let nl_ms, nl_v, _ =
              run_ms ~options:(forced Core.Planner.Force_nl)
                Pipeline.Decorrelated catalog query
            in
            let band_ms, band_v, _ =
              run_ms ~options:(forced Core.Planner.Force_merge)
                Pipeline.Decorrelated catalog query
            in
            agree ("E2 band " ^ op) n [ nl_v; band_v ];
            [ fint n; op; fms nl_ms; fms band_ms; fratio (nl_ms /. band_ms) ])
          band_queries)
      [ 100; 400; 1600 ]
  in
  print_table ~title:"the band y.b < x.b by nested loops and by band"
    ~header:[ "n"; "op"; "nl ms"; "band ms"; "nl/band" ]
    rows;
  print_endline
    "shape check: the nest join's loop grows quadratically, while the band \
     sorts Y once and reads each group off a sorted prefix; the semijoin's \
     and antijoin's loops stop at a row's first match, which comes early \
     here, so the band only keeps pace with them."

(* ---------------------------------------------------------------- E3 --- *)

let section8 () =
  let grouping =
    "SELECT x FROM X x WHERE x.a SUBSETEQ (SELECT y.a FROM Y y WHERE x.b = \
     y.b AND y.c SUBSETEQ (SELECT z.c FROM Z z WHERE y.d = z.d))"
  in
  let flat =
    "SELECT x FROM X x WHERE EXISTS w IN x.a (w IN (SELECT y.a FROM Y y \
     WHERE x.b = y.b AND FORALL u IN y.c (u NOT IN (SELECT z.c FROM Z z \
     WHERE y.d = z.d))))"
  in
  Printf.printf "\n== E3: the §8 three-block query ==\n";
  Printf.printf "grouping variant: %s\nflat variant:     %s\n" grouping flat;
  let catalog_of n =
    Workload.Gen.xyz
      {
        base =
          { Workload.Gen.default_xy with
            nx = n; ny = n; key_dom = max 1 (n / 4); val_dom = 8; seed = 17 };
        nz = n;
        z_key_dom = max 1 (n / 4);
      }
  in
  let rows =
    List.map
      (fun n ->
        let catalog = catalog_of n in
        let naive g =
          if n <= 160 then
            let ms, v, _ = run_ms Pipeline.Naive catalog g in
            (fms ms, Some v)
          else ("-", None)
        in
        let naive_g, naive_gv = naive grouping in
        let opt_g_ms, opt_gv, _ = run_ms Pipeline.Decorrelated catalog grouping in
        let naive_f, naive_fv = naive flat in
        let opt_f_ms, opt_fv, _ = run_ms Pipeline.Decorrelated catalog flat in
        Option.iter (fun v -> assert (Value.equal v opt_gv)) naive_gv;
        Option.iter (fun v -> assert (Value.equal v opt_fv)) naive_fv;
        [
          fint n; naive_g; fms opt_g_ms; naive_f; fms opt_f_ms;
          fint (Value.set_card opt_gv);
          fint (Value.set_card opt_fv);
        ])
      [ 40; 80; 160; 320 ]
  in
  print_table
    ~title:"naive vs decorrelated; ⊆⊆ → 2 nest joins, ∈∉ → semi + anti"
    ~header:
      [
        "n"; "naive ΔΔ ms"; "opt ΔΔ ms"; "naive ⋉⊳ ms"; "opt ⋉⊳ ms";
        "|ΔΔ|"; "|⋉⊳|";
      ]
    rows;
  print_endline
    "shape check: decorrelation wins by orders of magnitude and the \
     semijoin/antijoin variant is at least as fast as the nest joins."

(* ---------------------------------------------------------------- E4 --- *)

let bugs () =
  let query =
    "SELECT x.id FROM X x WHERE COUNT(SELECT y.id FROM Y y WHERE x.b = y.b) \
     = 0"
  in
  let subseteq_query =
    "SELECT x.id FROM X x WHERE x.s SUBSETEQ (SELECT y.a FROM Y y WHERE x.b \
     = y.b)"
  in
  Printf.printf "\n== E4: the COUNT bug and the SUBSETEQ bug ==\n";
  let sweep title query =
    let rows =
      List.map
        (fun dangling ->
          let catalog =
            Workload.Gen.xy
              { Workload.Gen.default_xy with
                nx = 300; ny = 300; key_dom = 75; dangling; seed = 23 }
          in
          let _, reference, _ = run_ms Pipeline.Interp catalog query in
          let kim_ms, kim_v, _ = run_ms Pipeline.Kim_baseline catalog query in
          let gw_ms, gw_v, _ = run_ms Pipeline.Ganski_wong catalog query in
          let mura_ms, mura_v, _ =
            run_ms Pipeline.Muralikrishna catalog query
          in
          let nj_ms, nj_v, _ = run_ms Pipeline.Decorrelated catalog query in
          assert (Value.equal reference gw_v);
          assert (Value.equal reference mura_v);
          assert (Value.equal reference nj_v);
          let lost =
            Value.set_card (Value.set_diff reference kim_v)
          in
          [
            Printf.sprintf "%.0f%%" (dangling *. 100.0);
            fint (Value.set_card reference);
            fint (Value.set_card kim_v);
            fint lost;
            fms kim_ms;
            fms gw_ms;
            fms mura_ms;
            fms nj_ms;
          ])
        [ 0.0; 0.1; 0.2; 0.3; 0.5 ]
    in
    print_table ~title
      ~header:
        [
          "dangling"; "correct rows"; "kim rows"; "kim lost"; "kim ms";
          "ganski-wong ms"; "mura ms"; "nest join ms";
        ]
      rows
  in
  Printf.printf "query: %s\n" query;
  sweep "COUNT bug: kim loses exactly the dangling rows" query;
  Printf.printf "\nquery: %s\n" subseteq_query;
  sweep "SUBSETEQ bug: the same loss in a complex-object predicate"
    subseteq_query;
  print_endline
    "shape check: kim's loss is exactly the set of unmatched qualifying \
     rows (even at 0% forced dangling a few keys match nothing by chance); \
     outerjoin and nest join always agree with the reference."

(* ---------------------------------------------------------------- E5 --- *)

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* The §6 left build, which no plan uses: build a table on the left
   operand's rows, stream the right operand's, and emit a left row with a
   one-element group as soon as a right row matches it; the left rows that
   nothing matched follow with the empty group. A left row with k matches
   thus comes out as k fragments, so the output is grouped by left row
   only when [rkey] is a key of the right operand. *)
let left_build_nest catalog ~lkey ~rkey ~func ~label left right =
  let eval = Engine.Compile.expr catalog in
  let lkeyfn = eval lkey and rkeyfn = eval rkey and funcfn = eval func in
  let lrows = Array.of_list (Engine.Exec.rows catalog Env.empty left) in
  let table = Vtbl.create 256 in
  Array.iteri (fun i l -> Vtbl.add table (lkeyfn l) i) lrows;
  let matched = Array.make (Array.length lrows) false in
  let emitted =
    Engine.Exec.rows catalog Env.empty right
    |> List.concat_map (fun r ->
           List.map
             (fun i ->
               matched.(i) <- true;
               let l = lrows.(i) in
               Env.bind label (Value.set [ funcfn (Env.append r l) ]) l)
             (Vtbl.find_all table (rkeyfn r)))
  in
  let dangling =
    List.filteri (fun i _ -> not matched.(i)) (Array.to_list lrows)
    |> List.map (Env.bind label (Value.Set []))
  in
  emitted @ dangling

let build_side () =
  Printf.printf "\n== E5: nest join build-side restriction (§6) ==\n";
  (* [left Δ right] on [lkey = rkey] with group [func], canonicalized, by
     the engine's right build and by the streaming left build *)
  let builds catalog ~lkey ~rkey ~func left right =
    let lkey = Lang.Parser.expr lkey and rkey = Lang.Parser.expr rkey in
    let func = Lang.Parser.expr func in
    let canon = List.sort_uniq Env.compare in
    let nest =
      P.Join
        {
          kind = P.Nest { func; label = "g" };
          how = P.Keyed { by = P.Hash; lkey; rkey; residual = None };
          left;
          right;
        }
    in
    ( (fun () -> canon (Engine.Exec.rows catalog Env.empty nest)),
      fun () ->
        canon (left_build_nest catalog ~lkey ~rkey ~func ~label:"g" left right)
    )
  in
  let agree = List.equal Env.equal in
  let scan table var = P.Scan { table; var } in
  let rows =
    List.map
      (fun ny ->
        let nx = 200 in
        let catalog =
          Workload.Gen.xy
            { Workload.Gen.default_xy with
              nx; ny; key_dom = nx; dangling = 0.0; seed = 31 }
        in
        (* Y Δ X on y.b = x.id — x.id is a declared key of X, so both the
           right-build and the streaming left-build are legal. *)
        let right_build, left_build =
          builds catalog ~lkey:"y.b" ~rkey:"x.id" ~func:"x.a" (scan "Y" "y")
            (scan "X" "x")
        in
        let r_ms = measure_ms (fun () -> ignore (right_build ())) in
        let l_ms = measure_ms (fun () -> ignore (left_build ())) in
        let agree = agree (right_build ()) (left_build ()) in
        ( agree,
          [ fint ny; fms r_ms; fms l_ms; (if agree then "yes" else "NO") ] ))
      [ 200; 800; 3200 ]
  in
  print_table
    ~title:"Y Δ X on a key of X (|X| = 200): both build sides are legal"
    ~header:[ "|Y|"; "right build ms"; "left build ms"; "agree" ]
    (List.map snd rows);
  if not (List.for_all fst rows) then begin
    prerr_endline "E5: a legal left build disagrees with the right build";
    exit 1
  end;
  (* the illegal case: the same left-build streaming on a non-key *)
  let catalog =
    Workload.Gen.xy
      { Workload.Gen.default_xy with
        nx = 50; ny = 200; key_dom = 10; dangling = 0.1; seed = 32 }
  in
  let right_build, left_build =
    builds catalog ~lkey:"x.b" ~rkey:"y.b" ~func:"y.a" (scan "X" "x")
      (scan "Y" "y")
  in
  let a = right_build () and b = left_build () in
  Printf.printf
    "\nillegal left-build on a non-key: %d correct groups vs %d streamed \
     fragments (the §6 restriction).\n"
    (List.length a) (List.length b);
  if agree a b then begin
    prerr_endline "E5: a left build on a non-key agrees with the right build";
    exit 1
  end

(* ---------------------------------------------------------------- E6 --- *)

let apply_memo () =
  let query =
    "SELECT x.id FROM X x WHERE x.a = COUNT(SELECT y.id FROM Y y WHERE x.b \
     = y.b)"
  in
  Printf.printf "\n== E6: memoized apply vs decorrelation (ablation) ==\n";
  Printf.printf "query: %s\n" query;
  let rows =
    List.map
      (fun key_dom ->
        let catalog =
          Workload.Gen.xy
            { Workload.Gen.default_xy with
              nx = 400; ny = 400; key_dom; dangling = 0.0; seed = 41 }
        in
        let plain_ms, v1, st1 = run_ms Pipeline.Naive catalog query in
        let memo_ms, v2, st2 =
          run_ms
            ~options:
              { Core.Planner.default_options with
                Core.Planner.memo_applies = true }
            Pipeline.Naive catalog query
        in
        let opt_ms, v3, _ = run_ms Pipeline.Decorrelated catalog query in
        assert (Value.equal v1 v2);
        assert (Value.equal v1 v3);
        [
          fint key_dom;
          fms plain_ms;
          fms memo_ms;
          fms opt_ms;
          fint st1.Engine.Stats.applies;
          fint st2.Engine.Stats.applies;
          fint st2.Engine.Stats.apply_hits;
        ])
      [ 2; 8; 32; 128; 400 ]
  in
  print_table
    ~title:"|X| = |Y| = 400; fewer distinct keys → memoization approaches \
            decorrelation"
    ~header:
      [
        "key dom"; "apply ms"; "apply+memo ms"; "nest join ms"; "evals";
        "memo evals"; "memo hits";
      ]
    rows;
  print_endline
    "shape check: memoization helps exactly in proportion to duplicate \
     correlation keys; the nest join is insensitive to it."

(* ---------------------------------------------------------------- E7 --- *)

let unnest_select () =
  let query =
    "UNNEST(SELECT (SELECT (i = x.id, a = y.a) FROM Y y WHERE x.b = y.b) \
     FROM X x)"
  in
  Printf.printf "\n== E7: the §5 collapsible SELECT nesting ==\n";
  Printf.printf "query: %s\n" query;
  let rows =
    List.map
      (fun n ->
        let catalog =
          Workload.Gen.xy
            { Workload.Gen.default_xy with
              nx = n; ny = n; key_dom = max 1 (n / 4); dangling = 0.1;
              seed = 53 }
        in
        let naive_ms, v1, _ = run_ms Pipeline.Naive catalog query in
        let join_ms, v2, _ = run_ms Pipeline.Decorrelated catalog query in
        (* the alternative: nest join, then unnest the grouped attribute *)
        let nj_unnest =
          {
            P.plan =
              P.Unnest_op
                {
                  expr = Lang.Parser.expr "g";
                  var = "u";
                  input =
                    P.Join
                      {
                        kind =
                          P.Nest
                            {
                              func = Lang.Parser.expr "(i = x.id, a = y.a)";
                              label = "g";
                            };
                        how =
                          P.Keyed
                            {
                              by = P.Hash;
                              lkey = Lang.Parser.expr "x.b";
                              rkey = Lang.Parser.expr "y.b";
                              residual = None;
                            };
                        left = P.Scan { table = "X"; var = "x" };
                        right = P.Scan { table = "Y"; var = "y" };
                      };
                };
            result = Lang.Parser.expr "u";
          }
        in
        let nj_ms =
          measure_ms (fun () -> ignore (Engine.Exec.run catalog nj_unnest))
        in
        let v3 = Engine.Exec.run catalog nj_unnest in
        assert (Value.equal v1 v2);
        assert (Value.equal v1 v3);
        [ fint n; fms naive_ms; fms join_ms; fms nj_ms ])
      [ 100; 200; 400; 800 ]
  in
  print_table
    ~title:"UNNEST(SELECT (SELECT …)) — join vs nest-join-then-unnest"
    ~header:[ "n"; "naive ms"; "plain join ms"; "Δ + unnest ms" ]
    rows;
  print_endline
    "shape check: both flattened forms dominate the naive plan by orders \
     of magnitude; the plain join and Δ+unnest are comparable here — the \
     join avoids materializing per-row sets, the nest join avoids the \
     final dedup being quadratic in group size."

let all =
  [
    ("table1", table1);
    ("table2", table2);
    ("flatten-sweep", flatten_sweep);
    ("nestjoin-impls", nestjoin_impls);
    ("section8", section8);
    ("bugs", bugs);
    ("build-side", build_side);
    ("apply-memo", apply_memo);
    ("unnest-select", unnest_select);
  ]

(* ---------------------------------------------------------------- E8 --- *)

(* Multiple subqueries in one WHERE clause — the paper's future work. *)
let multi_subquery () =
  let query =
    "SELECT x.id FROM X x WHERE x.a IN (SELECT y.a FROM Y y WHERE x.b = \
     y.b) AND x.a NOT IN (SELECT w.a FROM Y w WHERE w.b = x.b + 1)"
  in
  Printf.printf "\n== E8: multiple subqueries per WHERE clause ==\n";
  Printf.printf "query: %s\n" query;
  let rows =
    List.map
      (fun n ->
        let catalog =
          Workload.Gen.xy
            { Workload.Gen.default_xy with
              nx = n; ny = n; key_dom = max 1 (n / 4); dangling = 0.1;
              seed = 61 }
        in
        let naive_ms, v1, st1 = run_ms Pipeline.Naive catalog query in
        let opt_ms, v2, st2 = run_ms Pipeline.Decorrelated catalog query in
        assert (Value.equal v1 v2);
        [
          fint n; fms naive_ms; fms opt_ms; fratio (naive_ms /. opt_ms);
          fint st1.Engine.Stats.applies;
          fint st2.Engine.Stats.applies;
        ])
      [ 50; 100; 200; 400; 800 ]
  in
  print_table
    ~title:"semijoin + antijoin replace two correlated subqueries at once"
    ~header:[ "n"; "naive ms"; "optimized ms"; "speedup"; "naive applies";
              "opt applies" ]
    rows;
  print_endline
    "shape check: both applies are eliminated (opt applies = 0); the win \
     compounds with two subqueries per row."

(* ---------------------------------------------------------------- E9 --- *)

(* Ablation: the logical rewriter (selection pushdown, dead nest join
   elimination) on top of plain decorrelation. *)
let rewrite_ablation () =
  let queries =
    [
      ( "selective conjunct + subquery",
        "SELECT x.id FROM X x WHERE x.id MOD 20 = 0 AND x.a IN (SELECT y.a \
         FROM Y y WHERE x.b = y.b)" );
      ( "two subqueries, one selective",
        "SELECT x.id FROM X x WHERE x.id MOD 10 = 0 AND x.a IN (SELECT y.a \
         FROM Y y WHERE x.b = y.b) AND x.a NOT IN (SELECT w.a FROM Y w \
         WHERE w.b = x.b + 1)" );
    ]
  in
  Printf.printf "\n== E9: logical-rewrite ablation ==\n";
  let rows =
    List.concat_map
      (fun (name, query) ->
        List.map
          (fun n ->
            let catalog =
              Workload.Gen.xy
                { Workload.Gen.default_xy with
                  nx = n; ny = n; key_dom = max 1 (n / 4); dangling = 0.1;
                  seed = 67 }
            in
            let compiled rewrite =
              match
                Pipeline.compile_string ~rewrite Pipeline.Decorrelated catalog
                  query
              with
              | Ok c -> c
              | Error msg -> failwith msg
            in
            let with_r = compiled true and without_r = compiled false in
            let v1 = ref (Value.Set []) and v2 = ref (Value.Set []) in
            let on_ms =
              measure_ms (fun () -> v1 := Pipeline.execute catalog with_r)
            in
            let off_ms =
              measure_ms (fun () -> v2 := Pipeline.execute catalog without_r)
            in
            assert (Value.equal !v1 !v2);
            [ name; fint n; fms off_ms; fms on_ms; fratio (off_ms /. on_ms) ])
          [ 200; 800 ])
      queries
  in
  print_table ~title:"decorrelation with vs without the rewriter"
    ~header:[ "query"; "n"; "no rewrite ms"; "rewrite ms"; "speedup" ]
    rows;
  print_endline
    "shape check: pushing the selective conjunct below the joins shrinks \
     the build/probe inputs; the effect grows with selectivity."

let all =
  all @ [ ("multi-subquery", multi_subquery); ("rewrite-ablation", rewrite_ablation) ]

(* ---------------------------------------------------------------- E10 -- *)

(* Build amortization: a hash join whose build side is a bare base-table
   scan takes its hash table from the engine's per-(table, field) cache, so
   repeated queries skip the build phase — the "several join
   implementations" the paper's §2 motivates, one step further. *)
let build_amortization () =
  (* one equi conjunct (x.b = y.b) plus a residual — a single-field key the
     cache can serve (composite keys build per run) *)
  let query =
    "SELECT x.id FROM X x WHERE EXISTS v IN (SELECT y.a FROM Y y WHERE x.b \
     = y.b) (v > x.a)"
  in
  Printf.printf "\n== E10: cached build sides amortize across queries ==\n";
  Printf.printf "query: %s\n" query;
  let rows =
    List.map
      (fun ny ->
        (* small probe side, large build side. A cold run — the first on a
           fresh catalog — builds Y's table exactly as an uncached hash
           join does on every run; warm runs reuse it. The cold time is the
           median over five freshly generated catalogs. *)
        let fresh () =
          let catalog =
            Workload.Gen.xy
              { Workload.Gen.default_xy with
                nx = 100; ny; key_dom = 50; dangling = 0.1; seed = 71 }
          in
          match
            Pipeline.compile_string Pipeline.Decorrelated catalog query
          with
          | Ok c -> (catalog, c)
          | Error msg -> failwith msg
        in
        let colds =
          List.init 5 (fun _ ->
              let catalog, c = fresh () in
              let ns, v = time_once (fun () -> Pipeline.execute catalog c) in
              (ns /. 1e6, v, catalog, c))
        in
        let cold_ms =
          List.nth
            (List.sort Float.compare (List.map (fun (ms, _, _, _) -> ms) colds))
            2
        in
        let _, v1, catalog, c = List.hd colds in
        let warm_ms =
          measure_ms (fun () -> ignore (Pipeline.execute catalog c))
        in
        let v2 = Pipeline.execute catalog c in
        assert (Value.equal v1 v2);
        [ fint ny; fms cold_ms; fms warm_ms; fratio (cold_ms /. warm_ms) ])
      [ 400; 1600; 6400 ]
  in
  print_table
    ~title:
      "|X| = 100 probes; a cold run builds Y's hash table, warm runs reuse \
       the cached one"
    ~header:[ "|Y|"; "cold ms"; "warm ms"; "cold/warm" ]
    rows;
  print_endline
    "shape check: the cold run pays the build every uncached run pays; warm \
     runs skip it, so the advantage grows with |Y| / |X|."

let all = all @ [ ("index-amortization", build_amortization) ]

(* ---------------------------------------------------------------- E11 -- *)

(* Ablation: compiled expression closures vs per-row AST interpretation. *)
let expr_compile () =
  let queries =
    [
      ( "arith-heavy filter",
        "SELECT x.id FROM X x, Y y WHERE x.b * 2 + 1 = y.b * 2 + 1 AND \
         x.a + y.a > 3" );
      ( "quantifier per row",
        "SELECT x.id FROM X x WHERE EXISTS v IN x.s (v * v > x.a + 1)" );
      ( "nest join + aggregate",
        "SELECT (i = x.id, n = COUNT(SELECT y.a FROM Y y WHERE y.b = x.b)) \
         FROM X x" );
    ]
  in
  Printf.printf "\n== E11: expression compilation ablation ==\n";
  let rows =
    List.concat_map
      (fun (name, query) ->
        List.map
          (fun n ->
            let catalog =
              Workload.Gen.xy
                { Workload.Gen.default_xy with
                  nx = n; ny = n; key_dom = max 1 (n / 4); seed = 83 }
            in
            let compiled =
              match
                Pipeline.compile_string Pipeline.Decorrelated catalog query
              with
              | Ok c -> c
              | Error msg -> failwith msg
            in
            let run_with flag =
              Engine.Compile.enabled := flag;
              Fun.protect
                ~finally:(fun () -> Engine.Compile.enabled := true)
                (fun () ->
                  let v = ref (Value.Set []) in
                  let ms =
                    measure_ms (fun () -> v := Pipeline.execute catalog compiled)
                  in
                  (ms, !v))
            in
            let on_ms, v1 = run_with true in
            let off_ms, v2 = run_with false in
            assert (Value.equal v1 v2);
            [ name; fint n; fms off_ms; fms on_ms; fratio (off_ms /. on_ms) ])
          [ 200; 800 ])
      queries
  in
  print_table ~title:"per-row AST interpretation vs compiled closures"
    ~header:[ "query"; "n"; "interpreted ms"; "compiled ms"; "speedup" ]
    rows;
  print_endline
    "shape check: results are identical (asserted); the win is modest \
     (1.0-1.4x) because row-environment manipulation, not AST dispatch, \
     dominates per-row cost at these sizes — and grows with expression \
     complexity (largest on the arith-heavy filter at n = 800)."

let all = all @ [ ("expr-compile", expr_compile) ]

(* ---------------------------------------------------------------- E12 -- *)

(* The §6 equivalences in anger: sinking a nest join below an expanding
   join groups |X| rows instead of |X ⋈ Y| rows. *)
let reorder_ablation () =
  let query =
    "SELECT (i = x.id, j = y.id, n = COUNT(SELECT w.id FROM Y w WHERE w.a = \
     x.a)) FROM X x, Y y WHERE x.b = y.b"
  in
  Printf.printf "\n== E12: §6 nest-join/join reordering ==\n";
  Printf.printf "query: %s\n" query;
  let rows =
    List.map
      (fun n ->
        let catalog =
          Workload.Gen.xy
            { Workload.Gen.default_xy with
              nx = n; ny = 4 * n; key_dom = max 1 (n / 8); dangling = 0.0;
              seed = 91 }
        in
        let run reorder =
          match
            Pipeline.compile_string ~reorder Pipeline.Decorrelated catalog
              query
          with
          | Error msg -> failwith msg
          | Ok compiled ->
            let v = ref (Value.Set []) in
            let ms =
              measure_ms (fun () -> v := Pipeline.execute catalog compiled)
            in
            (ms, !v)
        in
        let off_ms, v1 = run false in
        let on_ms, v2 = run true in
        assert (Value.equal v1 v2);
        [ fint n; fms off_ms; fms on_ms; fratio (off_ms /. on_ms) ])
      [ 50; 100; 200; 400 ]
  in
  print_table
    ~title:"|Y| = 4·|X|, fan-out ≈ 32: group before vs after the join"
    ~header:[ "|X|"; "no reorder ms"; "reorder ms"; "speedup" ]
    rows;
  print_endline
    "shape check: the win tracks the join's expansion factor — the sunk \
     nest join groups |X| rows instead of |X ⋈ Y| rows."

let all = all @ [ ("reorder", reorder_ablation) ]

(* ---------------------------------------------------------------- E13 -- *)

(* Application mix: realistic nested queries over an order-management
   schema, every strategy side by side. *)
let application_mix () =
  let queries =
    [
      ( "no orders (¬∃)",
        "SELECT c.name FROM CUSTOMERS c WHERE COUNT(SELECT o FROM ORDERS o \
         WHERE o.cust = c.id) = 0" );
      ( "all orders done (∀)",
        "SELECT c.name FROM CUSTOMERS c WHERE FORALL o IN (SELECT o FROM \
         ORDERS o WHERE o.cust = c.id) (o.status = \"done\")" );
      ( "ordered sku0 (∃ + set attr)",
        "SELECT c.name FROM CUSTOMERS c WHERE EXISTS o IN (SELECT o FROM \
         ORDERS o WHERE o.cust = c.id) (EXISTS i IN o.items (i.sku = \
         \"sku0\"))" );
      ( "order count (SELECT-nesting)",
        "SELECT (n = c.name, k = COUNT(SELECT o.id FROM ORDERS o WHERE \
         o.cust = c.id)) FROM CUSTOMERS c" );
      ( "open-order totals (nested UNNEST)",
        "SELECT (n = c.name, t = SUM(UNNEST(SELECT (SELECT i.qty * i.price \
         FROM o.items i) FROM ORDERS o WHERE o.cust = c.id AND o.status = \
         \"open\"))) FROM CUSTOMERS c" );
      ( "big spender per city (2 subqueries)",
        "SELECT c.name FROM CUSTOMERS c WHERE c.vip = true AND \
         COUNT(SELECT o FROM ORDERS o WHERE o.cust = c.id) > 0 AND c.id \
         NOT IN (SELECT o.cust FROM ORDERS o WHERE o.status = \"open\")" );
    ]
  in
  Printf.printf "\n== E13: application mix (shop schema, %d customers, %d orders) ==\n"
    400 1200;
  let catalog =
    Workload.Gen.shop
      { Workload.Gen.default_shop with ncustomers = 400; norders = 1200 }
  in
  let strategies =
    Pipeline.[ Naive; Kim_baseline; Ganski_wong; Muralikrishna; Decorrelated ]
  in
  let rows =
    List.map
      (fun (name, query) ->
        let reference, _, _ = run_ms Pipeline.Interp catalog query in
        ignore reference;
        let _, ref_v, _ = run_ms Pipeline.Interp catalog query in
        let cells =
          List.map
            (fun strategy ->
              let ms, v, _ = run_ms strategy catalog query in
              let tag =
                if Value.equal v ref_v then "" else "(WRONG) "
              in
              Printf.sprintf "%s%s" tag (fms ms))
            strategies
        in
        name :: cells)
      queries
  in
  print_table ~title:"milliseconds per strategy ((WRONG) marks bug baselines)"
    ~header:
      ("query"
      :: List.map Pipeline.strategy_name strategies)
    rows;
  print_endline
    "shape check: the decorrelated strategy is the fastest correct plan on \
     every query; kim is wrong wherever dangling customers qualify."

let all = all @ [ ("application-mix", application_mix) ]
