(* Benchmark driver.

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe table2 bugs  # selected experiments
     dune exec bench/main.exe headline     # bechamel micro-suite only
     dune exec bench/main.exe smoke        # short headline run (CI)

   The headline suite holds one [Bechamel.Test.make] per experiment id
   (OLS-fitted ns/run at a fixed medium size); the experiment functions in
   [Experiments] print the per-table parameter sweeps.

   [headline] and [smoke] also write a machine-readable BENCH_<suite>.json
   artifact (ns/run plus the per-operator EXPLAIN ANALYZE tree of every
   experiment that has a physical plan) into $NESTQL_BENCH_DIR or the
   current directory — CI uploads it so the perf trajectory is diffable
   across PRs. *)

module Pipeline = Core.Pipeline
module Json = Engine.Json

let fixed_catalog =
  lazy
    (Workload.Gen.xy
       { Workload.Gen.default_xy with
         nx = 200; ny = 200; key_dom = 50; dangling = 0.1; seed = 77 })

let fixed_xyz =
  lazy
    (Workload.Gen.xyz
       {
         base =
           { Workload.Gen.default_xy with
             nx = 80; ny = 80; key_dom = 20; val_dom = 8; seed = 77 };
         nz = 80;
         z_key_dom = 20;
       })

let compiled ?options strategy catalog query =
  match Pipeline.compile_string ?options strategy catalog query with
  | Ok c -> c
  | Error msg -> failwith msg

(* A headline case: the bechamel thunk, plus (when the strategy yields a
   physical plan) the catalog/compiled pair for one instrumented run whose
   per-operator stats land in the JSON artifact. *)
type case = {
  name : string;
  run : unit -> unit;
  analyzed : (Cobj.Catalog.t * Pipeline.compiled) option;
}

let headline_cases () =
  let xy = Lazy.force fixed_catalog in
  let xyz = Lazy.force fixed_xyz in
  let exec catalog c () = ignore (Pipeline.execute catalog c) in
  let case name ?analyzed run = { name; run; analyzed } in
  let qcase name catalog c = case name ~analyzed:(catalog, c) (exec catalog c) in
  let semijoin_q =
    "SELECT x.id FROM X x WHERE x.a IN (SELECT y.a FROM Y y WHERE x.b = y.b)"
  in
  let nest_q =
    "SELECT (i = x.id, zs = (SELECT y.a FROM Y y WHERE y.b = x.b)) FROM X x"
  in
  let count_q =
    "SELECT x.id FROM X x WHERE COUNT(SELECT y.id FROM Y y WHERE x.b = y.b) \
     = 0"
  in
  let s8_q =
    "SELECT x FROM X x WHERE x.a SUBSETEQ (SELECT y.a FROM Y y WHERE x.b = \
     y.b AND y.c SUBSETEQ (SELECT z.c FROM Z z WHERE y.d = z.d))"
  in
  let unnest_q =
    "UNNEST(SELECT (SELECT (i = x.id, a = y.a) FROM Y y WHERE x.b = y.b) \
     FROM X x)"
  in
  let memo_opts =
    { Core.Planner.default_options with Core.Planner.memo_applies = true }
  in
  let table1_cat = Workload.Gen.table1 () in
  let table1_compiled =
    compiled Pipeline.Decorrelated table1_cat
      "SELECT (e = x.e, s = (SELECT y FROM Y y WHERE y.b = x.d)) FROM X x"
  in
  [
    qcase "T1-nestjoin-table1" table1_cat table1_compiled;
    case "T2-classify-catalog" (fun () ->
        List.iter
          (fun row ->
            ignore
              (Core.Classify.classify ~z:"z" (Core.Table2.predicate row)))
          Core.Table2.rows);
    qcase "E1-flatten-semijoin" xy (compiled Pipeline.Decorrelated xy semijoin_q);
    qcase "E2-hash-nestjoin" xy (compiled Pipeline.Decorrelated xy nest_q);
    qcase "E3-section8-decorrelated" xyz
      (compiled Pipeline.Decorrelated xyz s8_q);
    qcase "E4-ganski-wong-count" xy (compiled Pipeline.Ganski_wong xy count_q);
    qcase "E5-nestjoin-outerjoin-encoding" xy
      (compiled Pipeline.Decorrelated_outerjoin xy nest_q);
    qcase "E6-memoized-apply" xy
      (compiled ~options:memo_opts Pipeline.Naive xy count_q);
    qcase "E7-unnest-collapse" xy (compiled Pipeline.Decorrelated xy unnest_q);
    qcase "E8-multi-subquery" xy
      (compiled Pipeline.Decorrelated xy
         "SELECT x.id FROM X x WHERE x.a IN (SELECT y.a FROM Y y WHERE \
          x.b = y.b) AND x.a NOT IN (SELECT w.a FROM Y w WHERE w.b = \
          x.b + 1)");
    qcase "E9-no-rewrite" xy
      (match
         Pipeline.compile_string ~rewrite:false Pipeline.Decorrelated xy
           semijoin_q
       with
      | Ok c -> c
      | Error msg -> failwith msg);
    qcase "E10-cached-semijoin" xy
      (compiled Pipeline.Decorrelated xy
         "SELECT x.id FROM X x WHERE EXISTS v IN (SELECT y.a FROM Y y \
          WHERE x.b = y.b) (v > x.a)");
    case "E11-interpreted" (fun () ->
        Engine.Compile.enabled := false;
        Fun.protect
          ~finally:(fun () -> Engine.Compile.enabled := true)
          (exec xy (compiled Pipeline.Decorrelated xy nest_q)));
    qcase "E12-reordered-nestjoin" xy
      (compiled Pipeline.Decorrelated xy
         "SELECT (i = x.id, j = y.id, n = COUNT(SELECT w.id FROM Y w \
          WHERE w.a = x.a)) FROM X x, Y y WHERE x.b = y.b");
    (let shop =
       Workload.Gen.shop
         { Workload.Gen.default_shop with ncustomers = 80; norders = 240 }
     in
     qcase "E13-shop-mix" shop
       (compiled Pipeline.Decorrelated shop
          "SELECT c.name FROM CUSTOMERS c WHERE FORALL o IN (SELECT o \
           FROM ORDERS o WHERE o.cust = c.id) (o.status = \"done\")"));
  ]

(* One instrumented execution per case with a physical plan: the
   est-vs-actual per-operator tree for the artifact. *)
let operators_json case =
  match case.analyzed with
  | None -> Json.Null
  | Some (catalog, c) -> (
    match Pipeline.analyze catalog c with
    | Ok (_value, tree) -> Engine.Analyze.to_json tree
    | Error msg ->
      Printf.eprintf "warning: could not analyze %s: %s\n%!" case.name msg;
      Json.Null)

(* Serial vs parallel probing of the hash nest join ([Force_hash] keeps
   the planner on it; its build side, a bare scan of Y, is the cached
   table, so the morsel-driven probe is what gets measured) at n = 3000,
   10000, 20000 and 30000 rows per table, on 2 and 4 domains. The
   parallel runs lower the executor's row gate to 1, so every run takes
   the morsel path and pays its region's worker start-up: the scale where
   they stop losing to the serial loop is the break-even
   [Engine.Exec.parallel_rows] is set from. The smoke suite measures
   n = 3000 only, over fewer rounds. The top-level fields report the
   largest scale at the domain count NESTQL_JOBS asks for (else 4). *)
let parallel_case ~suite =
  let scales =
    if suite = "smoke" then [ 3000 ] else [ 3000; 10000; 20000; 30000 ]
  in
  let rounds = if suite = "smoke" then 5 else 15 in
  let jobs =
    match Pipeline.default_jobs () with n when n >= 2 -> n | _ -> 4
  in
  let opts =
    { Core.Planner.default_options with
      Core.Planner.force = Core.Planner.Force_hash }
  in
  let configs = 1 :: List.sort_uniq compare [ 2; 4; jobs ] in
  let measure n =
    let catalog =
      Workload.Gen.xy
        { Workload.Gen.default_xy with
          nx = n; ny = n; key_dom = n / 4; dangling = 0.1; seed = 77 }
    in
    let c =
      compiled ~options:opts Pipeline.Decorrelated catalog
        "SELECT (i = x.id, zs = (SELECT y.a FROM Y y WHERE y.b = x.b)) FROM X x"
    in
    let pq = Option.get c.Pipeline.physical in
    let exec j () = Engine.Exec.run ~jobs:j ~gate:1 catalog pq in
    let serial_v = exec 1 () in
    List.iter
      (fun j ->
        if not (Cobj.Value.equal serial_v (exec j ())) then
          failwith "parallel hash nest-join diverged from serial execution")
      (List.tl configs);
    (* Rounds alternate the configurations, so load drifting on the host
       hits each alike; each reports its median round. *)
    let samples =
      List.init rounds (fun _ ->
          List.map
            (fun j -> fst (Harness.time_once (fun () -> ignore (exec j ()))))
            configs)
    in
    let median k =
      let xs =
        List.sort Float.compare (List.map (fun r -> List.nth r k) samples)
      in
      List.nth xs (rounds / 2) /. 1e6
    in
    (n, median 0, List.mapi (fun k j -> (j, median (k + 1))) (List.tl configs))
  in
  let results = List.map measure scales in
  Harness.print_table
    ~title:
      (Printf.sprintf "hash nest-join probe: serial vs morsels (gate %d)"
         Engine.Exec.parallel_rows)
    ~header:[ "n"; "jobs"; "ms"; "speedup" ]
    (List.concat_map
       (fun (n, serial_ms, par) ->
         [ string_of_int n; "1"; Harness.fms serial_ms; "1.0x" ]
         :: List.map
              (fun (j, ms) ->
                [ ""; string_of_int j; Harness.fms ms;
                  Harness.fratio (serial_ms /. ms) ])
              par)
       results);
  let n, serial_ms, par = List.nth results (List.length results - 1) in
  let parallel_ms = List.assoc jobs par in
  Json.Obj
    [
      ("experiment", Json.String "E2-hash-nestjoin-parallel");
      ("scale", Json.Int n);
      ("jobs", Json.Int jobs);
      ("gate", Json.Int Engine.Exec.parallel_rows);
      ("serial_ms", Json.Float serial_ms);
      ("parallel_ms", Json.Float parallel_ms);
      ("speedup", Json.Float (serial_ms /. parallel_ms));
      ( "scales",
        Json.List
          (List.map
             (fun (n, serial_ms, par) ->
               Json.Obj
                 (("n", Json.Int n)
                 :: ("serial_ms", Json.Float serial_ms)
                 :: List.map
                      (fun (j, ms) ->
                        (Printf.sprintf "jobs%d_ms" j, Json.Float ms))
                      par))
             results) );
    ]

(* Bloom-filter sideways information passing on dangling-heavy workloads:
   the probe side is several times the build side and the build side is
   large enough that its hash table is cache-hostile while its Bloom
   filter is not — the regime the filter is for. Two timings per
   configuration:

   - whole-query wall clock, where the (shared) scan and materialization
     cost of both operands dilutes the effect;
   - the join operator's own time (its node in the EXPLAIN ANALYZE tree
     minus its children), isolating build + probe — the work the filter
     actually changes.

   A mixed catalog (half the probe keys dangling) sits next to an
   all-dangling one to show the prune-rate dependence; the artifact
   records the prune counters alongside both timings. *)
let bloom_case ~suite =
  let scale = if suite = "smoke" then 10_000 else 100_000 in
  let jobs =
    match Pipeline.default_jobs () with n when n >= 2 -> n | _ -> 4
  in
  let opts =
    { Core.Planner.default_options with
      Core.Planner.force = Core.Planner.Force_hash }
  in
  (* Single-field join keys keep the shared per-probe work (key eval +
     hash) small, so the avoidable hash-table lookup is what differs. *)
  let semijoin_q = "SELECT x.id FROM X x WHERE x.b IN (SELECT y.b FROM Y y)" in
  let nest_q =
    "SELECT (i = x.id, zs = (SELECT y.a FROM Y y WHERE y.b = x.b)) FROM X x"
  in
  (* Exclusive time of the topmost hash operator, median of [reps]
     instrumented runs. *)
  let operator_ms ~jobs ~bloom catalog c =
    let module Stats = Engine.Stats in
    let prefixed p s =
      String.length s >= String.length p && String.sub s 0 (String.length p) = p
    in
    let rec find (n : Stats.node) =
      if prefixed "hash-" n.Stats.op then Some n
      else
        List.fold_left
          (fun acc ch -> match acc with Some _ -> acc | None -> find ch)
          None n.Stats.children
    in
    let once () =
      match Pipeline.analyze ~jobs ~bloom catalog c with
      | Error msg -> failwith msg
      | Ok (_, tree) -> (
        match find tree with
        | None -> failwith "bloom bench: no hash operator in plan"
        | Some n ->
          let children_ns =
            List.fold_left
              (fun acc ch -> Int64.add acc ch.Stats.time_ns)
              0L n.Stats.children
          in
          Int64.to_float (Int64.sub n.Stats.time_ns children_ns) /. 1e6)
    in
    let samples = List.sort Float.compare (List.init 3 (fun _ -> once ())) in
    List.nth samples 1
  in
  let rows = ref [] in
  let entries = ref [] in
  List.iter
    (fun (cname, dangling) ->
      let catalog =
        Workload.Gen.xy
          { Workload.Gen.default_xy with
            nx = 4 * scale; ny = scale; key_dom = scale; dangling; seed = 77 }
      in
      List.iter
        (fun (qname, q) ->
          let c = compiled ~options:opts Pipeline.Decorrelated catalog q in
          List.iter
            (fun j ->
              let on = Pipeline.execute ~jobs:j ~bloom:true catalog c in
              let off = Pipeline.execute ~jobs:j ~bloom:false catalog c in
              if not (Cobj.Value.equal on off) then
                failwith (qname ^ ": bloom filtering changed the result");
              let stats = Engine.Stats.create () in
              ignore (Pipeline.execute ~stats ~jobs:j ~bloom:true catalog c);
              (* Interleaved rounds, keeping the per-mode minimum: heap
                 and GC state drift across a long run, so measuring one
                 mode entirely before the other biases whichever ran on
                 the colder heap. *)
              let timed bloom =
                Harness.measure_ms ~budget_ns:2.5e8 (fun () ->
                    ignore (Pipeline.execute ~jobs:j ~bloom catalog c))
              in
              let b1 = timed true in
              let n1 = timed false in
              let b2 = timed true in
              let n2 = timed false in
              let bloom_ms = Float.min b1 b2 in
              let nobloom_ms = Float.min n1 n2 in
              let op_bloom_ms = operator_ms ~jobs:j ~bloom:true catalog c in
              let op_nobloom_ms = operator_ms ~jobs:j ~bloom:false catalog c in
              let speedup = nobloom_ms /. bloom_ms in
              let op_speedup = op_nobloom_ms /. op_bloom_ms in
              rows :=
                [
                  cname; qname; string_of_int j;
                  Harness.fms bloom_ms; Harness.fms nobloom_ms;
                  Harness.fratio speedup;
                  Harness.fms op_bloom_ms; Harness.fms op_nobloom_ms;
                  Harness.fratio op_speedup;
                  string_of_int stats.Engine.Stats.bloom_prunes;
                ]
                :: !rows;
              entries :=
                Json.Obj
                  [
                    ("catalog", Json.String cname);
                    ("query", Json.String qname);
                    ("dangling", Json.Float dangling);
                    ("probe_rows", Json.Int (4 * scale));
                    ("build_rows", Json.Int scale);
                    ("jobs", Json.Int j);
                    ("bloom_ms", Json.Float bloom_ms);
                    ("nobloom_ms", Json.Float nobloom_ms);
                    ("speedup", Json.Float speedup);
                    ("operator_bloom_ms", Json.Float op_bloom_ms);
                    ("operator_nobloom_ms", Json.Float op_nobloom_ms);
                    ("operator_speedup", Json.Float op_speedup);
                    ("bloom_checks", Json.Int stats.Engine.Stats.bloom_checks);
                    ("bloom_prunes", Json.Int stats.Engine.Stats.bloom_prunes);
                  ]
                :: !entries)
            [ 1; jobs ])
        [ ("semijoin", semijoin_q); ("nestjoin", nest_q) ])
    [ ("mixed", 0.5); ("all-dangling", 1.0) ];
  Harness.print_table
    ~title:
      (Printf.sprintf
         "bloom SIP on dangling-heavy hash joins (probe=%d build=%d)"
         (4 * scale) scale)
    ~header:
      [ "catalog"; "query"; "jobs"; "query ms"; "no-bloom"; "speedup";
        "op ms"; "op no-bloom"; "op speedup"; "prunes" ]
    (List.rev !rows);
  Json.List (List.rev !entries)

(* Nest-join vs query shredding on the canonical SELECT-clause nesting
   query: the same logical plan executed through the hash nest-join and
   through the shredding backend's flat-queries-plus-stitch pipeline.
   The two values are asserted identical before anything is timed, and
   the artifact records whether the query genuinely shredded (a fallback
   would silently time the nest join twice — the regression gate checks
   the flag structurally). *)
let shred_case ~suite =
  let scale = if suite = "smoke" then 400 else 2000 in
  let catalog =
    Workload.Gen.xy
      { Workload.Gen.default_xy with
        nx = scale; ny = scale; key_dom = scale / 4; dangling = 0.1; seed = 77 }
  in
  let q =
    "SELECT (i = x.id, zs = (SELECT y.a FROM Y y WHERE y.b = x.b)) FROM X x"
  in
  let nest_c = compiled Pipeline.Decorrelated catalog q in
  let shred_c = compiled Pipeline.Shredded catalog q in
  let flat_queries =
    match shred_c.Pipeline.shredded with
    | Some exe -> Core.Shred.executable_flat_count exe
    | None -> 0
  in
  let nest_v = Pipeline.execute catalog nest_c in
  let shred_v = Pipeline.execute catalog shred_c in
  if not (Cobj.Value.equal nest_v shred_v) then
    failwith "shredding diverged from the nest join";
  let timed c =
    Harness.measure_ms ~budget_ns:2.5e8 (fun () ->
        ignore (Pipeline.execute catalog c))
  in
  (* interleaved, per-backend minimum — same heap-drift reasoning as the
     bloom bench *)
  let n1 = timed nest_c in
  let s1 = timed shred_c in
  let n2 = timed nest_c in
  let s2 = timed shred_c in
  let nest_ms = Float.min n1 n2 in
  let shred_ms = Float.min s1 s2 in
  let ratio = nest_ms /. shred_ms in
  Harness.print_table
    ~title:(Printf.sprintf "nest join vs query shredding (n=%d)" scale)
    ~header:[ "backend"; "ms"; "vs nest join" ]
    [
      [ "nest join"; Harness.fms nest_ms; "1.0x" ];
      [ Printf.sprintf "shred (%d flat queries)" flat_queries;
        Harness.fms shred_ms; Harness.fratio ratio ];
    ];
  Json.Obj
    [
      ("experiment", Json.String "E2-nestjoin-vs-shredding");
      ("scale", Json.Int scale);
      ("shredded", Json.Bool (shred_c.Pipeline.shredded <> None));
      ("flat_queries", Json.Int flat_queries);
      ("nest_ms", Json.Float nest_ms);
      ("shred_ms", Json.Float shred_ms);
      ("ratio", Json.Float ratio);
    ]

(* The columnar batch engine on filter/join-heavy queries, single-domain
   (jobs=1 keeps partition parallelism out of the timing). The values at
   the swept widths are asserted identical before anything is timed;
   timings are min-of-3 rounds, each after a compaction. The artifact
   also records the vectorized fraction of the annotation tree and the
   batches that fell back to row closures, the operators that ran on rows
   (the regression gate checks these structurally — a silently row-bound
   plan would otherwise still "pass" on a fast machine) and a batch-width
   sensitivity sweep (NESTQL_BATCH ∈ {64, 1024, 4096}). The hash family is
   forced throughout, but for one sort-merge nest join and one band nest
   join ([y.b < x.b], the sort family's range lookup). *)
let vector_case ~suite =
  let scale = if suite = "smoke" then 10_000 else 100_000 in
  let catalog =
    Workload.Gen.xy
      { Workload.Gen.default_xy with
        nx = scale; ny = scale / 4; key_dom = scale / 8; dangling = 0.3;
        seed = 77 }
  in
  let nestjoin =
    "SELECT (i = x.id, zs = (SELECT y.a FROM Y y WHERE y.b = x.b)) FROM X x"
  in
  let queries =
    List.map
      (fun (name, q) -> (name, Core.Planner.Force_hash, q))
      [
      ( "filter",
        "SELECT x.id FROM X x WHERE (x.a * 13 + x.b * 7) MOD 97 + x.a * x.a \
         < (x.b MOD 11) * 9 + 40" );
      ("semijoin", "SELECT x.id FROM X x WHERE x.b IN (SELECT y.b FROM Y y)");
      ("nestjoin", nestjoin);
      ( "unnest-join",
        "UNNEST(SELECT (SELECT (i = x.id, a = y.a) FROM Y y WHERE x.b = y.b \
         AND y.a < 10) FROM X x)" );
      ]
    @ [
        ("merge-nestjoin", Core.Planner.Force_merge, nestjoin);
        ( "band-nestjoin",
          Core.Planner.Force_merge,
          "SELECT (i = x.id, zs = (SELECT y.a FROM Y y WHERE y.b < x.b)) FROM \
           X x" );
      ]
  in
  (* Batches that fell back to the row closures in one execution: a join
     that binds rows, or a kernel that misses, shows up here even though
     its operator still reports [vectorized]. *)
  let fallbacks c =
    let was = Obs.Metrics.enabled () in
    Obs.Metrics.enable ();
    let before = Obs.Metrics.counter "exec.batch.kernel_fallbacks" in
    ignore (Pipeline.execute ~jobs:1 catalog c);
    let n = Obs.Metrics.counter "exec.batch.kernel_fallbacks" - before in
    if not was then Obs.Metrics.disable ();
    n
  in
  (* The fraction of the annotation tree's operators that ran vectorized,
     and the names of those that ran on rows. *)
  let vectorized c =
    match Pipeline.analyze ~jobs:1 catalog c with
    | Error msg -> failwith msg
    | Ok (_, tree) ->
      let module Stats = Engine.Stats in
      let total = ref 0 and vec = ref 0 and rows = ref [] in
      let rec walk (n : Stats.node) =
        incr total;
        if n.Stats.vectorized then incr vec else rows := n.Stats.op :: !rows;
        List.iter walk n.Stats.children
      in
      walk tree;
      (float_of_int !vec /. float_of_int !total, List.rev !rows)
  in
  let rows = ref [] in
  let entries = ref [] in
  List.iter
    (fun (qname, force, q) ->
      let options = { Core.Planner.default_options with Core.Planner.force } in
      let c = compiled ~options Pipeline.Decorrelated catalog q in
      let v = Pipeline.execute ~jobs:1 catalog c in
      List.iter
        (fun batch ->
          if
            not
              (Cobj.Value.equal v (Pipeline.execute ~jobs:1 ~batch catalog c))
          then
            failwith
              (Printf.sprintf "%s: batch width %d changed the result" qname
                 batch))
        [ 64; 4096 ];
      (* Compact before every measurement so no configuration inherits
         the previous one's major-heap debt; min-of-3 rounds on top (the
         run times here are long enough that [measure_ms] only fits a few
         samples per call). *)
      let timed ?batch () =
        Gc.compact ();
        Harness.measure_ms ~budget_ns:2.5e8 (fun () ->
            ignore (Pipeline.execute ~jobs:1 ?batch catalog c))
      in
      let min3 ?batch () =
        let t1 = timed ?batch () in
        let t2 = timed ?batch () in
        let t3 = timed ?batch () in
        Float.min t1 (Float.min t2 t3)
      in
      let vector_ms = min3 () in
      let fraction, row_ops = vectorized c in
      let fell_back = fallbacks c in
      let widths =
        List.map (fun batch -> (batch, min3 ~batch ())) [ 64; 1024; 4096 ]
      in
      rows :=
        ([ qname; Harness.fms vector_ms; Printf.sprintf "%.2f" fraction;
           string_of_int fell_back ]
        @ List.map (fun (_, ms) -> Harness.fms ms) widths)
        :: !rows;
      entries :=
        Json.Obj
          [
            ("query", Json.String qname);
            ("scale", Json.Int scale);
            ("jobs", Json.Int 1);
            ("vector_ms", Json.Float vector_ms);
            ("vectorized_fraction", Json.Float fraction);
            ("kernel_fallbacks", Json.Int fell_back);
            ( "row_operators",
              Json.List (List.map (fun op -> Json.String op) row_ops) );
            ( "batch_sensitivity",
              Json.List
                (List.map
                   (fun (batch, ms) ->
                     Json.Obj
                       [ ("batch", Json.Int batch); ("vector_ms", Json.Float ms) ])
                   widths) );
          ]
        :: !entries)
    queries;
  Harness.print_table
    ~title:(Printf.sprintf "columnar batch engine, jobs=1 (n=%d)" scale)
    ~header:
      [ "query"; "ms"; "vec-frac"; "fallbacks"; "b=64"; "b=1024"; "b=4096" ]
    (List.rev !rows);
  Json.List (List.rev !entries)

(* Server-mode request latency through the daemon's cache layer (the
   Cache module in-process — exactly what [nestql serve] runs under its
   executor lock, minus socket I/O): a cold request pays parse + compile
   + execute, a warm-plan request pays parse + execute, a warm-result
   request pays parse + lookup. The three replies are asserted identical
   before anything is timed, and the artifact records the cache counters
   so the regression gate can check the hits structurally on any
   hardware. *)
let server_case ~suite =
  let scale = if suite = "smoke" then 200 else 1000 in
  let catalog =
    Workload.Gen.xy
      { Workload.Gen.default_xy with
        nx = scale; ny = scale; key_dom = scale / 4; dangling = 0.1; seed = 77 }
  in
  let q =
    "SELECT x.id FROM X x WHERE x.a IN (SELECT y.a FROM Y y WHERE x.b = y.b)"
  in
  let strategy = Pipeline.Decorrelated in
  let ask ?cache t =
    match Server.Cache.query t ?cache strategy catalog q with
    | Ok reply -> reply
    | Error _ -> failwith "server bench: query failed"
  in
  (* Three cache configurations; prime the warm ones and assert the
     outcome they are supposed to measure. *)
  let cold_cache = Server.Cache.create ~plan_capacity:0 ~result_capacity:0 () in
  let plan_cache =
    Server.Cache.create ~plan_capacity:16 ~result_capacity:0 ()
  in
  let result_cache =
    Server.Cache.create ~plan_capacity:16 ~result_capacity:(1 lsl 22) ()
  in
  let cold = ask ~cache:false cold_cache in
  let _prime = ask plan_cache in
  let warm_plan = ask plan_cache in
  let _prime = ask result_cache in
  let warm_result = ask result_cache in
  if warm_plan.Server.Cache.plan <> Server.Cache.Hit then
    failwith "server bench: warm-plan request missed the plan cache";
  if warm_result.Server.Cache.result <> Server.Cache.Hit then
    failwith "server bench: warm-result request missed the result cache";
  if
    not
      (String.equal cold.Server.Cache.result_json
         warm_plan.Server.Cache.result_json
      && String.equal cold.Server.Cache.result_json
           warm_result.Server.Cache.result_json)
  then failwith "server bench: cached reply diverged from cold execution";
  let timed f = Harness.measure_ms ~budget_ns:2.5e8 f in
  let cold_ms = timed (fun () -> ignore (ask ~cache:false cold_cache)) in
  let warm_plan_ms = timed (fun () -> ignore (ask plan_cache)) in
  let warm_result_ms = timed (fun () -> ignore (ask result_cache)) in
  (* Tail latency on the warm-plan tier, through the same log-scaled
     histogram geometry the live scrape endpoint serves: each request is
     timed individually and observed in microseconds, and the quantiles
     come from [Obs.Metrics.quantile] — so a regression here is exactly
     what a production p95 alert on nestql_server_request_us would see. *)
  let hist = "bench.server.request.us" in
  Obs.Metrics.enable ();
  let reqs = if suite = "smoke" then 64 else 256 in
  for _ = 1 to reqs do
    let ns, _ = Harness.time_once (fun () -> ask plan_cache) in
    Obs.Metrics.observe hist (int_of_float (ns /. 1e3))
  done;
  let p50_us = Obs.Metrics.quantile hist 0.50 in
  let p95_us = Obs.Metrics.quantile hist 0.95 in
  let p99_us = Obs.Metrics.quantile hist 0.99 in
  (* One instrumented cold execution attributes the request to its
     hottest operator, the same way a slow-query log line would. *)
  let hot =
    match
      Server.Cache.query cold_cache ~cache:false ~instrument:true strategy
        catalog q
    with
    | Error _ -> failwith "server bench: instrumented query failed"
    | Ok r -> (
      match r.Server.Cache.tree with
      | None -> None
      | Some tree -> (
        match Engine.Profile.top ~k:1 (Engine.Profile.of_node tree) with
        | row :: _ -> Some row
        | [] -> None))
  in
  let hot_op = match hot with Some r -> r.Engine.Profile.op | None -> "" in
  let hot_self_ms =
    match hot with
    | Some r -> Int64.to_float r.Engine.Profile.self_ns /. 1e6
    | None -> 0.
  in
  Harness.print_table
    ~title:
      (Printf.sprintf "server warm-plan latency distribution (%d requests)"
         reqs)
    ~header:[ "p50 us"; "p95 us"; "p99 us"; "hottest operator" ]
    [
      [ Printf.sprintf "%.0f" p50_us; Printf.sprintf "%.0f" p95_us;
        Printf.sprintf "%.0f" p99_us;
        Printf.sprintf "%s (%.3f self-ms)" hot_op hot_self_ms ];
    ];
  Harness.print_table
    ~title:
      (Printf.sprintf "server request latency, cache tiers (n=%d)" scale)
    ~header:[ "tier"; "ms"; "speedup" ]
    [
      [ "cold"; Harness.fms cold_ms; "1.0x" ];
      [ "warm plan"; Harness.fms warm_plan_ms;
        Harness.fratio (cold_ms /. warm_plan_ms) ];
      [ "warm result"; Harness.fms warm_result_ms;
        Harness.fratio (cold_ms /. warm_result_ms) ];
    ];
  Json.Obj
    [
      ("scale", Json.Int scale);
      ("cold_ms", Json.Float cold_ms);
      ("warm_plan_ms", Json.Float warm_plan_ms);
      ("warm_result_ms", Json.Float warm_result_ms);
      ("plan_speedup", Json.Float (cold_ms /. warm_plan_ms));
      ("result_speedup", Json.Float (cold_ms /. warm_result_ms));
      ("plan_hits", Json.Int (Server.Cache.plan_hits plan_cache));
      ("result_hits", Json.Int (Server.Cache.result_hits result_cache));
      ("latency_samples", Json.Int reqs);
      ("request_p50_us", Json.Float p50_us);
      ("request_p95_us", Json.Float p95_us);
      ("request_p99_us", Json.Float p99_us);
      ("hot_op", Json.String hot_op);
      ("hot_self_ms", Json.Float hot_self_ms);
    ]

let headline ~suite ~limit ~quota () =
  let open Bechamel in
  (* accumulate the obs registry across the whole suite so the artifact
     records rewrite/decorrelation/prune counters alongside the timings *)
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  let cases = headline_cases () in
  let tests =
    List.map
      (fun c -> Test.make ~name:c.name (Staged.stage c.run))
      cases
  in
  let rows = Harness.bechamel_table ~limit ~quota tests in
  Harness.print_table
    ~title:(Printf.sprintf "%s micro-benchmarks (OLS ns/run)" suite)
    ~header:[ "experiment"; "ns/run" ]
    (List.map (fun (name, ns) -> [ name; Printf.sprintf "%.0f" ns ]) rows);
  let ns_of name =
    match List.assoc_opt name rows with Some ns -> ns | None -> Float.nan
  in
  let experiments =
    List.map
      (fun case ->
        Json.Obj
          [
            ("name", Json.String case.name);
            ("ns_per_run", Json.Float (ns_of case.name));
            ("operators", operators_json case);
          ])
      cases
  in
  let parallel = parallel_case ~suite in
  let shred = shred_case ~suite in
  let bloom = bloom_case ~suite in
  let vector = vector_case ~suite in
  let server = server_case ~suite in
  Harness.write_json_artifact ~suite
    (Json.Obj
       [
         ("suite", Json.String suite);
         ("quota_s", Json.Float quota);
         ("jobs", Json.Int (Pipeline.default_jobs ()));
         ("experiments", Json.List experiments);
         ("parallel", parallel);
         ("shred", shred);
         ("bloom", bloom);
         ("vector", vector);
         ("server", server);
         ("metrics", Engine.Obs_json.metrics ());
       ])

let run_suite = function
  | "headline" -> headline ~suite:"headline" ~limit:300 ~quota:0.3 ()
  | "smoke" -> headline ~suite:"smoke" ~limit:50 ~quota:0.05 ()
  | _ -> assert false

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let known = List.map fst Experiments.all in
  match args with
  | [] ->
    run_suite "headline";
    List.iter (fun (_, f) -> f ()) Experiments.all
  | names ->
    List.iter
      (fun name ->
        match name with
        | "headline" | "smoke" -> run_suite name
        | "bloom" -> ignore (bloom_case ~suite:"headline")
        | "shred" -> ignore (shred_case ~suite:"headline")
        | "vector" -> ignore (vector_case ~suite:"headline")
        | "server" -> ignore (server_case ~suite:"headline")
        | "parallel" -> ignore (parallel_case ~suite:"headline")
        | _ -> (
          match List.assoc_opt name Experiments.all with
          | Some f -> f ()
          | None ->
            Printf.eprintf
              "unknown experiment %s (known: headline, smoke, %s)\n" name
              (String.concat ", " known);
            exit 1))
      names
