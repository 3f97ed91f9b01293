(* nestql — CLI for the nested-query optimizer.

   Subcommands:
     run      execute a query against a built-in generated catalog
     explain  show logical + physical plans under a strategy
     check    type-check + lint a query (or a file / random corpus)
     table2   print the predicate classification table (paper Table 2)
     catalog  print a generated catalog
     demo     run the paper's flagship queries end to end *)

(* Register the phase verifier: every compile can then check each optimizer
   phase (on by default under dune / NESTQL_VERIFY, forced by --verify). *)
let () = Analysis.Verify.install ()

(* Register the step certifier, the property annotator and the proven-key
   cost oracle: every compile can then certify each recorded rewrite step
   (on by default under dune / NESTQL_VERIFY / NESTQL_CERTIFY, forced by
   --certify), EXPLAIN ANALYZE trees carry proven bounds=/keys= annotations
   cross-checked against actual row counts, and the cost model consults
   proven keys where statistics fall short. *)
let () = Analysis.Certify.install ()

let strategies = Core.Pipeline.all_strategies

let strategy_conv =
  let parse s =
    match
      List.find_opt
        (fun st -> String.equal (Core.Pipeline.strategy_name st) s)
        strategies
    with
    | Some st -> Ok st
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown strategy %s (try: %s)" s
             (String.concat ", "
                (List.map Core.Pipeline.strategy_name strategies))))
  in
  let print ppf st = Fmt.string ppf (Core.Pipeline.strategy_name st) in
  Cmdliner.Arg.conv (parse, print)

(* The built-in generated catalogs live in Server.Session so the serve
   [catalog] op and the one-shot CLI stay in lockstep. *)
let catalog_of_name name seed scale =
  Server.Session.catalog_of_name ~name ~seed ~scale

open Cmdliner

let catalog_arg =
  Arg.(
    value & opt string "xy"
    & info [ "c"; "catalog" ] ~docv:"NAME"
        ~doc:"Built-in catalog: xy, xyz, company or table1.")

let file_arg =
  Arg.(
    value & opt (some file) None
    & info [ "f"; "file" ] ~docv:"FILE"
        ~doc:
          "Load the catalog from a definition file (see examples/movies.nql) \
           instead of generating one.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")

let scale_arg =
  Arg.(
    value & opt int 100
    & info [ "n"; "scale" ] ~docv:"N" ~doc:"Table cardinality.")

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv Core.Pipeline.Decorrelated
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Execution strategy: interp, naive, decorrelated, \
           decorrelated-outerjoin, kim, ganski-wong, muralikrishna or \
           shred.")

let query_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print work counters.")

let explain_analyze_arg =
  Arg.(
    value & flag
    & info [ "explain-analyze" ]
        ~doc:
          "Execute under per-operator instrumentation and print an EXPLAIN \
           ANALYZE tree (estimated vs. actual rows, loops, work counters, \
           wall-clock) instead of the result value.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "With $(b,--explain-analyze), emit the annotated plan as JSON \
           (one per-operator object with rows_out, est_rows, time_ns, \
           counters and children).")

let no_timing_arg =
  Arg.(
    value & flag
    & info [ "no-timing" ]
        ~doc:
          "With $(b,--explain-analyze), omit wall-clock fields so the \
           output is deterministic (for tests and diffing).")

let no_bloom_arg =
  Arg.(
    value & flag
    & info [ "no-bloom" ]
        ~doc:
          "Disable Bloom-filter sideways information passing in the \
           hash-join family. Results are identical either way; only the \
           bloom_checks/bloom_prunes counters differ (for the differential \
           tests and the benches).")

let jobs_arg =
  Arg.(
    value & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Execute with $(docv) domains (partition-parallel hash joins). \
           Results are identical to serial execution. Defaults to \
           $(b,NESTQL_JOBS) when set, else 1.")

let batch_arg =
  Arg.(
    value & opt (some int) None
    & info [ "batch" ] ~docv:"N"
        ~doc:
          "Columnar batch width in rows. Defaults to $(b,NESTQL_BATCH) \
           when it parses as a positive integer, else 1024.")

let misest_floor_arg =
  Arg.(
    value & opt (some float) None
    & info [ "misest-floor" ] ~docv:"F"
        ~doc:
          "Noise floor for the misestimation report: operators within \
           $(docv)× of their estimate are summarized in one line instead \
           of listed. Defaults to 1.5; must be at least 1.0 (divergence \
           factors are never smaller).")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Check every optimizer phase (translation, each decorrelation / \
           rewrite / reorder round, physical planning) against the plan \
           verifier's structural invariants; a violation aborts with the \
           phase, rule and offending subplan. Also enabled by \
           $(b,NESTQL_VERIFY).")

let certify_arg =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Record every rewrite the optimizer applies as a (rule, before, \
           after) step and discharge each rule's proof obligation \
           (translation validation), plus whole-phase type / free-variable \
           / cardinality-bound preservation and the property-backed §6 \
           build-side check on the physical plan; a violation aborts with \
           the phase, rule and step index. Also enabled by \
           $(b,NESTQL_CERTIFY) (and by default wherever the verifier \
           defaults on).")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Trace the optimizer (naive plan and each rewrite round).")

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  if verbose then Logs.set_level (Some Logs.Debug)
  else Logs.set_level (Some Logs.Warning)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  contents

(* A query file is the query text with ---comment lines stripped. *)
let load_query_file path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun line ->
         let line = String.trim line in
         not (String.length line >= 2 && String.sub line 0 2 = "--"))
  |> String.concat "\n" |> String.trim

let with_catalog ?file name seed scale f =
  let loaded =
    match file with
    | Some path -> Lang.Schema.catalog (read_file path)
    | None -> catalog_of_name name seed scale
  in
  match loaded with
  | Error msg ->
    Fmt.epr "error: %s@." msg;
    1
  | Ok catalog -> f catalog

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON timeline of the run to $(docv) \
           (open it in chrome://tracing or ui.perfetto.dev): one span per \
           pipeline phase, per physical operator, and per morsel — the \
           morsel spans are tagged with the executing domain id, making \
           worker utilization and partition skew visible. Also enables the \
           metrics registry.")

let misest_arg =
  Arg.(
    value & flag
    & info [ "misest" ]
        ~doc:
          "After execution, print the misestimation report: operators \
           ranked by est-vs-actual cardinality divergence, with the \
           responsible catalog statistic (or fallback constant) named. \
           Included automatically in $(b,--explain-analyze) output.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Execute under per-operator instrumentation and print the \
           self-time profile: exclusive wall-clock per physical operator \
           (inclusive time minus the children's), hottest first, with \
           rows/self-ms and vectorized / bloom / partition annotations, \
           followed by an inclusive flame view of the plan tree. With \
           $(b,--explain-analyze) the profile is embedded in the analysis \
           output; with $(b,--json) it is emitted as a JSON document. \
           Timing-class output — suppressed by $(b,--no-timing).")

let slow_ms_arg =
  Arg.(
    value & opt (some int) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Slow-query log threshold: when execution takes at least $(docv) \
           milliseconds, append one structured \"slow.query\" line to the \
           query log ($(b,NESTQL_QUERY_LOG)) carrying the plan digest, the \
           top self-time operators and the worst misestimates. 0 logs \
           every query.")

let run_cmd =
  let run name file seed scale strategy show_stats explain_analyze json
      no_timing jobs no_bloom batch misest_floor verify certify
      verbose trace misest profile slow_ms query =
    setup_logs verbose;
    let verify = if verify then Some true else None in
    let certify = if certify then Some true else None in
    match (jobs, batch, misest_floor) with
    | Some n, _, _ when n < 1 ->
      Fmt.epr "nestql: --jobs expects a positive domain count, got %d@." n;
      1
    | _, Some b, _ when b < 1 ->
      Fmt.epr "nestql: --batch expects a positive row count, got %d@." b;
      1
    | _, _, Some f when f < 1.0 ->
      Fmt.epr "nestql: --misest-floor expects a factor >= 1.0, got %g@." f;
      1
    | _ ->
      with_catalog ?file name seed scale (fun catalog ->
          let query =
            if Sys.file_exists query then load_query_file query else query
          in
          let bloom = not no_bloom in
          let with_trace f =
            match trace with
            | None -> f ()
            | Some path ->
              (* Metrics ride along with tracing: one flag buys the full
                 observability picture (spans + rule firings + prune
                 rates + skew histograms). *)
              Obs.Metrics.enable ();
              Obs.Trace.start ~path;
              Fun.protect ~finally:Obs.Trace.stop f
          in
          with_trace (fun () ->
              match
                Core.Pipeline.compile_string ?verify ?certify strategy catalog
                  query
              with
              | Error msg ->
                Fmt.epr "error: %s@." msg;
                1
              | Ok compiled -> (
                (* Tracing, the misest report and the query log all need
                   the instrumented executor (operator spans, actual row
                   counts); the result value is identical either way. *)
                let instrument =
                  explain_analyze || misest || profile
                  || ((trace <> None || slow_ms <> None
                      || Obs.Qlog.enabled ())
                     && compiled.Core.Pipeline.physical <> None)
                in
                let stats = Engine.Stats.create () in
                let t0 = Monotonic_clock.now () in
                let outcome =
                  if instrument then
                    Result.map
                      (fun (v, tree) -> (v, Some tree))
                      (Core.Pipeline.analyze ?jobs ~bloom ?batch
                         catalog compiled)
                  else
                    match
                      Core.Pipeline.execute ~stats ?jobs ~bloom ?batch catalog
                        compiled
                    with
                    | v -> Ok (v, None)
                    | exception Cobj.Value.Type_error msg ->
                      Error ("runtime error: " ^ msg)
                    | exception Lang.Interp.Undefined msg ->
                      Error ("undefined: " ^ msg)
                in
                let ms =
                  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)
                  /. 1e6
                in
                match outcome with
                | Error msg ->
                  Fmt.epr "error: %s@." msg;
                  1
                | Ok (v, tree) ->
                  (match tree with
                  | Some t -> Engine.Stats.sum_into stats t
                  | None -> ());
                  let entries =
                    match (tree, compiled.Core.Pipeline.physical) with
                    | Some t, Some pq -> Core.Misest.of_query catalog pq t
                    | _ -> []
                  in
                  (match tree with
                  | Some t when explain_analyze ->
                    let rendered =
                      Core.Pipeline.render_analysis ~json
                        ~timing:(not no_timing) ~profile ?misest_floor
                        ~catalog compiled t
                    in
                    if json then print_endline rendered
                    else print_string rendered
                  | Some t when profile ->
                    if json then
                      print_endline
                        (Engine.Json.to_string
                           (Engine.Profile.to_json
                              (Engine.Profile.of_node t)))
                    else begin
                      Fmt.pr "%a@." Cobj.Value.pp v;
                      if show_stats then
                        Fmt.pr "-- %a@." Engine.Stats.pp stats;
                      if not no_timing then begin
                        Fmt.pr "%a@." Engine.Profile.pp
                          (Engine.Profile.of_node t);
                        Fmt.pr "flame:@.%a" Engine.Profile.pp_flame t
                      end
                    end
                  | _ ->
                    Fmt.pr "%a@." Cobj.Value.pp v;
                    if show_stats then
                      Fmt.pr "-- %a@." Engine.Stats.pp stats);
                  if misest && not explain_analyze then
                    Fmt.pr "%a@."
                      (Core.Misest.pp ?floor:misest_floor)
                      entries;
                  Obs.Qlog.emit
                    ([
                       ("event", Obs.Trace.Str "query");
                       ( "strategy",
                         Obs.Trace.Str
                           (Core.Pipeline.strategy_name
                              compiled.Core.Pipeline.strategy) );
                       ( "jobs",
                         Obs.Trace.Int
                           (match jobs with
                           | Some j -> j
                           | None -> Core.Pipeline.default_jobs ()) );
                       ("bloom", Obs.Trace.Bool bloom);
                       ( "rows",
                         Obs.Trace.Int
                           (match v with
                           | Cobj.Value.Set l | Cobj.Value.List l ->
                             List.length l
                           | _ -> 1) );
                       ("ms", Obs.Trace.Num ms);
                       ( "bloom_prunes",
                         Obs.Trace.Int stats.Engine.Stats.bloom_prunes );
                       ( "max_misest",
                         Obs.Trace.Num (Core.Misest.max_factor entries) );
                     ]
                    @
                    match trace with
                    | Some path -> [ ("trace", Obs.Trace.Str path) ]
                    | None -> []);
                  (* Slow-query log: one structured line per offending
                     query, greppable by plan digest. Mirrors the serve
                     daemon's slow.query schema minus the cache fields. *)
                  (match slow_ms with
                  | Some threshold_ms when ms >= float_of_int threshold_ms
                    ->
                    let hot =
                      match tree with
                      | None -> ""
                      | Some t ->
                        String.concat ","
                          (List.map
                             (fun (r : Engine.Profile.row) ->
                               Printf.sprintf "%s=%.3fms" r.Engine.Profile.op
                                 (Int64.to_float r.Engine.Profile.self_ns
                                 /. 1e6))
                             (Engine.Profile.top ~k:5
                                (Engine.Profile.of_node t)))
                    in
                    let misest_s =
                      String.concat ";"
                        (List.filteri (fun i _ -> i < 3) entries
                        |> List.map (fun (e : Core.Misest.entry) ->
                               Printf.sprintf "%.1fx-%s %s"
                                 e.Core.Misest.factor
                                 (if e.Core.Misest.under then "under"
                                  else "over")
                                 e.Core.Misest.op))
                    in
                    Obs.Qlog.emit
                      [
                        ("event", Obs.Trace.Str "slow.query");
                        ( "strategy",
                          Obs.Trace.Str
                            (Core.Pipeline.strategy_name
                               compiled.Core.Pipeline.strategy) );
                        ( "jobs",
                          Obs.Trace.Int
                            (match jobs with
                            | Some j -> j
                            | None -> Core.Pipeline.default_jobs ()) );
                        ( "rows",
                          Obs.Trace.Int
                            (match v with
                            | Cobj.Value.Set l | Cobj.Value.List l ->
                              List.length l
                            | _ -> 1) );
                        ("ms", Obs.Trace.Num ms);
                        ("threshold_ms", Obs.Trace.Int threshold_ms);
                        ( "plan_digest",
                          Obs.Trace.Str
                            (Core.Pipeline.plan_digest
                               compiled.Core.Pipeline.strategy catalog
                               compiled.Core.Pipeline.source) );
                        ("hot", Obs.Trace.Str hot);
                        ("misest", Obs.Trace.Str misest_s);
                      ]
                  | _ -> ());
                  0)))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute a query (or a query file from examples/queries) against a \
          generated catalog.")
    Term.(
      const run $ catalog_arg $ file_arg $ seed_arg $ scale_arg $ strategy_arg
      $ stats_arg $ explain_analyze_arg $ json_arg $ no_timing_arg $ jobs_arg
      $ no_bloom_arg $ batch_arg $ misest_floor_arg
      $ verify_arg $ certify_arg $ verbose_arg $ trace_arg $ misest_arg
      $ profile_arg $ slow_ms_arg $ query_arg)

let explain_cmd =
  let explain name file seed scale strategy verbose query =
    setup_logs verbose;
    with_catalog ?file name seed scale (fun catalog ->
        match Lang.Parser.expr_result query with
        | Error msg ->
          Fmt.epr "error: %s@." msg;
          1
        | Ok expr -> (
          match Core.Pipeline.compile strategy catalog expr with
          | Error msg ->
            Fmt.epr "error: %s@." msg;
            1
          | Ok compiled ->
            print_string (Core.Pipeline.explain ~costs:true catalog compiled);
            (match Analysis.Lint.query catalog expr with
            | Ok (_t, (_ :: _ as diags)) ->
              Fmt.pr "@.lint:@.%s@." (Analysis.Lint.render diags)
            | Ok (_, []) | Error _ -> ());
            0))
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Show the logical and physical plans.")
    Term.(
      const explain $ catalog_arg $ file_arg $ seed_arg $ scale_arg
      $ strategy_arg $ verbose_arg $ query_arg)

let check_cmd =
  let check name file seed scale strict verify certify diff jobs gen json
      strategy_names query =
    (* The strategy filter takes plain names so a typo is a clean usage
       error (exit 2 with the valid names), not a cmdliner parse abort. *)
    let lookup s =
      List.find_opt
        (fun st -> String.equal (Core.Pipeline.strategy_name st) s)
        Core.Pipeline.all_strategies
    in
    match List.filter (fun s -> lookup s = None) strategy_names with
    | _ :: _ as unknown ->
      Fmt.epr "nestql: unknown strateg%s %s (try: %s)@."
        (if List.length unknown > 1 then "ies" else "y")
        (String.concat ", " unknown)
        (String.concat ", "
           (List.map Core.Pipeline.strategy_name Core.Pipeline.all_strategies));
      2
    | [] ->
      let chosen =
        match strategy_names with
        | [] -> Core.Pipeline.all_strategies
        | names -> List.filter_map lookup names
      in
      with_catalog ?file name seed scale (fun catalog ->
          let sources =
            match (gen, query) with
            | Some n, _ -> Ok (Workload.Gen.queries ~count:n ~seed ())
            | None, Some q when Sys.file_exists q -> Ok [ load_query_file q ]
            | None, Some q -> Ok [ q ]
            | None, None ->
              Error "check expects a query (or a query file, or --gen N)"
          in
          match sources with
          | Error msg ->
            Fmt.epr "error: %s@." msg;
            1
          | Ok sources ->
            let many = List.length sources > 1 in
            let status = ref 0 in
            let fail code msg =
              Fmt.epr "error: %s@." msg;
              status := max !status code
            in
            let nwarnings = ref 0 in
            let nshredded = ref 0 and nfallbacks = ref 0 in
            let verify_opt = if verify then Some true else None in
            let certify_opt = if certify then Some true else None in
            (* Compile a query under every chosen strategy with the
               requested verification/certification, collecting per-strategy
               outcomes (shared by the text and JSON paths). *)
            let compile_strategies src =
              List.map
                (fun strategy ->
                  ( Core.Pipeline.strategy_name strategy,
                    Result.map
                      (fun _ -> ())
                      (Core.Pipeline.compile_string ?verify:verify_opt
                         ?certify:certify_opt strategy catalog src) ))
                chosen
            in
            (* --diff: the cross-backend differential oracle — the
               reference interpreter, the nest-join backend and the
               shredding backend must agree value-for-value. *)
            let differential src =
              match Core.Pipeline.run Core.Pipeline.Interp catalog src with
              | Error msg -> fail 1 (Printf.sprintf "interp: %s" msg)
              | Ok reference ->
                List.iter
                  (fun strategy ->
                    match
                      Core.Pipeline.compile_string strategy catalog src
                    with
                    | Error msg ->
                      fail 1
                        (Printf.sprintf "strategy %s: %s"
                           (Core.Pipeline.strategy_name strategy)
                           msg)
                    | Ok compiled ->
                      (if strategy = Core.Pipeline.Shredded then
                         if compiled.Core.Pipeline.shredded <> None then
                           incr nshredded
                         else incr nfallbacks);
                      let v =
                        Core.Pipeline.execute ?jobs catalog compiled
                      in
                      if not (Cobj.Value.equal reference v) then
                        fail 1
                          (Printf.sprintf
                             "strategy %s disagrees with interp on %s"
                             (Core.Pipeline.strategy_name strategy)
                             src))
                  [ Core.Pipeline.Decorrelated; Core.Pipeline.Shredded ]
            in
            let strict_gate () =
              if strict && !nwarnings > 0 then begin
                Fmt.epr
                  "strict: %d grouping-required correlated predicate(s) — \
                   COUNT-bug risk under flattening baselines@."
                  !nwarnings;
                status := max !status 2
              end
            in
            if json then begin
              let module J = Engine.Json in
              let clause_name = function
                | Analysis.Lint.Where -> "where"
                | Analysis.Lint.Select_clause -> "select"
              in
              (* Inferred properties per subquery: the naive translation
                 keeps one Apply node per subquery (the binders the lint
                 diagnostics name), so each subquery plan gets its own
                 property summary. *)
              let subquery_props src =
                match
                  Core.Pipeline.compile_string ~verify:false ~certify:false
                    Core.Pipeline.Naive catalog src
                with
                | Ok { Core.Pipeline.logical = Some q; _ } ->
                  List.rev
                    (Algebra.Plan.fold
                       (fun acc p ->
                         match p with
                         | Algebra.Plan.Apply { var; subquery; _ } ->
                           ( var,
                             Analysis.Props.of_plan catalog
                               subquery.Algebra.Plan.plan )
                           :: acc
                         | _ -> acc)
                       [] q.Algebra.Plan.plan)
                | Ok _ | Error _ -> []
              in
              let plan_props src =
                match
                  Core.Pipeline.compile_string ~verify:false ~certify:false
                    Core.Pipeline.Decorrelated catalog src
                with
                | Ok { Core.Pipeline.logical = Some q; _ } ->
                  Some (Analysis.Props.of_plan catalog q.Algebra.Plan.plan)
                | Ok _ | Error _ -> None
              in
              let query_json src =
                let strat =
                  if verify || certify then compile_strategies src else []
                in
                List.iter
                  (fun (sname, r) ->
                    match r with
                    | Ok () -> ()
                    | Error msg ->
                      fail 1 (Printf.sprintf "strategy %s: %s" sname msg))
                  strat;
                if diff then differential src;
                match Analysis.Lint.query_string catalog src with
                | Error msg ->
                  status := max !status 1;
                  J.Obj [ ("query", J.String src); ("error", J.String msg) ]
                | Ok (t, diags) ->
                  nwarnings :=
                    !nwarnings + List.length (Analysis.Lint.warnings diags);
                  let sprops = subquery_props src in
                  let diag_json (d : Analysis.Lint.diagnostic) =
                    J.Obj
                      ([
                         ("subquery", J.String d.z);
                         ("clause", J.String (clause_name d.clause));
                         ("correlated", J.Bool d.correlated);
                         ( "verdict",
                           J.String (Analysis.Lint.kind_name d.kind) );
                         ("kim_risk", J.Bool d.kim_risk);
                         ( "tables",
                           J.List
                             (List.map
                                (fun (n, v) -> J.String (n ^ " " ^ v))
                                d.tables) );
                       ]
                      @
                      match List.assoc_opt d.z sprops with
                      | Some p -> [ ("props", Analysis.Props.to_json p) ]
                      | None -> [])
                  in
                  J.Obj
                    ([
                       ("query", J.String src);
                       ("type", J.String (Fmt.str "%a" Cobj.Ctype.pp t));
                       ("subqueries", J.List (List.map diag_json diags));
                     ]
                    @ (match plan_props src with
                      | Some p ->
                        [ ("plan_props", Analysis.Props.to_json p) ]
                      | None -> [])
                    @
                    if strat = [] then []
                    else
                      [
                        ( "strategies",
                          J.List
                            (List.map
                               (fun (sname, r) ->
                                 J.Obj
                                   [
                                     ("strategy", J.String sname);
                                     ("ok", J.Bool (Result.is_ok r));
                                     ( "error",
                                       match r with
                                       | Ok () -> J.Null
                                       | Error e -> J.String e );
                                   ])
                               strat) );
                      ])
              in
              let queries = List.map query_json sources in
              strict_gate ();
              let doc =
                J.Obj
                  [
                    ("catalog", J.String name);
                    ("seed", J.Int seed);
                    ("scale", J.Int scale);
                    ("gen", match gen with Some n -> J.Int n | None -> J.Null);
                    ("verify", J.Bool verify);
                    ("certify", J.Bool certify);
                    ("diff", J.Bool diff);
                    ("strict", J.Bool strict);
                    ( "strategies",
                      J.List
                        (List.map
                           (fun st ->
                             J.String (Core.Pipeline.strategy_name st))
                           chosen) );
                    ("queries", J.List queries);
                    ( "summary",
                      J.Obj
                        [
                          ("queries", J.Int (List.length sources));
                          ("warnings", J.Int !nwarnings);
                          ( "shredded",
                            if diff then J.Int !nshredded else J.Null );
                          ( "fallbacks",
                            if diff then J.Int !nfallbacks else J.Null );
                          ("status", J.Int !status);
                        ] );
                  ]
              in
              print_endline (J.to_pretty_string doc);
              !status
            end
            else begin
              (* With --gen, lead with the corpus parameters so any failure
                 in a CI log is reproducible from the output alone. *)
              (match gen with
              | Some n -> Fmt.pr "-- corpus: %d queries, seed %d@." n seed
              | None -> ());
              List.iter
                (fun src ->
                  if many then Fmt.pr "-- %s@." src;
                  match Analysis.Lint.query_string catalog src with
                  | Error msg -> fail 1 msg
                  | Ok (t, diags) ->
                    Fmt.pr "type: %a@." Cobj.Ctype.pp t;
                    (match diags with
                    | [] -> ()
                    | _ :: _ -> Fmt.pr "%s@." (Analysis.Lint.render diags));
                    nwarnings :=
                      !nwarnings + List.length (Analysis.Lint.warnings diags);
                    if verify || certify then
                      List.iter
                        (fun (sname, r) ->
                          match r with
                          | Ok () -> ()
                          | Error msg ->
                            fail 1
                              (Printf.sprintf "strategy %s: %s" sname msg))
                        (compile_strategies src);
                    if diff then differential src;
                    if many then Fmt.pr "@.")
                sources;
              if verify && !status = 0 then
                Fmt.pr "phases verified: %d quer%s under %d strategies@."
                  (List.length sources)
                  (if many then "ies" else "y")
                  (List.length chosen);
              if certify && !status = 0 then
                Fmt.pr "rewrites certified: %d quer%s under %d strategies@."
                  (List.length sources)
                  (if many then "ies" else "y")
                  (List.length chosen);
              if diff && !status = 0 then
                Fmt.pr
                  "differential: %d quer%s agree under interp, decorrelated, \
                   shred (%d shredded, %d nest-join fallbacks)@."
                  (List.length sources)
                  (if many then "ies" else "y")
                  !nshredded !nfallbacks;
              strict_gate ();
              !status
            end)
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit with status 2 when any correlated grouping-required \
             predicate is found (COUNT-bug risk under Kim-style \
             flattening).")
  in
  let gen_arg =
    Arg.(
      value & opt (some int) None
      & info [ "gen" ] ~docv:"N"
          ~doc:
            "Instead of a query argument, lint a deterministic corpus of \
             $(docv) random nested queries over the xy schema (vary it \
             with --seed).")
  in
  let query_opt_arg =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"QUERY" ~doc:"A query, or a path to a query file.")
  in
  let diff_arg =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Differentially execute every query under the reference \
             interpreter, the nest-join backend and the shredding backend \
             (honouring $(b,--jobs)) and fail unless all three agree \
             value-for-value. Reports how many queries genuinely shredded \
             vs. fell back to nest joins.")
  in
  let strategy_filter_arg =
    Arg.(
      value & opt_all string []
      & info [ "s"; "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "With $(b,--verify) or $(b,--certify), restrict phase \
             verification/certification to the named strategies \
             (repeatable). Unknown names are a usage error (exit 2).")
  in
  let check_json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit a machine-readable report instead of text: per query the \
             type, the per-subquery classification verdicts with inferred \
             plan properties (proven keys, null-free/non-empty paths, \
             cardinality bounds), and — with $(b,--verify)/$(b,--certify) \
             — the per-strategy verifier/certifier outcomes; plus the \
             corpus parameters (gen, seed, catalog, scale) and a summary. \
             The exit status is unchanged.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Type-check and lint a query: classify every subquery predicate \
          (semijoin-rewritable / antijoin-rewritable / grouping-required, \
          Theorem 1) and flag COUNT-bug risks; with --verify, additionally \
          compile it under every strategy with phase verification; with \
          --certify, certify every recorded rewrite step (translation \
          validation); with --diff, cross-check the nest-join and shredding \
          backends against the interpreter; with --json, emit the whole \
          report machine-readably.")
    Term.(
      const check $ catalog_arg $ file_arg $ seed_arg $ scale_arg $ strict_arg
      $ verify_arg $ certify_arg $ diff_arg $ jobs_arg $ gen_arg
      $ check_json_arg $ strategy_filter_arg $ query_opt_arg)

let stats_cmd =
  let show name file seed scale =
    with_catalog ?file name seed scale (fun catalog ->
        Fmt.pr "%a" Cobj.Stats.pp (Cobj.Stats.scan catalog);
        0)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print one-pass catalog statistics (row counts, per-attribute \
          distinct values, null and empty-set fractions, average set \
          cardinality) — the numbers the cost model plans with.")
    Term.(const show $ catalog_arg $ file_arg $ seed_arg $ scale_arg)

let table2_cmd =
  let table2 () =
    Fmt.pr "%-26s %-42s %-10s %s@." "name" "P(x, z)" "verdict" "rewritten";
    Fmt.pr "%s@." (String.make 110 '-');
    List.iter
      (fun row ->
        let p = Core.Table2.predicate row in
        let verdict = Core.Classify.classify ~z:"z" p in
        let rewritten =
          match Core.Classify.to_expr ~z:"z" verdict with
          | Some e -> Lang.Pretty.to_math_string e
          | None -> "(grouping required → nest join)"
        in
        Fmt.pr "%-26s %-42s %-10s %s@." row.Core.Table2.name
          row.Core.Table2.source
          (Core.Table2.expected_to_string (Core.Table2.kind verdict))
          rewritten)
      Core.Table2.rows;
    0
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Print the predicate classification (Table 2).")
    Term.(const table2 $ const ())

let catalog_cmd =
  let show name file seed scale dump =
    with_catalog ?file name seed scale (fun catalog ->
        if dump then print_string (Lang.Schema.render catalog)
        else Fmt.pr "%a@." Cobj.Catalog.pp catalog;
        0)
  in
  let dump_arg =
    Arg.(
      value & flag
      & info [ "dump" ]
          ~doc:
            "Emit the catalog in the definition language (reloadable with \
             --file) instead of the pretty grid.")
  in
  Cmd.v
    (Cmd.info "catalog" ~doc:"Print (or dump) a catalog.")
    Term.(const show $ catalog_arg $ file_arg $ seed_arg $ scale_arg $ dump_arg)

let repl_cmd =
  let repl name file seed scale strategy =
    setup_logs false;
    with_catalog ?file name seed scale (fun catalog ->
        let strategy = ref strategy in
        let explain = ref false in
        Fmt.pr
          "nestql repl — tables: %s@.commands: .tables  .strategy NAME             .explain on|off  .quit@."
          (String.concat ", " (Cobj.Catalog.names catalog));
        let rec loop () =
          Fmt.pr "> %!";
          match In_channel.input_line stdin with
          | None -> 0
          | Some line -> (
            let line = String.trim line in
            match String.split_on_char ' ' line with
            | [ "" ] -> loop ()
            | [ ".quit" ] | [ ".exit" ] -> 0
            | [ ".tables" ] ->
              List.iter
                (fun t ->
                  Fmt.pr "%-12s %5d rows : %a@." (Cobj.Table.name t)
                    (Cobj.Table.cardinality t) Cobj.Ctype.pp (Cobj.Table.elt t))
                (Cobj.Catalog.tables catalog);
              loop ()
            | [ ".explain"; "on" ] ->
              explain := true;
              loop ()
            | [ ".explain"; "off" ] ->
              explain := false;
              loop ()
            | [ ".strategy"; s ] -> (
              match
                List.find_opt
                  (fun st -> Core.Pipeline.strategy_name st = s)
                  strategies
              with
              | Some st ->
                strategy := st;
                loop ()
              | None ->
                Fmt.pr "unknown strategy %s@." s;
                loop ())
            | _ -> (
              match
                Core.Pipeline.compile_string !strategy catalog line
              with
              | Error msg ->
                Fmt.pr "error: %s@." msg;
                loop ()
              | Ok compiled -> (
                if !explain then
                  print_string (Core.Pipeline.explain catalog compiled);
                match Core.Pipeline.execute catalog compiled with
                | v ->
                  Fmt.pr "%a@." Cobj.Value.pp v;
                  loop ()
                | exception Cobj.Value.Type_error msg ->
                  Fmt.pr "runtime error: %s@." msg;
                  loop ()
                | exception Lang.Interp.Undefined msg ->
                  Fmt.pr "undefined: %s@." msg;
                  loop ())))
        in
        loop ())
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive query loop against a catalog.")
    Term.(
      const repl $ catalog_arg $ file_arg $ seed_arg $ scale_arg
      $ strategy_arg)

let demo_cmd =
  let demo () =
    let company = Workload.Gen.company Workload.Gen.default_company in
    let q2 =
      "SELECT (dname = d.name, emps = (SELECT e.name FROM EMP e WHERE \
       e.address.city = d.address.city)) FROM DEPT d"
    in
    Fmt.pr "== Q2 (nesting in the SELECT clause) ==@.%s@.@." q2;
    (match
       Core.Pipeline.compile_string Core.Pipeline.Decorrelated company q2
     with
    | Ok compiled ->
      print_string (Core.Pipeline.explain company compiled);
      let v = Core.Pipeline.execute company compiled in
      Fmt.pr "@.%d result tuples@.@." (Cobj.Value.set_card v)
    | Error msg -> Fmt.epr "error: %s@." msg);
    let cat = Workload.Gen.xy Workload.Gen.default_xy in
    let count_q =
      "SELECT x.id FROM X x WHERE COUNT(SELECT y.id FROM Y y WHERE x.b = \
       y.b) = 0"
    in
    Fmt.pr "== the COUNT bug ==@.%s@.@." count_q;
    List.iter
      (fun strategy ->
        match Core.Pipeline.run strategy cat count_q with
        | Ok v ->
          Fmt.pr "%-24s %d rows@."
            (Core.Pipeline.strategy_name strategy)
            (Cobj.Value.set_card v)
        | Error msg ->
          Fmt.pr "%-24s error: %s@."
            (Core.Pipeline.strategy_name strategy)
            msg)
      strategies;
    0
  in
  Cmd.v (Cmd.info "demo" ~doc:"Run the paper's flagship queries.")
    Term.(const demo $ const ())

(* --- server mode --------------------------------------------------------- *)

let socket_arg =
  Arg.(
    value & opt string "nestql.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (ignored when $(b,--port) is given).")

let port_arg =
  Arg.(
    value & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Listen on (or connect to) localhost TCP $(docv) instead of a \
              Unix socket.")

let bind_of ~socket ~port =
  match port with
  | Some p -> Server.Daemon.Tcp p
  | None -> Server.Daemon.Unix_socket socket

let timeout_arg =
  Arg.(
    value & opt (some int) None
    & info [ "timeout" ] ~docv:"MS"
        ~doc:
          "Per-request deadline in milliseconds. Cooperative: checked when \
           the request reaches the executor and between compile and \
           execute, never mid-operator. 0 expires every uncached request \
           deterministically.")

let serve_cmd =
  let serve socket port name file seed scale strategy jobs plan_cache
      result_cache timeout_ms slow_ms http_metrics trace quiet =
    setup_logs false;
    match jobs with
    | Some n when n < 1 ->
      Fmt.epr "nestql: --jobs expects a positive domain count, got %d@." n;
      1
    | _ ->
      with_catalog ?file name seed scale (fun catalog ->
          let catalog_name =
            match file with Some path -> path | None -> name
          in
          let jobs =
            match jobs with
            | Some j -> j
            | None -> Core.Pipeline.default_jobs ()
          in
          let config =
            {
              Server.Daemon.bind = bind_of ~socket ~port;
              catalog;
              catalog_name;
              strategy;
              jobs;
              plan_capacity = plan_cache;
              result_capacity = result_cache;
              timeout_ms;
              slow_ms;
              http_port = http_metrics;
              quiet;
            }
          in
          let with_trace f =
            match trace with
            | None -> f ()
            | Some path ->
              Obs.Metrics.enable ();
              Obs.Trace.start ~path;
              Fun.protect ~finally:Obs.Trace.stop f
          in
          with_trace (fun () -> Server.Daemon.serve config))
  in
  let plan_cache_arg =
    Arg.(
      value
      & opt int Server.Daemon.default_config.Server.Daemon.plan_capacity
      & info [ "plan-cache" ] ~docv:"N"
          ~doc:
            "Capacity of the compiled-plan LRU in entries, keyed on the \
             normalized query, strategy and catalog-statistics version. 0 \
             disables plan caching.")
  in
  let result_cache_arg =
    Arg.(
      value
      & opt int Server.Daemon.default_config.Server.Daemon.result_capacity
      & info [ "result-cache" ] ~docv:"BYTES"
          ~doc:
            "Budget of the result LRU in bytes of heap; each entry holds \
             the encoded reply text and is keyed by catalog statistics \
             version, so a catalog change reaches none of the old ones. 0 \
             disables result caching.")
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Suppress the stderr lifecycle lines.")
  in
  let serve_slow_arg =
    Arg.(
      value & opt (some int) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-query log threshold: queries at or over $(docv) \
             milliseconds emit one structured \"slow.query\" line to the \
             query log ($(b,NESTQL_QUERY_LOG)) with the plan digest, \
             cache outcomes, top self-time operators and worst \
             misestimates. Queries run instrumented when set; results \
             are identical. 0 logs every query.")
  in
  let http_metrics_arg =
    Arg.(
      value & opt (some int) None
      & info [ "http-metrics" ] ~docv:"PORT"
          ~doc:
            "Serve the metrics registry over HTTP on \
             localhost:$(docv): $(b,GET /metrics) answers Prometheus \
             exposition text, $(b,GET /healthz) the readiness probe \
             (503 once shutdown begins). 0 picks an ephemeral port \
             (logged on stderr).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived query server: concurrent line-JSON sessions \
          over a Unix or localhost TCP socket, sharing a plan cache and an \
          optional result cache (see docs/SERVER.md for the protocol).")
    Term.(
      const serve $ socket_arg $ port_arg $ catalog_arg $ file_arg $ seed_arg
      $ scale_arg $ strategy_arg $ jobs_arg $ plan_cache_arg
      $ result_cache_arg $ timeout_arg $ serve_slow_arg $ http_metrics_arg
      $ trace_arg $ quiet_arg)

let client_cmd =
  let module Json = Engine.Json in
  let render_metrics = function
    | Json.Obj fields ->
      List.iter
        (fun (name, v) ->
          match v with
          | Json.Obj props -> (
            match List.assoc_opt "type" props with
            | Some (Json.String "counter") -> (
              match List.assoc_opt "value" props with
              | Some (Json.Int n) -> Fmt.pr "%s %d@." name n
              | _ -> ())
            | Some (Json.String "gauge") -> (
              match List.assoc_opt "value" props with
              | Some (Json.Float g) -> Fmt.pr "%s %g@." name g
              | _ -> ())
            | Some (Json.String "histogram") -> (
              match List.assoc_opt "count" props with
              | Some (Json.Int n) -> Fmt.pr "%s count=%d@." name n
              | _ -> ())
            | _ -> ())
          | _ -> ())
        fields
    | _ -> ()
  in
  let client socket port wait_ms strategy jobs no_cache no_bloom timeout_ms
      repeat raw json_out file seed scale op arg =
    setup_logs false;
    let fail msg =
      Fmt.epr "nestql: %s@." msg;
      1
    in
    let lines =
      match (raw, op, arg) with
      | true, line, _ -> Ok (List.init repeat (fun _ -> line))
      | false, "ping", _ -> Ok [ Server.Client.obj ~op:"ping" [] ]
      | false, "metrics", _ -> Ok [ Server.Client.obj ~op:"metrics" [] ]
      | false, ("metrics-prom" | "metrics_prom"), _ ->
        Ok [ Server.Client.obj ~op:"metrics_prom" [] ]
      | false, "shutdown", _ -> Ok [ Server.Client.obj ~op:"shutdown" [] ]
      | false, "query", Some q ->
        let q = if Sys.file_exists q then load_query_file q else q in
        let fields =
          [ ("q", Json.String q) ]
          @ (match strategy with
            | Some st ->
              [ ("strategy",
                 Json.String (Core.Pipeline.strategy_name st)) ]
            | None -> [])
          @ (match jobs with
            | Some j -> [ ("jobs", Json.Int j) ]
            | None -> [])
          @ (if no_cache then [ ("cache", Json.Bool false) ] else [])
          @ (if no_bloom then [ ("bloom", Json.Bool false) ] else [])
          @
          match timeout_ms with
          | Some ms -> [ ("timeout_ms", Json.Int ms) ]
          | None -> []
        in
        Ok (List.init repeat (fun i -> Server.Client.obj ~id:(i + 1) ~op:"query" fields))
      | false, "query", None -> Error "query expects a QUERY argument"
      | false, "catalog", name ->
        let fields =
          (match name with
          | Some n -> [ ("name", Json.String n) ]
          | None -> [])
          @ (match file with
            | Some f -> [ ("file", Json.String f) ]
            | None -> [])
          @ [ ("seed", Json.Int seed); ("scale", Json.Int scale) ]
        in
        if fields = [ ("seed", Json.Int seed); ("scale", Json.Int scale) ]
           && file = None && name = None
        then Error "catalog expects a NAME argument or --file"
        else Ok [ Server.Client.obj ~op:"catalog" fields ]
      | false, other, _ ->
        Error
          (Printf.sprintf
             "unknown op %s (try: ping, query, catalog, metrics, \
              metrics-prom, shutdown)"
             other)
    in
    match lines with
    | Error msg -> fail msg
    | Ok lines -> (
      match Server.Client.connect ~wait_ms (bind_of ~socket ~port) with
      | Error msg -> fail ("cannot connect: " ^ msg)
      | Ok conn ->
        Fun.protect
          ~finally:(fun () -> Server.Client.close conn)
          (fun () ->
            let rec send = function
              | [] -> 0
              | line :: rest -> (
                match Server.Client.request conn line with
                | Error msg -> fail msg
                | Ok reply -> (
                  if json_out then begin
                    print_endline (Json.to_string reply);
                    send rest
                  end
                  else
                    match Server.Protocol.member "ok" reply with
                    | Some (Json.Bool true) ->
                      (match Server.Protocol.member "prom" reply with
                      | Some (Json.String page) -> print_string page
                      | _ -> (
                        match Server.Protocol.member "metrics" reply with
                        | Some m -> render_metrics m
                        | None -> (
                          match Server.Protocol.member "result" reply with
                          | Some (Json.String s) -> print_endline s
                          | _ -> print_endline (Json.to_string reply))));
                      send rest
                    | _ ->
                      let code, message =
                        match Server.Protocol.member "error" reply with
                        | Some (Json.Obj e) ->
                          ( (match List.assoc_opt "code" e with
                            | Some (Json.String c) -> c
                            | _ -> "unknown"),
                            match List.assoc_opt "message" e with
                            | Some (Json.String m) -> m
                            | _ -> "" )
                        | _ -> ("unknown", Json.to_string reply)
                      in
                      Fmt.epr "error[%s]: %s@." code message;
                      1))
            in
            send lines))
  in
  let wait_arg =
    Arg.(
      value & opt int 0
      & info [ "wait" ] ~docv:"MS"
          ~doc:
            "Retry the connection for up to $(docv) milliseconds — for \
             scripts that start the server in the background and race its \
             bind.")
  in
  let strategy_opt_arg =
    Arg.(
      value & opt (some strategy_conv) None
      & info [ "s"; "strategy" ] ~docv:"STRATEGY"
          ~doc:"Per-request strategy override (server default otherwise).")
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Send the query $(docv) times on one connection (cache-hit \
             paths stay warm).")
  in
  let raw_arg =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:
            "Treat OP as one raw protocol line and send it verbatim — for \
             exercising the server's error replies.")
  in
  let client_json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print each raw JSON response line.")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Bypass the server's plan and result caches for this query.")
  in
  let op_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"OP"
          ~doc:"ping, query, catalog, metrics, metrics-prom (Prometheus \
                exposition text) or shutdown (or a raw line with \
                $(b,--raw)).")
  in
  let arg_arg =
    Arg.(
      value & pos 1 (some string) None
      & info [] ~docv:"ARG"
          ~doc:"The query text (or query file) for $(b,query); the catalog \
                name for $(b,catalog).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send requests to a running $(b,nestql serve) and print the \
          replies (results, pong, metric lines).")
    Term.(
      const client $ socket_arg $ port_arg $ wait_arg $ strategy_opt_arg
      $ jobs_arg $ no_cache_arg $ no_bloom_arg $ timeout_arg $ repeat_arg
      $ raw_arg $ client_json_arg $ file_arg $ seed_arg $ scale_arg $ op_arg
      $ arg_arg)

(* nestql top — a live monitor over a running serve: polls the [metrics]
   op and renders qps, latency quantiles, cache hit rates, queue depth
   and the hottest operators from deltas between successive dumps. All
   derivation is client-side; the server only ever serves its registry. *)
let top_cmd =
  let module Json = Engine.Json in
  (* Decode one [metrics] reply into scalars (counters + gauges) and
     sparse histogram buckets, both keyed by metric name. *)
  let decode_sample reply =
    match Server.Protocol.member "metrics" reply with
    | Some (Json.Obj fields) ->
      let scalars = ref [] and hists = ref [] in
      List.iter
        (fun (name, v) ->
          match v with
          | Json.Obj props -> (
            match List.assoc_opt "type" props with
            | Some (Json.String "counter") -> (
              match List.assoc_opt "value" props with
              | Some (Json.Int n) ->
                scalars := (name, float_of_int n) :: !scalars
              | _ -> ())
            | Some (Json.String "gauge") -> (
              match List.assoc_opt "value" props with
              | Some (Json.Float g) -> scalars := (name, g) :: !scalars
              | _ -> ())
            | Some (Json.String "histogram") ->
              let buckets =
                match List.assoc_opt "buckets" props with
                | Some (Json.List bs) ->
                  List.filter_map
                    (function
                      | Json.Obj p -> (
                        match
                          ( List.assoc_opt "bucket" p,
                            List.assoc_opt "count" p )
                        with
                        | Some (Json.Int i), Some (Json.Int c) ->
                          Some (i, c)
                        | _ -> None)
                      | _ -> None)
                    bs
                | _ -> []
              in
              hists := (name, buckets) :: !hists
            | _ -> ())
          | _ -> ())
        fields;
      Some (!scalars, !hists)
    | _ -> None
  in
  let scalar s name =
    match List.assoc_opt name s with Some v -> v | None -> 0.
  in
  (* Quantile over delta'd buckets: same log-scaled geometry and linear
     interpolation as Obs.Metrics.quantile, but client-side, over the
     window between two scrapes rather than the whole process life. *)
  let quantile_of q buckets =
    let buckets =
      List.sort compare (List.filter (fun (_, c) -> c > 0) buckets)
    in
    let total = List.fold_left (fun a (_, c) -> a + c) 0 buckets in
    if total = 0 then None
    else begin
      let target = q *. float_of_int total in
      let rec go cum = function
        | [] -> None
        | (i, c) :: rest ->
          let cum' = cum + c in
          if float_of_int cum' >= target then begin
            let lo = float_of_int (Obs.Metrics.bucket_lo i)
            and hi = float_of_int (Obs.Metrics.bucket_hi i) in
            let frac = (target -. float_of_int cum) /. float_of_int c in
            Some (lo +. ((hi -. lo) *. Float.max 0. frac))
          end
          else go cum' rest
      in
      go 0 buckets
    end
  in
  let hist_delta prev cur name =
    let get h =
      match List.assoc_opt name h with Some b -> b | None -> []
    in
    let pb = get prev in
    List.filter_map
      (fun (i, c) ->
        let p = match List.assoc_opt i pb with Some n -> n | None -> 0 in
        if c - p > 0 then Some (i, c - p) else None)
      (get cur)
  in
  let pct hits misses =
    let t = hits +. misses in
    if t <= 0. then "-" else Printf.sprintf "%.1f%%" (100. *. hits /. t)
  in
  let render ~clear ~n ~dt (ps, ph) (cs, ch) =
    if clear then Fmt.pr "\027[2J\027[H";
    let d name = Float.max 0. (scalar cs name -. scalar ps name) in
    Fmt.pr "nestql top — sample %d, %.1fs window@." n dt;
    let requests = d "server.requests" in
    Fmt.pr "  requests      %.0f total, %.0f in window (%.1f qps)@."
      (scalar cs "server.requests") requests
      (if dt > 0. then requests /. dt else 0.);
    let lat = hist_delta ph ch "server.request.us" in
    let p q =
      match quantile_of q lat with
      | Some us -> Printf.sprintf "%.2fms" (us /. 1000.)
      | None -> "-"
    in
    Fmt.pr "  latency       p50 %s  p95 %s  p99 %s@." (p 0.5) (p 0.95)
      (p 0.99);
    Fmt.pr "  plan cache    hit %s (%.0f hits / %.0f misses in window)@."
      (pct (d "server.cache.plan.hits") (d "server.cache.plan.misses"))
      (d "server.cache.plan.hits")
      (d "server.cache.plan.misses");
    Fmt.pr "  result cache  hit %s (%.0f hits / %.0f misses in window)@."
      (pct (d "server.cache.result.hits") (d "server.cache.result.misses"))
      (d "server.cache.result.hits")
      (d "server.cache.result.misses");
    Fmt.pr
      "  sessions      %.0f active, queue depth %.0f, slow %.0f, errors \
       %.0f@."
      (scalar cs "server.sessions.active")
      (scalar cs "server.queue.depth")
      (scalar cs "server.slow_queries")
      (scalar cs "server.request.errors");
    let prefix = "profile.self_us." in
    let plen = String.length prefix in
    let hot =
      List.filter_map
        (fun (name, v) ->
          if String.length name > plen && String.sub name 0 plen = prefix
          then begin
            let dv = v -. scalar ps name in
            if dv > 0. then
              Some (String.sub name plen (String.length name - plen), dv)
            else None
          end
          else None)
        cs
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    match hot with
    | [] -> ()
    | hot ->
      Fmt.pr "  hot operators (self-time in window):@.";
      List.iteri
        (fun i (op, us) ->
          if i < 5 then Fmt.pr "    %-24s %8.2fms@." op (us /. 1000.))
        hot
  in
  let top socket port wait_ms interval iterations no_clear =
    setup_logs false;
    match Server.Client.connect ~wait_ms (bind_of ~socket ~port) with
    | Error msg ->
      Fmt.epr "nestql: cannot connect: %s@." msg;
      1
    | Ok conn ->
      Fun.protect
        ~finally:(fun () -> Server.Client.close conn)
        (fun () ->
          let sample () =
            match
              Server.Client.request conn (Server.Client.obj ~op:"metrics" [])
            with
            | Error msg ->
              Fmt.epr "nestql: %s@." msg;
              None
            | Ok reply -> (
              match decode_sample reply with
              | Some s -> Some (Unix.gettimeofday (), s)
              | None ->
                Fmt.epr "nestql: malformed metrics reply@.";
                None)
          in
          let rec loop n prev =
            match sample () with
            | None -> 1
            | Some (at, cur) ->
              let pat, prev_sample =
                match prev with Some p -> p | None -> (at, ([], []))
              in
              render ~clear:(not no_clear) ~n ~dt:(at -. pat) prev_sample
                cur;
              if iterations > 0 && n >= iterations then 0
              else begin
                Unix.sleepf interval;
                loop (n + 1) (Some (at, cur))
              end
          in
          loop 1 None)
  in
  let wait_arg =
    Arg.(
      value & opt int 0
      & info [ "wait" ] ~docv:"MS"
          ~doc:"Retry the connection for up to $(docv) milliseconds.")
  in
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECS"
          ~doc:"Seconds between samples.")
  in
  let iterations_arg =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) samples (0: run until interrupted). The \
             first sample has an empty window — rates and quantiles show \
             from the second on.")
  in
  let no_clear_arg =
    Arg.(
      value & flag
      & info [ "no-clear" ]
          ~doc:
            "Do not clear the screen between samples; append them — for \
             piping and tests.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live monitor of a running $(b,nestql serve): polls the metrics \
          op and shows qps, latency quantiles, cache hit rates, queue \
          depth and the hottest operators, derived from deltas between \
          successive samples.")
    Term.(
      const top $ socket_arg $ port_arg $ wait_arg $ interval_arg
      $ iterations_arg $ no_clear_arg)

let () =
  let doc = "nested-query optimization in a complex object model" in
  let info = Cmd.info "nestql" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info
       [ run_cmd; explain_cmd; check_cmd; stats_cmd; table2_cmd; catalog_cmd;
         repl_cmd; demo_cmd; serve_cmd; client_cmd; top_cmd ]))
