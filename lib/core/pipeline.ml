module Ast = Lang.Ast
module Plan = Algebra.Plan

let log_src = Logs.Src.create "nestql.optimizer" ~doc:"query optimization"

module Log = (val Logs.src_log log_src : Logs.LOG)

type strategy =
  | Interp
  | Naive
  | Decorrelated
  | Decorrelated_outerjoin
  | Kim_baseline
  | Ganski_wong
  | Muralikrishna
  | Shredded

let strategy_name = function
  | Interp -> "interp"
  | Naive -> "naive"
  | Decorrelated -> "decorrelated"
  | Decorrelated_outerjoin -> "decorrelated-outerjoin"
  | Kim_baseline -> "kim"
  | Ganski_wong -> "ganski-wong"
  | Muralikrishna -> "muralikrishna"
  | Shredded -> "shred"

let all_strategies =
  [
    Interp; Naive; Decorrelated; Decorrelated_outerjoin; Kim_baseline;
    Ganski_wong; Muralikrishna; Shredded;
  ]

type compiled = {
  source : Ast.expr;
  logical : Plan.query option;
  physical : Engine.Physical.query option;
  shredded : Shred.executable option;
      (** [Shredded] only, and only when the decorrelated plan fits the
          flat fragment; [None] there means nest-join fallback *)
  strategy : strategy;
}

type phase_plan =
  | Logical of Plan.query
  | Physical of Engine.Physical.query

type verifier =
  phase:string -> Cobj.Catalog.t -> phase_plan -> (unit, string) result

(* The verifier is an optional hook so [core] stays independent of the
   analysis library implementing it: [Analysis.Verify.install] registers the
   real checker; without a registration every phase check is a no-op. *)
let verifier_hook : verifier option ref = ref None
let set_verifier v = verifier_hook := v

let verify_default () =
  match Sys.getenv_opt "NESTQL_VERIFY" with
  | Some ("0" | "false" | "no" | "off") -> false
  | Some _ -> true
  | None ->
    (* default-on under dune (runtest, cram, dune exec) so every compiled
       plan in the test suite is phase-verified *)
    Sys.getenv_opt "INSIDE_DUNE" <> None

(* --- translation validation (the certifier hook) ------------------------ *)

type cert_target =
  | Cert_logical of {
      before : Plan.query;
      after : Plan.query;
      steps : Steps.step list;
    }
  | Cert_physical of Engine.Physical.query

type certifier =
  phase:string -> Cobj.Catalog.t -> cert_target -> (unit, string) result

(* Like the verifier: an optional hook so [core] stays independent of the
   analysis library. [Analysis.Certify.install] registers the real
   certifier; without a registration certification is a no-op. *)
let certifier_hook : certifier option ref = ref None
let set_certifier c = certifier_hook := c

let certify_default () =
  match Sys.getenv_opt "NESTQL_CERTIFY" with
  | Some ("0" | "false" | "no" | "off") -> false
  | Some _ -> true
  | None -> verify_default ()

(* Fills property annotations (cardinality bounds, proven keys) into an
   EXPLAIN ANALYZE tree; registered by [Analysis.Certify.install] alongside
   the certifier. *)
type annotator =
  Cobj.Catalog.t -> Engine.Physical.query -> Engine.Stats.node -> unit

let annotator_hook : annotator option ref = ref None
let set_annotator a = annotator_hook := a

let ( let* ) = Result.bind

(* Every pipeline phase goes through this wrapper: a trace span (with Gc
   args) when tracing is active, a phase counter plus per-phase
   allocation gauges when the metrics registry is on, and a plain call
   otherwise. Compilation is single-domain, so phase metrics are
   jobs-invariant by construction; the gc.* gauges are load-dependent
   and documented as such (docs/OBSERVABILITY.md). *)
let phase name f =
  let traced () = Obs.Trace.span ~cat:"phase" name f in
  if not (Obs.Metrics.enabled ()) then traced ()
  else begin
    Obs.Metrics.incr ("phase." ^ name);
    let v, d = Obs.Memory.measure traced in
    Obs.Metrics.add_gauge
      ("gc.phase." ^ name ^ ".minor_words")
      d.Obs.Memory.minor_words;
    Obs.Metrics.add_gauge
      ("gc.phase." ^ name ^ ".major_words")
      d.Obs.Memory.major_words;
    v
  end

let logical_of ~check ~cert ~cert_on ~rewrite ~reorder strategy catalog
    resolved =
  let translate () = phase "translate" (fun () -> Translate.query catalog resolved) in
  (* Run one optimizer phase with rewrite-step recording (when certifying),
     then verify the phase output and certify the recorded steps. *)
  let run_phase name f q0 =
    let q, steps =
      if cert_on then Steps.collect (fun () -> phase name (fun () -> f q0))
      else (phase name (fun () -> f q0), [])
    in
    let* () = check ~phase:name (Logical q) in
    let* () =
      cert ~phase:name (Cert_logical { before = q0; after = q; steps })
    in
    Ok q
  in
  match strategy with
  | Interp -> Ok None
  | Naive ->
    let* q = translate () in
    let* () = check ~phase:"translate" (Logical q) in
    Ok (Some q)
  | Decorrelated | Decorrelated_outerjoin | Shredded ->
    let* naive = translate () in
    let* () = check ~phase:"translate" (Logical naive) in
    (* Iterate decorrelation and rewriting to a fixpoint: pushing a
       selection below a join can expose the Select-over-Apply pattern of a
       second subquery in the same WHERE clause (multiple subqueries per
       block — listed as future work in the paper, handled here). *)
    let step q =
      Obs.Metrics.incr "optimizer.decorrelate.rounds";
      let* q = run_phase "decorrelate" Decorrelate.query q in
      let* q =
        if rewrite then begin
          let* q = run_phase "simplify" (Simplify.query catalog) q in
          let* q = run_phase "rewrite" Rewrite.query q in
          Ok q
        end
        else Ok q
      in
      if reorder then run_phase "reorder" (Reorder.query catalog) q
      else Ok q
    in
    let rec fixpoint n q =
      if n = 0 then Ok q
      else
        let* q' = step q in
        if q' = q then Ok q
        else begin
          Log.debug (fun m ->
              m "optimization round %d:@.%a" (6 - n) Plan.pp_query q');
          fixpoint (n - 1) q'
        end
    in
    Log.debug (fun m -> m "naive translation:@.%a" Plan.pp_query naive);
    let* q = fixpoint 5 naive in
    let* q =
      if strategy = Decorrelated_outerjoin then
        run_phase "nestjoin-as-outerjoin"
          (fun q -> { q with Plan.plan = Kim.nestjoin_as_outerjoin q.Plan.plan })
          q
      else Ok q
    in
    Ok (Some q)
  | Kim_baseline | Ganski_wong | Muralikrishna ->
    let* naive = translate () in
    let* () = check ~phase:"translate" (Logical naive) in
    let baseline =
      match strategy with
      | Kim_baseline -> Kim.kim
      | Ganski_wong -> Kim.ganski_wong
      | _ -> Kim.muralikrishna
    in
    let q =
      phase (strategy_name strategy) (fun () ->
          Result.value (baseline naive) ~default:naive)
    in
    let* () = check ~phase:(strategy_name strategy) (Logical q) in
    Ok (Some q)

let compile ?options ?(rewrite = true) ?(reorder = true) ?verify ?certify
    strategy catalog expr =
  let options =
    match options, strategy with
    | Some options, _ -> options
    | None, (Decorrelated | Decorrelated_outerjoin | Shredded) ->
      (* a residual Apply after decorrelation (deep / non-neighbour
         correlation, set-valued operands) is at least memoized: the cache
         key is the correlation columns, so duplicate outer values share
         one evaluation *)
      { Planner.default_options with Planner.memo_applies = true }
    | None, _ -> Planner.default_options
  in
  let verify =
    match verify with Some v -> v | None -> verify_default ()
  in
  let certify =
    match certify with Some c -> c | None -> certify_default ()
  in
  let check ~phase:ph plan =
    if not verify then Ok ()
    else
      match !verifier_hook with
      | None -> Ok ()
      | Some f -> phase ("verify." ^ ph) (fun () -> f ~phase:ph catalog plan)
  in
  let cert_on = certify && !certifier_hook <> None in
  let cert ~phase:ph target =
    if not cert_on then Ok ()
    else
      match !certifier_hook with
      | None -> Ok ()
      | Some f -> phase ("certify." ^ ph) (fun () -> f ~phase:ph catalog target)
  in
  phase "compile" (fun () ->
      match phase "typecheck" (fun () -> Lang.Types.check_query catalog expr) with
      | Error err -> Error (Fmt.str "%a" Lang.Types.pp_error err)
      | Ok (resolved, _ty) ->
        let* logical =
          logical_of ~check ~cert ~cert_on ~rewrite ~reorder strategy catalog
            resolved
        in
        let physical =
          Option.map
            (fun lq -> phase "plan" (fun () -> Planner.query ~options catalog lq))
            logical
        in
        let* () =
          match physical with
          | Some pq ->
            let* () = check ~phase:"plan" (Physical pq) in
            cert ~phase:"plan" (Cert_physical pq)
          | None -> Ok ()
        in
        let* shredded =
          match strategy, logical with
          | Shredded, Some lq -> (
            match phase "shred" (fun () -> Shred.of_query lq) with
            | Error reason ->
              (* Outside the flat fragment: execute the nest-join physical
                 plan instead — correct either way, and visible in
                 metrics and EXPLAIN output. *)
              Obs.Metrics.incr "shred.fallbacks";
              Log.info (fun m ->
                  m "shredding fell back to nest join: %s" reason);
              Ok None
            | Ok program ->
              let rec all_ok ~phase:ph mk = function
                | [] -> Ok ()
                | q :: qs ->
                  let* () = check ~phase:ph (mk q) in
                  all_ok ~phase:ph mk qs
              in
              let* () =
                all_ok ~phase:"shred"
                  (fun q -> Logical q)
                  (Shred.flat_queries program)
              in
              let exe =
                phase "shred-plan" (fun () ->
                    Shred.plan ~options catalog program)
              in
              let* () =
                all_ok ~phase:"shred-plan"
                  (fun q -> Physical q)
                  (Shred.physical_queries exe)
              in
              Ok (Some exe))
          | _ -> Ok None
        in
        Ok { source = resolved; logical; physical; shredded; strategy })

let compile_string ?options ?rewrite ?reorder ?verify ?certify strategy
    catalog src =
  let* expr = Lang.Parser.expr_result src in
  compile ?options ?rewrite ?reorder ?verify ?certify strategy catalog expr

(* Cache keys. The normalized form is the canonical pretty-print of the
   parsed AST, so texts differing only in whitespace, comments or
   redundant parentheses share one plan-cache entry; the full key adds the
   strategy, the rewrite/reorder ablation flags (they change the plan) and
   the catalog's statistics version — any catalog change moves the stamp,
   so stale plans are unreachable rather than merely suspect. *)
let normalized_ast expr = Fmt.str "%a" Lang.Pretty.pp expr

let plan_key ?(rewrite = true) ?(reorder = true) strategy catalog expr =
  Printf.sprintf "s=%s;v=%d;rw=%b;ro=%b;q=%s" (strategy_name strategy)
    (Cobj.Stats.version catalog)
    rewrite reorder (normalized_ast expr)

let plan_key_string ?rewrite ?reorder strategy catalog src =
  let* expr = Lang.Parser.expr_result src in
  Ok (plan_key ?rewrite ?reorder strategy catalog expr)

(* Short stable identifier of a plan-cache key for logs (the slow-query
   log carries it so "same plan, different constants" is visible without
   shipping the normalized AST in every line). *)
let digest_of_key key = Digest.to_hex (Digest.string key)

let plan_digest ?rewrite ?reorder strategy catalog expr =
  digest_of_key (plan_key ?rewrite ?reorder strategy catalog expr)

let default_jobs () =
  match Sys.getenv_opt "NESTQL_JOBS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> 1)

(* Flat execution counters become exec.* metrics (par.* for the
   jobs-dependent morsel counters) so bench artifacts and --trace runs
   carry them without EXPLAIN ANALYZE. *)
let record_exec_metrics (s : Engine.Stats.t) =
  let c name v = if v > 0 then Obs.Metrics.incr ~by:v name in
  c "exec.rows_out" s.Engine.Stats.rows_out;
  c "exec.predicate_evals" s.Engine.Stats.predicate_evals;
  c "exec.hash_builds" s.Engine.Stats.hash_builds;
  c "exec.hash_probes" s.Engine.Stats.hash_probes;
  c "exec.sorts" s.Engine.Stats.sorts;
  c "exec.applies" s.Engine.Stats.applies;
  c "exec.apply_hits" s.Engine.Stats.apply_hits;
  c "exec.bloom_checks" s.Engine.Stats.bloom_checks;
  c "exec.bloom_prunes" s.Engine.Stats.bloom_prunes;
  c "exec.build_side_swaps" s.Engine.Stats.build_side_swaps;
  c "par.partitions" s.Engine.Stats.partitions;
  if s.Engine.Stats.partition_max_rows > 0 then
    Obs.Metrics.observe "par.partition_max_rows"
      s.Engine.Stats.partition_max_rows

(* [vector] stays only because bench/e2e passes [~vector:true]; it goes
   away with the next change to that benchmark. *)
let no_row_engine = function
  | Some false -> invalid_arg "Pipeline: ~vector:false (there is no row engine)"
  | Some true | None -> ()

let execute ?stats ?jobs ?bloom ?vector ?batch catalog compiled =
  no_row_engine vector;
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let stats =
    match stats with
    | Some _ -> stats
    | None when Obs.Metrics.enabled () && compiled.physical <> None ->
      Some (Engine.Stats.create ())
    | None -> None
  in
  let v =
    phase "execute" (fun () ->
        match compiled.shredded, compiled.physical with
        | Some exe, _ ->
          Shred.run ?stats ~jobs ?bloom ?batch catalog exe
        | None, Some pq ->
          Engine.Exec.run ?stats ~jobs ?bloom ?batch catalog pq
        | None, None -> Lang.Interp.run catalog compiled.source)
  in
  (match stats with
  | Some s when Obs.Metrics.enabled () -> record_exec_metrics s
  | _ -> ());
  v

let run ?options ?rewrite ?reorder ?verify ?certify ?stats ?jobs ?bloom
    ?vector ?batch strategy catalog src =
  let* compiled =
    compile_string ?options ?rewrite ?reorder ?verify ?certify strategy
      catalog src
  in
  match execute ?stats ?jobs ?bloom ?vector ?batch catalog compiled with
  | v -> Ok v
  | exception Cobj.Value.Type_error msg -> Error ("runtime error: " ^ msg)
  | exception Lang.Interp.Undefined msg -> Error ("undefined: " ^ msg)

(* How much of the annotation tree ran on columnar batches, as a fraction
   of operator nodes (CI's structural gate asserts it is positive on the
   smoke suite). Jobs-invariant: the same operators run on batches at
   every [jobs]. *)
let record_vectorized_fraction tree =
  if Obs.Metrics.enabled () then begin
    let total = ref 0 and vec = ref 0 in
    let rec walk n =
      incr total;
      if n.Engine.Stats.vectorized then incr vec;
      List.iter walk n.Engine.Stats.children
    in
    walk tree;
    if !total > 0 then
      Obs.Metrics.set_gauge "exec.vectorized_fraction"
        (float_of_int !vec /. float_of_int !total)
  end

(* Cross-check the certifier's proven [lo, hi] per-loop cardinality bounds
   against the rows each operator actually produced: a violated bound means
   the property inference was unsound — surfaced as a hard error, exactly
   like a verifier violation. Only nodes the annotator stamped (bounds =
   Some) and that actually ran (loops > 0) are checked; counters accumulate
   across loops, so the interval scales by the loop count. *)
let bounds_violation tree =
  let fin f = if Float.is_finite f then Printf.sprintf "%.0f" f else "inf" in
  let rec walk (n : Engine.Stats.node) =
    let deeper () = List.find_map walk n.Engine.Stats.children in
    match n.Engine.Stats.bounds with
    | Some (lo, hi) when n.Engine.Stats.loops > 0 ->
      let loops = float_of_int n.Engine.Stats.loops in
      let actual =
        float_of_int n.Engine.Stats.counters.Engine.Stats.rows_out
      in
      if actual < (lo *. loops) -. 0.5 || actual > (hi *. loops) +. 0.5 then
        Some
          (Printf.sprintf
             "certified cardinality bound violated at %s %s: actual rows %.0f \
              outside [%s, %s] × %d loops"
             n.Engine.Stats.op n.Engine.Stats.detail actual (fin lo) (fin hi)
             n.Engine.Stats.loops)
      else deeper ()
    | _ -> deeper ()
  in
  walk tree

let analyze ?jobs ?bloom ?vector ?batch catalog compiled =
  no_row_engine vector;
  match compiled.shredded, compiled.physical with
  | Some exe, _ -> (
    let jobs = match jobs with Some j -> j | None -> default_jobs () in
    let before = Obs.Memory.snapshot () in
    match
      phase "execute" (fun () ->
          Shred.analyze ~jobs ?bloom ?batch catalog exe)
    with
    | v, tree ->
      tree.Engine.Stats.gc <-
        Some (Obs.Memory.delta ~before ~after:(Obs.Memory.snapshot ()));
      if Obs.Metrics.enabled () then begin
        record_exec_metrics (Engine.Stats.totals tree);
        Engine.Profile.record_metrics (Engine.Profile.of_node tree)
      end;
      record_vectorized_fraction tree;
      Ok (v, tree)
    | exception Cobj.Value.Type_error msg -> Error ("runtime error: " ^ msg)
    | exception Lang.Interp.Undefined msg -> Error ("undefined: " ^ msg))
  | None, None ->
    Error
      (Printf.sprintf
         "explain-analyze needs a physical plan (strategy %s executes in \
          the reference interpreter)"
         (strategy_name compiled.strategy))
  | None, Some pq -> (
    let jobs = match jobs with Some j -> j | None -> default_jobs () in
    let tree = Engine.Analyze.tree_of_query pq in
    Cost.annotate catalog pq.Engine.Physical.plan tree;
    (match !annotator_hook with
    | Some f -> f catalog pq tree
    | None -> ());
    let before = Obs.Memory.snapshot () in
    match
      phase "execute" (fun () ->
          Engine.Exec.batches_instrumented ~jobs ?bloom ?batch tree
            catalog Cobj.Env.empty pq.Engine.Physical.plan)
    with
    | produced ->
      (* Whole-run Gc delta on the root node: per-operator deltas would
         double-count children, and under --jobs the workers' allocation
         is not attributable to one operator anyway. *)
      tree.Engine.Stats.gc <-
        Some (Obs.Memory.delta ~before ~after:(Obs.Memory.snapshot ()));
      if Obs.Metrics.enabled () then begin
        record_exec_metrics (Engine.Stats.totals tree);
        Engine.Profile.record_metrics (Engine.Profile.of_node tree)
      end;
      record_vectorized_fraction tree;
      begin
        match bounds_violation tree with
        | Some msg -> Error msg
        | None ->
          let values =
            Engine.Exec.values catalog pq.Engine.Physical.result produced
          in
          Ok (Cobj.Value.set values, tree)
      end
    | exception Cobj.Value.Type_error msg -> Error ("runtime error: " ^ msg)
    | exception Lang.Interp.Undefined msg -> Error ("undefined: " ^ msg))

let render_analysis ?(json = false) ?(timing = true) ?(profile = false)
    ?misest_floor ?catalog compiled tree =
  (* Self-time attribution is wall-clock and therefore timing-class: the
     --no-timing promise of jobs- and engine-invariant output silently
     wins over --profile. *)
  let profile = profile && timing in
  let misest =
    (* The shredded annotation tree mirrors the flat queries, not the
       nest-join physical plan — misestimation pairing does not apply. *)
    match catalog, compiled.physical, compiled.shredded with
    | Some cat, Some pq, None -> Some (Misest.of_query cat pq tree)
    | _ -> None
  in
  if json then
    Engine.Json.to_string
      (Engine.Json.Obj
         ([
            ("strategy", Engine.Json.String (strategy_name compiled.strategy));
            ( "query",
              Engine.Json.String (Fmt.str "%a" Lang.Pretty.pp compiled.source)
            );
            ("plan", Engine.Analyze.to_json ~timing tree);
          ]
         @ (if profile then
              [
                ( "profile",
                  Engine.Profile.to_json (Engine.Profile.of_node tree) );
              ]
            else [])
         @ (match misest with
           | Some entries -> [ ("misest", Misest.to_json entries) ]
           | None -> [])))
  else begin
    let buf = Buffer.create 512 in
    let ppf = Format.formatter_of_buffer buf in
    Fmt.pf ppf "strategy: %s@.query: %a@.@.%a@."
      (strategy_name compiled.strategy)
      Lang.Pretty.pp compiled.source
      (Engine.Analyze.pp ~timing)
      tree;
    (match misest with
    | Some entries ->
      Fmt.pf ppf "@.%a@." (Misest.pp ?floor:misest_floor) entries
    | None -> ());
    if profile then begin
      Fmt.pf ppf "@.%a" Engine.Profile.pp
        (Engine.Profile.of_node tree);
      Fmt.pf ppf "@.flame:@.%a" Engine.Profile.pp_flame tree
    end;
    (match tree.Engine.Stats.gc with
    | Some d when timing ->
      Fmt.pf ppf
        "@.gc: minor=%.0f major=%.0f promoted=%.0f top-heap-delta=%d words@."
        d.Obs.Memory.minor_words d.Obs.Memory.major_words
        d.Obs.Memory.promoted_words d.Obs.Memory.top_heap_words
    | _ -> ());
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  end

let explain ?(costs = false) catalog compiled =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Fmt.pf ppf "strategy: %s@." (strategy_name compiled.strategy);
  Fmt.pf ppf "query: %a@." Lang.Pretty.pp compiled.source;
  (match compiled.logical with
  | Some lq -> Fmt.pf ppf "@.logical plan:@.%a@." Plan.pp_query lq
  | None -> Fmt.pf ppf "@.(no algebraic plan: reference interpreter)@.");
  (if compiled.strategy = Shredded && compiled.shredded = None then
     Fmt.pf ppf
       "@.(outside the flat fragment: falling back to nest-join \
        execution)@.");
  (match compiled.shredded with
  | Some exe ->
    Fmt.pf ppf "@.shredded program:@.%a@." Shred.pp_program
      (Shred.program_of exe)
  | None -> ());
  (match compiled.physical with
  | Some pq when compiled.shredded = None ->
    Fmt.pf ppf "@.physical plan:@.%a@." Engine.Physical.pp_query pq;
    if costs then
      Fmt.pf ppf
        "@.estimated: %.0f result rows, %.0f cost units (see Core.Cost)@."
        (Cost.query_card catalog pq) (Cost.query_cost catalog pq)
  | Some _ | None -> ());
  Format.pp_print_flush ppf ();
  Buffer.contents buf
