(* Plan and result caches over Core.Pipeline — see cache.mli for the
   contract. Thread-safety comes from Lru's internal lock; the pipeline
   calls themselves are serialized by the daemon's executor lock, not
   here. *)

module Pipeline = Core.Pipeline

type outcome = Hit | Miss | Bypass

let outcome_name = function Hit -> "hit" | Miss -> "miss" | Bypass -> "bypass"

type cached_result = { r_value : Cobj.Value.t; r_rendered : string; r_rows : int }

type t = {
  plans : (string, Pipeline.compiled) Lru.t;
  results : (string, cached_result) Lru.t;
  admit_fraction : float;
  rewrite : bool;
  reorder : bool;
}

let metric name = Obs.Metrics.incr name

(* One cost formula, shared between the LRU's accounting and the
   admission check — the two must agree or the admission bound drifts
   from what the cache actually charges. *)
let result_cost key r =
  Cobj.Value.approx_bytes r.r_value
  + String.length r.r_rendered + String.length key

let create ?(plan_capacity = 128) ?(result_capacity = 0)
    ?(admit_fraction = 0.25) ?(rewrite = true) ?(reorder = true) () =
  {
    plans =
      Lru.create ~capacity:plan_capacity
        ~cost:(fun _ _ -> 1)
        ~on_evict:(fun _ _ -> metric "server.cache.plan.evictions")
        ();
    results =
      Lru.create ~capacity:result_capacity ~cost:result_cost
        ~on_evict:(fun _ _ -> metric "server.cache.result.evictions")
        ();
    admit_fraction;
    rewrite;
    reorder;
  }

type reply = {
  value : Cobj.Value.t;
  rendered : string;
  rows : int;
  plan : outcome;
  result : outcome;
  digest : string;
  tree : Engine.Stats.node option;
  misest : Core.Misest.entry list;
}

type error = Parse of string | Compile of string | Runtime of string | Timeout

let ( let* ) = Result.bind

let key_of t strategy catalog expr =
  Pipeline.plan_key ~rewrite:t.rewrite ~reorder:t.reorder strategy catalog
    expr

let compile_expr t ~cache strategy catalog expr =
  let use = cache && Lru.capacity t.plans > 0 in
  if not use then
    match
      Pipeline.compile ~rewrite:t.rewrite ~reorder:t.reorder strategy catalog
        expr
    with
    | Ok compiled -> Ok (compiled, Bypass)
    | Error msg -> Error (Compile msg)
  else
    let key = key_of t strategy catalog expr in
    match Lru.find t.plans key with
    | Some compiled ->
      metric "server.cache.plan.hits";
      Ok (compiled, Hit)
    | None -> (
      metric "server.cache.plan.misses";
      match
        Pipeline.compile ~rewrite:t.rewrite ~reorder:t.reorder strategy
          catalog expr
      with
      | Ok compiled ->
        Lru.add t.plans key compiled;
        Ok (compiled, Miss)
      | Error msg -> Error (Compile msg))

let compile t ?(cache = true) strategy catalog src =
  match Lang.Parser.expr_result src with
  | Error msg -> Error (Parse msg)
  | Ok expr -> compile_expr t ~cache strategy catalog expr

let rows_of = function
  | Cobj.Value.Set l | Cobj.Value.List l -> List.length l
  | _ -> 1

let never_expired () = false

let query t ?(cache = true) ?(instrument = false) ?stats ?jobs ?bloom
    ?(deadline_expired = never_expired) strategy catalog src =
  let* expr =
    match Lang.Parser.expr_result src with
    | Ok e -> Ok e
    | Error msg -> Error (Parse msg)
  in
  let results_on = cache && Lru.capacity t.results > 0 in
  let key = key_of t strategy catalog expr in
  let digest = Pipeline.digest_of_key key in
  let cached =
    if results_on then Lru.find t.results key else None
  in
  match cached with
  | Some r ->
    metric "server.cache.result.hits";
    (* A stored result stands in for the stored plan: promote the plan
       entry so it stays warm for when the result is evicted, and report
       the request as a plan hit either way. *)
    (match Lru.find t.plans key with
    | Some _ -> metric "server.cache.plan.hits"
    | None -> ());
    Ok
      {
        value = r.r_value;
        rendered = r.r_rendered;
        rows = r.r_rows;
        plan = Hit;
        result = Hit;
        digest;
        tree = None;
        misest = [];
      }
  | None ->
    if results_on then metric "server.cache.result.misses";
    if deadline_expired () then Error Timeout
    else
      let* compiled, plan = compile_expr t ~cache strategy catalog expr in
      if deadline_expired () then Error Timeout
      else begin
        (* When a tracer is attached — or the caller asked for
           instrumentation (the daemon's slow-query log needs the
           annotated tree for self-time attribution) — run instrumented
           like `nestql run --trace`; the value is identical and [stats]
           is filled from the annotated tree. *)
        let execute () =
          if
            (instrument || Obs.Trace.enabled ())
            && compiled.Pipeline.physical <> None
          then
            match Pipeline.analyze ?jobs ?bloom catalog compiled with
            | Ok (value, tree) ->
              (match stats with
              | Some s -> Engine.Stats.sum_into s tree
              | None -> ());
              (value, Some tree)
            | Error msg -> raise (Cobj.Value.Type_error msg)
          else (Pipeline.execute ?stats ?jobs ?bloom catalog compiled, None)
        in
        match execute () with
        | value, tree ->
          let misest =
            (* Shredded annotation trees mirror the flat queries, not
               the nest-join plan — misestimation pairing does not
               apply (same rule as Pipeline.render_analysis). *)
            match tree, compiled.Pipeline.physical, compiled.Pipeline.shredded
            with
            | Some tr, Some pq, None -> Core.Misest.of_query catalog pq tr
            | _ -> []
          in
          let rendered = Cobj.Value.to_string value in
          let rows = rows_of value in
          (* Admission policy: a result costing more than admit_fraction
             of the byte budget would evict most of the working set for
             one entry of dubious reuse value — serve it uncached. *)
          (if results_on then
             let entry =
               { r_value = value; r_rendered = rendered; r_rows = rows }
             in
             let budget =
               t.admit_fraction *. float_of_int (Lru.capacity t.results)
             in
             if float_of_int (result_cost key entry) > budget then
               metric "server.result_cache.skipped_large"
             else Lru.add t.results key entry);
          Ok
            {
              value;
              rendered;
              rows;
              plan;
              result = (if results_on then Miss else Bypass);
              digest;
              tree;
              misest;
            }
        | exception Cobj.Value.Type_error msg ->
          Error (Runtime ("runtime error: " ^ msg))
        | exception Lang.Interp.Undefined msg ->
          Error (Runtime ("undefined: " ^ msg))
      end

let plan_entries t = Lru.length t.plans
let result_entries t = Lru.length t.results
let result_bytes t = Lru.total_cost t.results
let plan_hits t = Lru.hits t.plans
let plan_misses t = Lru.misses t.plans
let plan_evictions t = Lru.evictions t.plans
let result_hits t = Lru.hits t.results
let result_misses t = Lru.misses t.results
let result_evictions t = Lru.evictions t.results
