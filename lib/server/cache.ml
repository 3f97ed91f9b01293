(* Plan and result caches over Core.Pipeline — see cache.mli for the
   contract. Thread-safety comes from Lru's internal lock, plus a small
   lock on the set of watched catalog stamps and an atomic queue of dead
   ones; the pipeline calls themselves are serialized by the daemon's
   executor lock, not here. *)

module Pipeline = Core.Pipeline

type outcome = Hit | Miss | Bypass

let outcome_name = function Hit -> "hit" | Miss -> "miss" | Bypass -> "bypass"

(* Every entry records the statistics stamp of the catalog it was built
   on, so entries can be purged once that catalog is collected. *)
type cached_plan = { p_compiled : Pipeline.compiled; p_stamp : int }

(* [r_json] is the reply's ["result"] field as sent: the JSON string
   literal of the rendered value, quotes included. *)
type cached_result = { r_json : string; r_rows : int; r_stamp : int }

type t = {
  plans : (string, cached_plan) Lru.t;
  results : (string, cached_result) Lru.t;
  watched : (int, unit) Hashtbl.t; (* stamps with a finaliser armed *)
  watched_m : Mutex.t;
  dead : int list Atomic.t; (* stamps whose catalog was collected *)
  admit_fraction : float;
  rewrite : bool;
  reorder : bool;
}

let metric name = Obs.Metrics.incr name

let word_bytes = Sys.word_size / 8

(* A string block: a header word, then the bytes padded to whole words
   with at least one padding byte. *)
let string_words s = 1 + ((String.length s + word_bytes) / word_bytes)

(* Heap words of one entry besides its key and literal: the
   cached_result record (4), the Lru node (6) and the two [Some] cells
   that link it into the recency list (4), and the Hashtbl bucket cell
   (4). *)
let entry_words = 18

(* One cost formula, in bytes, shared between the LRU's accounting and
   the admission check — the two must agree or the admission bound
   drifts from what the cache actually charges. *)
let result_cost key json =
  word_bytes * (entry_words + string_words key + string_words json)

let create ?(plan_capacity = 128) ?(result_capacity = 0)
    ?(admit_fraction = 0.25) ?(rewrite = true) ?(reorder = true) () =
  {
    plans =
      Lru.create ~capacity:plan_capacity
        ~cost:(fun _ _ -> 1)
        ~on_evict:(fun _ _ -> metric "server.cache.plan.evictions")
        ();
    results =
      Lru.create ~capacity:result_capacity
        ~cost:(fun key r -> result_cost key r.r_json)
        ~on_evict:(fun _ _ -> metric "server.cache.result.evictions")
        ();
    watched = Hashtbl.create 8;
    watched_m = Mutex.create ();
    dead = Atomic.make [];
    admit_fraction;
    rewrite;
    reorder;
  }

type reply = {
  result_json : string;
  rows : int;
  plan : outcome;
  result : outcome;
  digest : string;
  tree : Engine.Stats.node option;
  misest : Core.Misest.entry list;
}

type error = Parse of string | Compile of string | Runtime of string | Timeout

let ( let* ) = Result.bind

let rec push q x =
  let l = Atomic.get q in
  if not (Atomic.compare_and_set q l (x :: l)) then push q x

(* The first entry of a stamp arms a finaliser on its catalog. The
   finaliser runs at whatever allocation the collector picks, maybe
   under a lock, so it only pushes the stamp onto the lock-free [dead]
   queue; the next request does the purge. *)
let watch t catalog stamp =
  let fresh =
    Mutex.protect t.watched_m (fun () ->
        let fresh = not (Hashtbl.mem t.watched stamp) in
        if fresh then Hashtbl.replace t.watched stamp ();
        fresh)
  in
  if fresh then
    (* The closure holds the queue, not the cache. *)
    let dead = t.dead in
    Gc.finalise_last (fun () -> push dead stamp) catalog

(* Drop the entries of collected catalogs: nothing can ask for them
   again, and they would hold budget until they aged out. *)
let purge t =
  match Atomic.exchange t.dead [] with
  | [] -> ()
  | stamps ->
    Mutex.protect t.watched_m (fun () ->
        List.iter (Hashtbl.remove t.watched) stamps);
    let gone stamp = List.mem stamp stamps in
    let count name n = if n > 0 then Obs.Metrics.incr ~by:n name in
    count "server.cache.plan.purged"
      (Lru.remove_if t.plans (fun _ p -> gone p.p_stamp));
    count "server.cache.result.purged"
      (Lru.remove_if t.results (fun _ r -> gone r.r_stamp))

let stamp_of t catalog =
  let stamp = Cobj.Stats.version catalog in
  watch t catalog stamp;
  stamp

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
    | Some p ->
      metric "server.cache.plan.hits";
      Ok (p.p_compiled, Hit)
    | None -> (
      metric "server.cache.plan.misses";
      match
        Pipeline.compile ~rewrite:t.rewrite ~reorder:t.reorder strategy
          catalog expr
      with
      | Ok compiled ->
        Lru.add t.plans key
          { p_compiled = compiled; p_stamp = stamp_of t catalog };
        Ok (compiled, Miss)
      | Error msg -> Error (Compile msg))

let compile t ?(cache = true) strategy catalog src =
  purge t;
  match Lang.Parser.expr_result src with
  | Error msg -> Error (Parse msg)
  | Ok expr -> compile_expr t ~cache strategy catalog expr

let rows_of = function
  | Cobj.Value.Set l | Cobj.Value.List l -> List.length l
  | _ -> 1

let never_expired () = false

let query t ?(cache = true) ?(instrument = false) ?stats ?jobs ?bloom
    ?(deadline_expired = never_expired) strategy catalog src =
  purge t;
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
        result_json = r.r_json;
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
          let result_json =
            Engine.Json.to_string
              (Engine.Json.String (Cobj.Value.to_string value))
          in
          let rows = rows_of value in
          (* Admission policy: a result costing more than admit_fraction
             of the byte budget would evict most of the working set for
             one entry of dubious reuse value — serve it uncached. *)
          (if results_on then
             let budget =
               t.admit_fraction *. float_of_int (Lru.capacity t.results)
             in
             if float_of_int (result_cost key result_json) > budget then
               metric "server.result_cache.skipped_large"
             else
               Lru.add t.results key
                 {
                   r_json = result_json;
                   r_rows = rows;
                   r_stamp = stamp_of t catalog;
                 });
          Ok
            {
              result_json;
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
