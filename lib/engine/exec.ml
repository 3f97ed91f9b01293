module Value = Cobj.Value
module Env = Cobj.Env
module Ast = Lang.Ast
module Interp = Lang.Interp
module P = Physical

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* A join key paired with its [Value.hash], computed exactly once per row
   and reused for the Bloom filter and the hash-table insert/probe
   (Hashtbl.Make calls [Hkey.hash], which is a field read — no rehash of
   the value). *)
module Hkey = struct
  type t = { h : int; v : Value.t }

  let equal a b = a.h = b.h && Value.equal a.v b.v
  let hash k = k.h
end

module Htbl = Hashtbl.Make (Hkey)

let hkey v = { Hkey.h = Value.hash v; v }

module Sset = Ast.String_set

(* Free (correlation) variables of physical plans, mirroring
   [Algebra.Plan.free_vars]. *)
let rec free_vars plan =
  let expr_free bound e = Sset.diff (Ast.free_vars e) bound in
  let bound_of p = Sset.of_list (P.vars_of p) in
  let binary_keys left right lkey rkey residual =
    let lb = bound_of left and rb = bound_of right in
    let both = Sset.union lb rb in
    Sset.union
      (Sset.union (free_vars left) (free_vars right))
      (Sset.union
         (Sset.union (expr_free lb lkey) (expr_free rb rkey))
         (match residual with
         | None -> Sset.empty
         | Some r -> expr_free both r))
  in
  match plan with
  | P.Unit_row | P.Scan _ -> Sset.empty
  | P.Filter { pred; input } ->
    Sset.union (free_vars input) (expr_free (bound_of input) pred)
  | P.Nl_join { pred; left; right }
  | P.Nl_semijoin { pred; left; right; _ }
  | P.Nl_outerjoin { pred; left; right } ->
    Sset.union
      (Sset.union (free_vars left) (free_vars right))
      (expr_free (Sset.union (bound_of left) (bound_of right)) pred)
  | P.Hash_join { lkey; rkey; residual; left; right }
  | P.Merge_join { lkey; rkey; residual; left; right }
  | P.Hash_semijoin { lkey; rkey; residual; left; right; _ }
  | P.Merge_semijoin { lkey; rkey; residual; left; right; _ }
  | P.Hash_outerjoin { lkey; rkey; residual; left; right }
  | P.Merge_outerjoin { lkey; rkey; residual; left; right } ->
    binary_keys left right lkey rkey residual
  | P.Nl_nestjoin { pred; func; left; right; _ } ->
    let both = Sset.union (bound_of left) (bound_of right) in
    Sset.union
      (Sset.union (free_vars left) (free_vars right))
      (Sset.union (expr_free both pred) (expr_free both func))
  | P.Hash_nestjoin { lkey; rkey; residual; func; left; right; _ }
  | P.Hash_nestjoin_left { lkey; rkey; residual; func; left; right; _ }
  | P.Merge_nestjoin { lkey; rkey; residual; func; left; right; _ } ->
    let both = Sset.union (bound_of left) (bound_of right) in
    Sset.union
      (binary_keys left right lkey rkey residual)
      (expr_free both func)
  | P.Unnest_op { expr; input; _ } ->
    Sset.union (free_vars input) (expr_free (bound_of input) expr)
  | P.Nest_op { func; input; _ } ->
    Sset.union (free_vars input) (expr_free (bound_of input) func)
  | P.Extend_op { expr; input; _ } ->
    Sset.union (free_vars input) (expr_free (bound_of input) expr)
  | P.Project_op { input; _ } -> free_vars input
  | P.Apply_op { subquery; input; _ } ->
    Sset.union (free_vars input)
      (Sset.diff (query_free_vars subquery) (bound_of input))
  | P.Union_op { left; right } ->
    Sset.union (free_vars left) (free_vars right)

and query_free_vars { P.plan; result } =
  Sset.union (free_vars plan)
    (Sset.diff (Ast.free_vars result) (Sset.of_list (P.vars_of plan)))

let no_stats = Stats.create ()

let pad_nulls rvars l =
  List.fold_left (fun acc v -> Env.bind v Value.Null acc) l rvars

(* All scalar expressions appearing in a physical query (preds, keys,
   residuals, functions, results — including nested applies). *)
let rec exprs_of_plan plan acc =
  match plan with
  | P.Unit_row | P.Scan _ -> acc
  | P.Filter { pred; input } -> exprs_of_plan input (pred :: acc)
  | P.Nl_join { pred; left; right }
  | P.Nl_semijoin { pred; left; right; _ }
  | P.Nl_outerjoin { pred; left; right } ->
    exprs_of_plan left (exprs_of_plan right (pred :: acc))
  | P.Hash_join { lkey; rkey; residual; left; right }
  | P.Merge_join { lkey; rkey; residual; left; right }
  | P.Hash_semijoin { lkey; rkey; residual; left; right; _ }
  | P.Merge_semijoin { lkey; rkey; residual; left; right; _ }
  | P.Hash_outerjoin { lkey; rkey; residual; left; right }
  | P.Merge_outerjoin { lkey; rkey; residual; left; right } ->
    let acc = lkey :: rkey :: Option.to_list residual @ acc in
    exprs_of_plan left (exprs_of_plan right acc)
  | P.Nl_nestjoin { pred; func; left; right; _ } ->
    exprs_of_plan left (exprs_of_plan right (pred :: func :: acc))
  | P.Hash_nestjoin { lkey; rkey; residual; func; left; right; _ }
  | P.Hash_nestjoin_left { lkey; rkey; residual; func; left; right; _ }
  | P.Merge_nestjoin { lkey; rkey; residual; func; left; right; _ } ->
    let acc = lkey :: rkey :: func :: Option.to_list residual @ acc in
    exprs_of_plan left (exprs_of_plan right acc)
  | P.Unnest_op { expr; input; _ } | P.Extend_op { expr; input; _ } ->
    exprs_of_plan input (expr :: acc)
  | P.Nest_op { func; input; _ } -> exprs_of_plan input (func :: acc)
  | P.Project_op { input; _ } -> exprs_of_plan input acc
  | P.Apply_op { subquery; input; _ } ->
    exprs_of_plan input
      (exprs_of_plan subquery.P.plan (subquery.P.result :: acc))
  | P.Union_op { left; right } -> exprs_of_plan left (exprs_of_plan right acc)

let exprs_of_query { P.plan; result } = exprs_of_plan plan [ result ]

(* Correlation-column analysis for apply memoization: the cache key should
   be the values of the field paths through which the subquery reads the
   outer row (e.g. [x.b]), not the whole outer tuple — otherwise a cache
   keyed on distinct rows never hits. For each correlation variable we
   collect the maximal [Field] chains rooted at it; a bare occurrence
   forces keying on the whole variable. Occurrences shadowed by inner
   binders are collected too — that only refines the key, which is safe. *)
let correlation_key_exprs corr query =
  let bare = Hashtbl.create 8 in
  let paths = Hashtbl.create 8 in
  let rec root_chain e =
    match e with
    | Ast.Var v -> Some (v, "")
    | Ast.Field (e1, l) ->
      Option.map (fun (v, c) -> (v, c ^ "." ^ l)) (root_chain e1)
    | _ -> None
  in
  let rec collect e =
    match e with
    | Ast.Var v -> if Sset.mem v corr then Hashtbl.replace bare v ()
    | Ast.Field (e1, _) -> begin
      match root_chain e with
      | Some (v, chain) when Sset.mem v corr ->
        Hashtbl.replace paths (v, chain) e
      | Some _ -> ()
      | None -> collect e1
    end
    | Ast.Const _ | Ast.TableRef _ -> ()
    | Ast.TupleE fields -> List.iter (fun (_, e1) -> collect e1) fields
    | Ast.SetE es | Ast.ListE es -> List.iter collect es
    | Ast.Unop (_, e1) | Ast.Agg (_, e1) | Ast.UnnestE e1
    | Ast.VariantE (_, e1) | Ast.IsTag (e1, _) | Ast.AsTag (e1, _) ->
      collect e1
    | Ast.If (c, a, b) ->
      collect c;
      collect a;
      collect b
    | Ast.Binop (_, a, b) ->
      collect a;
      collect b
    | Ast.Quant (_, _, s, p) ->
      collect s;
      collect p
    | Ast.Let (_, d, b) ->
      collect d;
      collect b
    | Ast.Sfw { select; from; where } ->
      collect select;
      List.iter (fun (_, op) -> collect op) from;
      Option.iter collect where
  in
  List.iter collect (exprs_of_query query);
  Sset.elements corr
  |> List.concat_map (fun v ->
         if Hashtbl.mem bare v then [ Ast.Var v ]
         else begin
           let own =
             Hashtbl.fold
               (fun (v', _) e acc -> if String.equal v v' then e :: acc else acc)
               paths []
           in
           match own with [] -> [ Ast.Var v ] | _ :: _ -> own
         end)

(* --- instrumentation frames --------------------------------------------- *)

(* A frame names the counter sink for the operator being executed and, when
   instrumenting, the matching annotation node. Uninstrumented runs share a
   single global sink for every operator (the legacy [?stats] behaviour);
   instrumented runs give each operator its own [Stats.node], descending
   the annotation tree in lockstep with the plan ([Analyze.children]
   order). [jobs] is the parallel width: 1 executes everything on the
   calling domain; larger values let a hash operator whose probe side has
   at least [gate] rows run its probe loop as morsels on the pool
   (operands and builds are still produced serially, so child counters
   and timings are untouched). [bloom]
   enables sideways information passing in the hash-join family: build
   sides populate a Bloom filter consulted before each probe. Pruned probes
   still count in [hash_probes], so disabling bloom changes only the bloom
   counters, never the rest of a Stats tree. [batch] is the physical batch
   width of the columnar operators. *)
type frame = { sink : Stats.t; node : Stats.node option; jobs : int;
               gate : int; bloom : bool; batch : int }

let child_frame fr i =
  match fr.node with
  | None -> fr
  | Some n -> (
    match List.nth_opt n.Stats.children i with
    | Some c -> { fr with sink = c.Stats.counters; node = Some c }
    | None -> fr)

let c0 fr = child_frame fr 0
let c1 fr = child_frame fr 1
let clock = Monotonic_clock.now

(* --- columnar batch engine ------------------------------------------------ *)

let default_batch_size = 1024

let default_batch () =
  match Sys.getenv_opt "NESTQL_BATCH" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> n
    | _ -> default_batch_size)
  | None -> default_batch_size

(* Kernel fallbacks are only recorded by operators that never delegate
   on [jobs] (filter, extend), keeping every [exec.batch.*] counter
   invariant under the domain count. *)
let note_fallback () =
  if Obs.Metrics.enabled () then Obs.Metrics.incr "exec.batch.kernel_fallbacks"

(* --- hash keys ------------------------------------------------------- *)

(* A hash key evaluator: [key b] reads the key of live slot [i] of batch
   [b] as [key b i] — from a kernel column when the batch is columnar and
   the kernel succeeds, else by evaluating the row's env. A kernel that
   raises is discarded before any slot is read, so the row-at-a-time
   replay reproduces row-order counters and first error exactly. *)
type keyer = Batch.t -> int -> Hkey.t

(* All of [kerns] applied to a columnar batch, or [None] when one is
   missing, the batch holds rows, or a kernel raises. *)
let kernel_cols kerns b =
  match kerns with
  | Some ks when Batch.is_cols b -> (
    match List.map (fun k -> k b) ks with
    | cols -> Some cols
    | exception (Value.Type_error _ | Interp.Undefined _) -> None)
  | Some _ | None -> None

let kernels catalog es =
  let ks = List.map (Vexpr.compile catalog) es in
  if List.for_all Option.is_some ks then Some (List.map Option.get ks)
  else None

let plain_keyer catalog key : keyer =
  let fn = Compile.expr catalog key in
  let kerns = kernels catalog [ key ] in
  fun b ->
    match kernel_cols kerns b with
    | Some [ c ] -> fun i -> hkey (Batch.get c i)
    | Some _ | None -> fun i -> hkey (fn (Batch.env_at b i))

(* A composite key [(l1 = e1, ..., ln = en)], which [Decorrelate] builds
   for IN and NOT IN, is compared as the vector of its components in label
   order ([Value.List]), not as a sorted [Value.Tuple]: each component
   runs its own kernel and no env is built. Its hash is the one
   [Value.hash] gives the tuple, so Bloom screens prune the same probes.
   The row fallback evaluates the components in source order, as the
   tuple's own closure would. *)
let composite_keyer catalog fields : keyer =
  let sorted =
    List.mapi (fun j (l, e) -> (l, j, e)) fields
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  let order = List.map (fun (_, j, _) -> j) sorted in
  let label_hashes = List.map (fun (l, _, _) -> Hashtbl.hash l) sorted in
  let key vals =
    let h =
      List.fold_left2
        (fun acc lh v -> (acc * 31) + lh + Value.hash v)
        7 label_hashes vals
    in
    { Hkey.h; v = Value.List vals }
  in
  let fns =
    Array.of_list (List.map (fun (_, e) -> Compile.expr catalog e) fields)
  in
  let kerns = kernels catalog (List.map (fun (_, _, e) -> e) sorted) in
  fun b ->
    match kernel_cols kerns b with
    | Some cols -> fun i -> key (List.map (fun c -> Batch.get c i) cols)
    | None ->
      fun i ->
        let env = Batch.env_at b i in
        let vals = Array.map (fun f -> f env) fns in
        key (List.map (fun j -> vals.(j)) order)

(* The probe and build keyers of one operator. Both sides must agree on
   the representation, so component vectors are used only when both keys
   are tuples over the same distinct labels; a tuple with a repeated label
   keeps the row path, which raises on it. *)
let key_pair catalog lkey rkey =
  let labels fields = List.sort_uniq String.compare (List.map fst fields) in
  match lkey, rkey with
  | Ast.TupleE lf, Ast.TupleE rf
    when List.length (labels lf) = List.length lf
         && List.equal String.equal (labels lf) (labels rf) ->
    (composite_keyer catalog lf, composite_keyer catalog rf)
  | _ -> (plain_keyer catalog lkey, plain_keyer catalog rkey)

(* --- morsel-driven probes --------------------------------------------- *)

(* Probe rows from which a hash operator under [jobs > 1] runs its probe
   loop as morsels on the pool. Below it an operator never touches
   [Pool]: a region pays for spawning and joining its worker domains, so
   parallel probing loses to the serial loop on small inputs (see
   [bench/main.ml]'s parallel case). *)
let parallel_rows = 20_000

(* Morsels per domain: enough that an uneven slice does not leave a
   domain idle, few enough that per-morsel set-up stays negligible. *)
let morsels_per_domain = 4

(* Residual compiled once per operator; an evaluation counts into the
   sink it is given (the operator's, or a morsel's). *)
let residual_check catalog = function
  | None -> fun _ _ -> true
  | Some pred ->
    let f = Compile.pred catalog pred in
    fun (st : Stats.t) merged ->
      st.Stats.predicate_evals <- st.Stats.predicate_evals + 1;
      f merged

(* A hash operator's build table: [find] answers a probe key with its
   matching build rows in build-input order, and [filter], present only
   when the frame's [bloom] is on, screens keys before the lookup. A
   built table and a cached build both come out in this shape, so every
   probe loop is written once. *)
type table = { find : Hkey.t -> Env.t list; filter : Bloom.t option }

let no_table = { find = (fun _ -> []); filter = None }

let bucket_rows tbl k =
  match Htbl.find_opt tbl k with Some bucket -> List.rev bucket | None -> []

(* Run an operator's one per-batch probe loop [loop st b] over its probe
   batches, returning each source batch's output. Serially the loop sees
   whole batches and counts into the operator's sink. From the frame's
   gate under [jobs > 1], each batch's selection is cut into contiguous
   slices, the morsels, which run on the pool with a private [Stats.t]
   each; outputs and counters merge back in slice order per source batch,
   so rows, batch shapes and every counter are those of a serial run. *)
let probe_batches fr batches loop =
  let n = Batch.live_total batches in
  if fr.jobs <= 1 || n < fr.gate then List.map (loop fr.sink) batches
  else begin
    let per = morsels_per_domain * fr.jobs in
    let size = (n + per - 1) / per in
    let cuts = List.map (Batch.slices ~size) batches in
    let morsels = Array.of_list (List.concat cuts) in
    let nm = Array.length morsels in
    let sinks = Array.map (fun _ -> Stats.create ()) morsels in
    let outs = Array.make nm None in
    let stats = fr.sink in
    (* Morsels up to the one that failed first in row order: all of them
       when none failed. *)
    let merge upto =
      for i = 0 to upto - 1 do
        Stats.add ~into:stats sinks.(i);
        stats.Stats.partition_max_rows <-
          max stats.Stats.partition_max_rows (Batch.live morsels.(i))
      done;
      stats.Stats.partitions <- stats.Stats.partitions + upto
    in
    (match
       Pool.run ~jobs:fr.jobs nm (fun i ->
           outs.(i) <- Some (loop sinks.(i) morsels.(i)))
     with
    | () -> merge nm
    | exception e ->
      (* [Pool.run] raised the lowest failing morsel's exception; every
         morsel below it completed, so the counters are a serial run's
         up to the same row. *)
      let bt = Printexc.get_raw_backtrace () in
      let rec first_failed i =
        if i < nm && Option.is_some outs.(i) then first_failed (i + 1) else i
      in
      merge (min nm (first_failed 0 + 1));
      Printexc.raise_with_backtrace e bt);
    let next = ref 0 in
    List.map
      (List.concat_map (fun _ ->
           let out = Option.value outs.(!next) ~default:[] in
           incr next;
           out))
      cuts
  end

(* --- cached build sides ------------------------------------------------ *)

(* The build side of a [Physical.cached_build] operator, per (table,
   field): the table's rows bucketed by the field's value in table order,
   plus a Bloom filter over every key. Rows are stored as table values and
   bound to the query's own scan variable at probe time; rows lacking the
   field are absent. The cache is keyed on ephemerons, so an entry lives
   exactly as long as its table, and it is filled under one lock, so
   domains and sessions sharing a table build each entry once. *)
type cached = { by_key : Value.t list Htbl.t; keys : Bloom.t }

module Cache = Ephemeron.K1.Make (struct
  type t = Cobj.Table.t

  let equal = ( == )
  let hash t = Hashtbl.hash (Cobj.Table.name t)
end)

let cache_lock = Mutex.create ()
let cache : (string * cached) list Cache.t = Cache.create 16

let build_cached t field =
  let rows = Cobj.Table.rows t in
  let by_key = Htbl.create (max 16 (List.length rows)) in
  let keys = Bloom.create (List.length rows) in
  List.iter
    (fun row ->
      match Value.field_opt field row with
      | None -> ()
      | Some v ->
        let k = hkey v in
        Bloom.add keys k.Hkey.h;
        let bucket = Option.value (Htbl.find_opt by_key k) ~default:[] in
        Htbl.replace by_key k (row :: bucket))
    rows;
  Htbl.filter_map_inplace (fun _ bucket -> Some (List.rev bucket)) by_key;
  { by_key; keys }

let cached_table t field =
  Mutex.protect cache_lock (fun () ->
      let built = Option.value (Cache.find_opt cache t) ~default:[] in
      match List.assoc_opt field built with
      | Some c -> c
      | None ->
        if Obs.Metrics.enabled () then Obs.Metrics.incr "exec.cached_builds";
        let c = build_cached t field in
        Cache.replace cache t ((field, c) :: built);
        c)

let is_cached t field =
  Mutex.protect cache_lock (fun () ->
      match Cache.find_opt cache t with
      | Some built -> List.mem_assoc field built
      | None -> false)

(* The cached build seen by one operator run: rows bound to [var] over the
   ambient [env], exactly the rows the skipped scan would have produced. *)
let cached_view ~bloom catalog env (table, var, field) =
  let c = cached_table (Cobj.Catalog.find_exn table catalog) field in
  {
    find =
      (fun k ->
        match Htbl.find_opt c.by_key k with
        | Some vs -> List.map (fun v -> Env.bind var v env) vs
        | None -> []);
    filter = (if bloom then Some c.keys else None);
  }

(* Hash the live rows of [batches] on [key] into a build table, serially
   and in input order within buckets. *)
let hash_batches fr (key : keyer) batches =
  let stats = fr.sink in
  let table = Htbl.create 256 in
  let filter =
    if fr.bloom then Some (Bloom.create (Batch.live_total batches)) else None
  in
  List.iter
    (fun b ->
      let at = key b in
      Batch.iter_live b (fun i ->
          stats.Stats.hash_builds <- stats.Stats.hash_builds + 1;
          let k = at i in
          Option.iter (fun f -> Bloom.add f k.Hkey.h) filter;
          let r = Batch.env_at b i in
          match Htbl.find_opt table k with
          | Some bucket -> Htbl.replace table k (r :: bucket)
          | None -> Htbl.add table k [ r ]))
    batches;
  { find = bucket_rows table; filter }

let probe ~stats table k =
  stats.Stats.hash_probes <- stats.Stats.hash_probes + 1;
  let pruned =
    match table.filter with
    | None -> false
    | Some f ->
      stats.Stats.bloom_checks <- stats.Stats.bloom_checks + 1;
      not (Bloom.mem f k.Hkey.h)
  in
  if pruned then begin
    stats.Stats.bloom_prunes <- stats.Stats.bloom_prunes + 1;
    []
  end
  else table.find k

(* What an operator's one implementation produces: the columnar operators
   (scan, filter, extend, project and the hash-join family) emit batches,
   every other operator emits rows. Consumers convert at the boundary. *)
type produced = Batches of Batch.t list | Rows of Env.t list

let produced_count = function
  | Batches bs -> Batch.live_total bs
  | Rows rows -> List.length rows

(* Output rows of a row-emitting hash operator, per source batch, as
   batches of the frame's width. *)
let rebatch fr per_batch =
  Batches (Batch.of_rows ~size:fr.batch (List.concat per_batch))

let rec rows_fr fr catalog env plan =
  match exec_timed fr catalog env plan with
  | Rows rows -> rows
  | Batches bs -> Batch.rows_of_batches bs

and batches_fr fr catalog env plan =
  match exec_timed fr catalog env plan with
  | Batches bs -> bs
  | Rows rows -> Batch.of_rows ~size:fr.batch rows

(* Timing, loop counts and trace spans attach around the operator's own
   work; conversion at a batch/row boundary is not charged. *)
and exec_timed fr catalog env plan =
  let out =
    match fr.node with
    | None -> exec fr catalog env plan
    | Some n ->
      let t0 = clock () in
      let out = exec fr catalog env plan in
      let t1 = clock () in
      n.Stats.time_ns <- Int64.add n.Stats.time_ns (Int64.sub t1 t0);
      n.Stats.loops <- n.Stats.loops + 1;
      (match out with Batches _ -> n.Stats.vectorized <- true | Rows _ -> ());
      (* Instrumented operators double as trace spans — same clock readings,
         so the timeline agrees with EXPLAIN ANALYZE to the nanosecond. *)
      if Obs.Trace.enabled () then
        Obs.Trace.complete ~cat:"operator" ~start_ns:t0 ~stop_ns:t1
          ~args:(fun () ->
            [
              ("detail", Obs.Trace.Str n.Stats.detail);
              ("rows_out", Obs.Trace.Int (produced_count out));
              ("loop", Obs.Trace.Int n.Stats.loops);
              ("est_rows", Obs.Trace.Num n.Stats.est_rows);
            ])
          n.Stats.op;
      out
  in
  (match out with
  | Batches bs when Obs.Metrics.enabled () ->
    Obs.Metrics.incr ~by:(List.length bs) "exec.batch.batches";
    Obs.Metrics.incr ~by:(Batch.live_total bs) "exec.batch.rows"
  | Batches _ | Rows _ -> ());
  out

(* One arm per [Physical.t] constructor: the single implementation of that
   operator. Output rows (in order) and every [Stats] counter are identical
   at any [jobs] and any batch width. Columnar expression kernels that miss
   or raise fall back to the row-compiled closures, replayed in row order;
   with [Compile] disabled every expression takes that path. *)
and exec fr catalog env plan =
  let stats = fr.sink in
  let out =
    match plan with
    | P.Scan { table; var } ->
      let t = Cobj.Catalog.find_exn table catalog in
      Batches (Batch.of_values ~size:fr.batch var env (Cobj.Table.rows t))
    | P.Filter { pred; input } ->
      let predfn = Compile.pred catalog pred in
      let kern = Vexpr.compile catalog pred in
      let inb = batches_fr (c0 fr) catalog env input in
      let out =
        List.filter_map
          (fun b ->
            let row_sel () =
              note_fallback ();
              let acc = ref [] in
              Batch.iter_live b (fun i ->
                  stats.Stats.predicate_evals <-
                    stats.Stats.predicate_evals + 1;
                  if predfn (Batch.env_at b i) then acc := i :: !acc);
              Array.of_list (List.rev !acc)
            in
            let sel =
              match kern with
              | Some k when Batch.is_cols b -> (
                match Vexpr.truth_sel k b with
                | sel ->
                  stats.Stats.predicate_evals <-
                    stats.Stats.predicate_evals + Batch.live b;
                  sel
                | exception (Value.Type_error _ | Interp.Undefined _) ->
                  row_sel ())
              | _ -> row_sel ()
            in
            if Array.length sel = 0 then None else Some (Batch.narrow b sel))
          inb
      in
      Batches out
    | P.Extend_op { var; expr; input } ->
      let exprfn = Compile.expr catalog expr in
      let kern = Vexpr.compile catalog expr in
      let inb = batches_fr (c0 fr) catalog env input in
      let out =
        List.map
          (fun b ->
            let row_ext () =
              note_fallback ();
              let acc = ref [] in
              Batch.iter_live b (fun i ->
                  let r = Batch.env_at b i in
                  acc := Env.bind var (exprfn r) r :: !acc);
              Batch.of_rows_array (Array.of_list (List.rev !acc))
            in
            match kern with
            | Some k when Batch.is_cols b -> (
              match k b with
              | c -> Batch.add_col b var c
              | exception (Value.Type_error _ | Interp.Undefined _) ->
                row_ext ())
            | _ -> row_ext ())
          inb
      in
      Batches out
    | P.Project_op { vars; input } ->
      let inb = batches_fr (c0 fr) catalog env input in
      let acc = ref [] in
      List.iter
        (fun b ->
          Batch.iter_live b (fun i ->
              acc :=
                Env.append (Env.project vars (Batch.env_at b i)) env :: !acc))
        inb;
      Batches
        (Batch.of_rows ~size:fr.batch
           (List.sort_uniq Env.compare (List.rev !acc)))
    | P.Hash_join { lkey; rkey; residual; left; right } ->
      let lb = batches_fr (c0 fr) catalog env left in
      let nl = Batch.live_total lb in
      let lkeyer, rkeyer = key_pair catalog lkey rkey in
      (* A cached build is never swapped: its table already exists. *)
      let swap, probe_b, probe_key, table =
        match P.cached_build plan with
        | Some _ ->
          ( false,
            lb,
            lkeyer,
            build_table fr catalog env plan ~nprobe:nl right rkeyer )
        | None ->
          let rb = batches_fr (c1 fr) catalog env right in
          let swap = Batch.live_total rb > nl in
          if swap then
            stats.Stats.build_side_swaps <- stats.Stats.build_side_swaps + 1;
          let probe_b, build_b, probe_key, build_key =
            if swap then (rb, lb, rkeyer, lkeyer) else (lb, rb, lkeyer, rkeyer)
          in
          (swap, probe_b, probe_key, hash_batches fr build_key build_b)
      in
      let merged_of p m = if swap then Env.append p m else Env.append m p in
      let rok = residual_check catalog residual in
      probe_batches fr probe_b (fun st b ->
          let key = probe_key b in
          let acc = ref [] in
          Batch.iter_live b (fun i ->
              match probe ~stats:st table (key i) with
              | [] -> ()
              | ms ->
                (* Late materialization: the probe env is only built once
                   the Bloom screen and table lookup found matches. *)
                let p = Batch.env_at b i in
                List.iter
                  (fun m ->
                    let merged = merged_of p m in
                    if rok st merged then acc := merged :: !acc)
                  ms);
          List.rev !acc)
      |> rebatch fr
    | P.Hash_semijoin { lkey; rkey; residual; anti; left; right } ->
      let lb = batches_fr (c0 fr) catalog env left in
      let lkeyer, rkeyer = key_pair catalog lkey rkey in
      let table =
        build_table fr catalog env plan ~nprobe:(Batch.live_total lb) right
          rkeyer
      in
      let rok = residual_check catalog residual in
      let sels =
        probe_batches fr lb (fun st b ->
            let key = lkeyer b in
            let acc = ref [] in
            Batch.iter_live b (fun i ->
                let ms = probe ~stats:st table (key i) in
                let found =
                  match residual with
                  | None -> ms <> []
                  | Some _ ->
                    let l = Batch.env_at b i in
                    List.exists (fun r -> rok st (Env.append r l)) ms
                in
                if found <> anti then acc := i :: !acc);
            List.rev !acc)
      in
      Batches
        (List.filter_map
           (fun (b, sel) ->
             match sel with
             | [] -> None
             | _ :: _ -> Some (Batch.narrow b (Array.of_list sel)))
           (List.combine lb sels))
    | P.Hash_outerjoin { lkey; rkey; residual; left; right } ->
      let rvars = P.vars_of right in
      let lb = batches_fr (c0 fr) catalog env left in
      let lkeyer, rkeyer = key_pair catalog lkey rkey in
      let table =
        build_table fr catalog env plan ~nprobe:(Batch.live_total lb) right
          rkeyer
      in
      let rok = residual_check catalog residual in
      probe_batches fr lb (fun st b ->
          let key = lkeyer b in
          let acc = ref [] in
          Batch.iter_live b (fun i ->
              let ms = probe ~stats:st table (key i) in
              let l = Batch.env_at b i in
              let matches =
                List.filter_map
                  (fun r ->
                    let merged = Env.append r l in
                    if rok st merged then Some merged else None)
                  ms
              in
              match matches with
              | [] -> acc := pad_nulls rvars l :: !acc
              | _ :: _ -> List.iter (fun m -> acc := m :: !acc) matches);
          List.rev !acc)
      |> rebatch fr
    | P.Hash_nestjoin { lkey; rkey; residual; func; label; left; right } ->
      let funcfn = Compile.expr catalog func in
      let lb = batches_fr (c0 fr) catalog env left in
      let lkeyer, rkeyer = key_pair catalog lkey rkey in
      let table =
        build_table fr catalog env plan ~nprobe:(Batch.live_total lb) right
          rkeyer
      in
      let rok = residual_check catalog residual in
      probe_batches fr lb (fun st b ->
          let key = lkeyer b in
          let acc = ref [] in
          Batch.iter_live b (fun i ->
              let ms = probe ~stats:st table (key i) in
              let l = Batch.env_at b i in
              let members =
                List.filter_map
                  (fun r ->
                    let merged = Env.append r l in
                    if rok st merged then Some (funcfn merged) else None)
                  ms
              in
              acc := Env.bind label (Value.set members) l :: !acc);
          List.rev !acc)
      |> rebatch fr
    | P.Unit_row -> Rows [ env ]
    | P.Nl_join { pred; left; right } ->
      let predfn = Compile.pred catalog pred in
      let rrows = rows_fr (c1 fr) catalog env right in
      Rows
        (rows_fr (c0 fr) catalog env left
        |> List.concat_map (fun l ->
               List.filter_map
                 (fun r ->
                   stats.Stats.predicate_evals <-
                     stats.Stats.predicate_evals + 1;
                   let merged = Env.append r l in
                   if predfn merged then Some merged else None)
                 rrows))
    | P.Merge_join { lkey; rkey; residual; left; right } ->
      let rok = residual_check catalog residual stats in
      let lgroups = sorted_groups ~stats (c0 fr) catalog env left lkey in
      let rgroups = sorted_groups ~stats (c1 fr) catalog env right rkey in
      Rows
        (merge_groups lgroups rgroups
        |> List.concat_map (fun (ls, rs) ->
               List.concat_map
                 (fun l ->
                   List.filter_map
                     (fun r ->
                       let merged = Env.append r l in
                       if rok merged then Some merged else None)
                     rs)
                 ls))
    | P.Nl_semijoin { pred; anti; left; right } ->
      let predfn = Compile.pred catalog pred in
      let rrows = rows_fr (c1 fr) catalog env right in
      Rows
        (rows_fr (c0 fr) catalog env left
        |> List.filter (fun l ->
               let found =
                 List.exists
                   (fun r ->
                     stats.Stats.predicate_evals <-
                       stats.Stats.predicate_evals + 1;
                     predfn (Env.append r l))
                   rrows
               in
               if anti then not found else found))
    | P.Merge_semijoin { lkey; rkey; residual; anti; left; right } ->
      let rok = residual_check catalog residual stats in
      let lgroups = sorted_groups ~stats (c0 fr) catalog env left lkey in
      let rgroups = sorted_groups ~stats (c1 fr) catalog env right rkey in
      (* march the two sorted group lists; every left group is emitted or
         dropped depending on whether a matching right member exists *)
      let rec go ls rs acc =
        match ls with
        | [] -> List.rev acc
        | (lk, lrows) :: ls' ->
          let rec advance rs =
            match rs with
            | (rk, _) :: rs' when Value.compare rk lk < 0 -> advance rs'
            | _ -> rs
          in
          let rs = advance rs in
          let rrows =
            match rs with
            | (rk, rrows) :: _ when Value.compare rk lk = 0 -> rrows
            | _ -> []
          in
          let keep l =
            let matched = List.exists (fun r -> rok (Env.append r l)) rrows in
            if anti then not matched else matched
          in
          go ls' rs (List.rev_append (List.filter keep lrows) acc)
      in
      Rows (go lgroups rgroups [])
    | P.Nl_outerjoin { pred; left; right } ->
      let predfn = Compile.pred catalog pred in
      let rrows = rows_fr (c1 fr) catalog env right in
      let rvars = P.vars_of right in
      Rows
        (rows_fr (c0 fr) catalog env left
        |> List.concat_map (fun l ->
               let matches =
                 List.filter_map
                   (fun r ->
                     stats.Stats.predicate_evals <-
                       stats.Stats.predicate_evals + 1;
                     let merged = Env.append r l in
                     if predfn merged then Some merged else None)
                   rrows
               in
               match matches with
               | [] -> [ pad_nulls rvars l ]
               | _ :: _ -> matches))
    | P.Merge_outerjoin { lkey; rkey; residual; left; right } ->
      let rok = residual_check catalog residual stats in
      let rvars = P.vars_of right in
      let lgroups = sorted_groups ~stats (c0 fr) catalog env left lkey in
      let rgroups = sorted_groups ~stats (c1 fr) catalog env right rkey in
      (* every left row survives: matched rows merge, the rest pad *)
      let rec go ls rs acc =
        match ls, rs with
        | [], _ -> List.rev acc
        | (_, lrows) :: ls', [] ->
          go ls' []
            (List.rev_append (List.map (pad_nulls rvars) lrows) acc)
        | (lk, lrows) :: ls', (rk, rrows) :: rs' ->
          let c = Value.compare lk rk in
          if c = 0 then
            let out =
              List.concat_map
                (fun l ->
                  let matches =
                    List.filter_map
                      (fun r ->
                        let merged = Env.append r l in
                        if rok merged then Some merged else None)
                      rrows
                  in
                  match matches with
                  | [] -> [ pad_nulls rvars l ]
                  | _ :: _ -> matches)
                lrows
            in
            go ls' rs' (List.rev_append out acc)
          else if c < 0 then
            go ls' rs
              (List.rev_append (List.map (pad_nulls rvars) lrows) acc)
          else go ls rs' acc
      in
      Rows (go lgroups rgroups [])
    | P.Nl_nestjoin { pred; func; label; left; right } ->
      let predfn = Compile.pred catalog pred in
      let funcfn = Compile.expr catalog func in
      let rrows = rows_fr (c1 fr) catalog env right in
      Rows
        (rows_fr (c0 fr) catalog env left
        |> List.map (fun l ->
               let members =
                 List.filter_map
                   (fun r ->
                     stats.Stats.predicate_evals <-
                       stats.Stats.predicate_evals + 1;
                     let merged = Env.append r l in
                     if predfn merged then Some (funcfn merged) else None)
                   rrows
               in
               Env.bind label (Value.set members) l))
    | P.Hash_nestjoin_left { lkey; rkey; residual; func; label; left; right }
      ->
      (* Streaming right against a left build table: emits a group as soon
         as a right row matches, so it is only correct when [rkey] is unique
         on the right input (§6). Dangling left rows flush at the end. *)
      let lkeyfn = Compile.expr catalog lkey in
      let rkeyfn = Compile.expr catalog rkey in
      let rok = residual_check catalog residual stats in
      let funcfn = Compile.expr catalog func in
      let lrows = rows_fr (c0 fr) catalog env left in
      let table = Htbl.create 256 in
      let filter =
        if fr.bloom then Some (Bloom.create (List.length lrows)) else None
      in
      List.iter
        (fun l ->
          stats.Stats.hash_builds <- stats.Stats.hash_builds + 1;
          let k = hkey (lkeyfn l) in
          Option.iter (fun f -> Bloom.add f k.Hkey.h) filter;
          Htbl.replace table k
            (l :: (try Htbl.find table k with Not_found -> [])))
        lrows;
      let matched : (Env.t * Env.t list) list ref = ref [] in
      let matched_keys = Vtbl.create 256 in
      rows_fr (c1 fr) catalog env right
      |> List.iter (fun r ->
             let k = hkey (rkeyfn r) in
             stats.Stats.hash_probes <- stats.Stats.hash_probes + 1;
             let pruned =
               match filter with
               | None -> false
               | Some f ->
                 stats.Stats.bloom_checks <- stats.Stats.bloom_checks + 1;
                 not (Bloom.mem f k.Hkey.h)
             in
             if pruned then
               stats.Stats.bloom_prunes <- stats.Stats.bloom_prunes + 1
             else
               match Htbl.find_opt table k with
               | None -> ()
               | Some ls ->
                 List.iter
                   (fun l ->
                     let merged = Env.append r l in
                     if rok merged then begin
                       matched := (l, [ merged ]) :: !matched;
                       Vtbl.replace matched_keys (Env.to_value l) ()
                     end)
                   ls);
      let emitted =
        List.rev_map
          (fun (l, merged) ->
            Env.bind label (Value.set (List.map funcfn merged)) l)
          !matched
      in
      let dangling =
        List.filter_map
          (fun l ->
            if Vtbl.mem matched_keys (Env.to_value l) then None
            else Some (Env.bind label (Value.Set []) l))
          lrows
      in
      Rows (emitted @ dangling)
    | P.Merge_nestjoin { lkey; rkey; residual; func; label; left; right } ->
      let rok = residual_check catalog residual stats in
      let funcfn = Compile.expr catalog func in
      let lgroups = sorted_groups ~stats (c0 fr) catalog env left lkey in
      let rgroups = sorted_groups ~stats (c1 fr) catalog env right rkey in
      (* Unlike merge join, every left group survives (possibly with ∅). *)
      let rec go ls rs acc =
        match ls, rs with
        | [], _ -> List.rev acc
        | (lk, lrows) :: ls', [] ->
          let out = List.map (emit_group []) lrows in
          ignore lk;
          go ls' [] (List.rev_append out acc)
        | (lk, lrows) :: ls', (rk, rrows) :: rs' ->
          let c = Value.compare lk rk in
          if c = 0 then
            go ls' rs'
              (List.rev_append (List.map (emit_group rrows) lrows) acc)
          else if c < 0 then
            go ls' rs (List.rev_append (List.map (emit_group []) lrows) acc)
          else go ls rs' acc
      and emit_group rrows l =
        let members =
          List.filter_map
            (fun r ->
              let merged = Env.append r l in
              if rok merged then Some (funcfn merged) else None)
            rrows
        in
        Env.bind label (Value.set members) l
      in
      Rows (go lgroups rgroups [])
    | P.Unnest_op { expr; var; input } ->
      let exprfn = Compile.expr catalog expr in
      Rows
        (rows_fr (c0 fr) catalog env input
        |> List.concat_map (fun r ->
               Value.elements (exprfn r)
               |> List.map (fun x -> Env.bind var x r)))
    | P.Nest_op { by; label; func; nulls; input } ->
      let input_rows = rows_fr (c0 fr) catalog env input in
      let groups = Vtbl.create 64 in
      let order = ref [] in
      List.iter
        (fun r ->
          stats.Stats.hash_builds <- stats.Stats.hash_builds + 1;
          let k = Env.to_value (Env.project by r) in
          match Vtbl.find_opt groups k with
          | Some members -> Vtbl.replace groups k (r :: members)
          | None ->
            order := (k, r) :: !order;
            Vtbl.add groups k [ r ])
        input_rows;
      let funcfn = Compile.expr catalog func in
      let padded r =
        nulls <> []
        && List.for_all (fun v -> Value.equal (Env.find v r) Value.Null) nulls
      in
      Rows
        (List.rev_map
           (fun (k, representative) ->
             let members = Vtbl.find groups k in
             let set =
               Value.set
                 (List.filter_map
                    (fun r -> if padded r then None else Some (funcfn r))
                    members)
             in
             let base =
               List.fold_left
                 (fun acc v -> Env.bind v (Env.find v representative) acc)
                 env by
             in
             Env.bind label set base)
           !order)
    | P.Apply_op { var; subquery; memo; input } ->
      let input_rows = rows_fr (c0 fr) catalog env input in
      (* A correlated subplan re-runs inside the apply loop with per-row
         bindings; it conservatively executes serially (its apply loop is
         already the unit of work, and the memo cache is unsynchronized).
         An uncorrelated subplan runs once and may parallelize freely. *)
      let corr =
        Sset.inter (query_free_vars subquery)
          (Sset.of_list (P.vars_of input))
      in
      let subfr =
        let sub = c1 fr in
        if Sset.is_empty corr then sub else { sub with jobs = 1 }
      in
      let apply =
        if not memo then begin
          fun r ->
            stats.Stats.applies <- stats.Stats.applies + 1;
            run_under_fr subfr catalog r subquery
        end
        else begin
          let key_exprs = correlation_key_exprs corr subquery in
          let cache = Vtbl.create 64 in
          let key_fns = List.map (Compile.expr catalog) key_exprs in
          fun r ->
            let k = Value.List (List.map (fun f -> f r) key_fns) in
            match Vtbl.find_opt cache k with
            | Some v ->
              stats.Stats.apply_hits <- stats.Stats.apply_hits + 1;
              v
            | None ->
              stats.Stats.applies <- stats.Stats.applies + 1;
              let v = run_under_fr subfr catalog r subquery in
              Vtbl.add cache k v;
              v
        end
      in
      Rows (List.map (fun r -> Env.bind var (apply r) r) input_rows)
    | P.Union_op { left; right } ->
      Rows
        (List.sort_uniq Env.compare
           (rows_fr (c0 fr) catalog env left
           @ rows_fr (c1 fr) catalog env right))
  in
  stats.Stats.rows_out <- stats.Stats.rows_out + produced_count out;
  out

(* The build table of the right-build hash operator [plan] for [nprobe]
   probe rows. A cacheable build ([Physical.cached_build]) comes from the
   cache without running its scan or counting [hash_builds]; an empty
   probe side fetches nothing, so an unused entry stays cold. Any other
   build runs the right operand and hashes it on [key]. *)
and build_table fr catalog env plan ~nprobe right key =
  match P.cached_build plan with
  | Some _ when nprobe = 0 -> no_table
  | Some c -> cached_view ~bloom:fr.bloom catalog env c
  | None -> hash_batches fr key (batches_fr (c1 fr) catalog env right)

and sorted_groups ~stats fr catalog env plan key_expr =
  let keyfn = Compile.expr catalog key_expr in
  let produced = rows_fr fr catalog env plan in
  stats.Stats.sorts <- stats.Stats.sorts + List.length produced;
  let keyed = List.map (fun r -> (keyfn r, r)) produced in
  let sorted =
    List.sort (fun (k1, _) (k2, _) -> Value.compare k1 k2) keyed
  in
  (* Linear pass over the sorted list, grouping equal adjacent keys. *)
  let rec group = function
    | [] -> []
    | (k, r) :: rest ->
      let rec take acc = function
        | (k', r') :: more when Value.equal k k' -> take (r' :: acc) more
        | remaining -> (List.rev acc, remaining)
      in
      let same, others = take [ r ] rest in
      (k, same) :: group others
  in
  group sorted

and merge_groups ls rs =
  match ls, rs with
  | [], _ | _, [] -> []
  | (lk, lrows) :: ls', (rk, rrows) :: rs' ->
    let c = Value.compare lk rk in
    if c = 0 then (lrows, rrows) :: merge_groups ls' rs'
    else if c < 0 then merge_groups ls' rs
    else merge_groups ls rs'

and run_under_fr fr catalog env { P.plan; result } =
  let resultfn = Compile.expr catalog result in
  let produced = rows_fr fr catalog env plan in
  Value.set (List.map resultfn produced)

let clamp_jobs jobs = max 1 (min jobs Pool.max_jobs)

let frame ?node ?(gate = parallel_rows) ~jobs ~bloom ~batch sink =
  let batch = max 1 (Option.value batch ~default:(default_batch ())) in
  { sink; node; jobs = clamp_jobs jobs; gate = max 1 gate; bloom; batch }

let rows ?(stats = no_stats) ?(jobs = 1) ?gate ?(bloom = true) ?batch catalog
    env plan =
  rows_fr (frame ~jobs ?gate ~bloom ~batch stats) catalog env plan

let rows_instrumented ?(jobs = 1) ?gate ?(bloom = true) ?batch node catalog
    env plan =
  rows_fr
    (frame ~node ~jobs ?gate ~bloom ~batch node.Stats.counters)
    catalog env plan

let run_under ?(stats = no_stats) ?(jobs = 1) ?gate ?(bloom = true) ?batch
    catalog env query =
  run_under_fr (frame ~jobs ?gate ~bloom ~batch stats) catalog env query

let run ?stats ?jobs ?gate ?bloom ?batch catalog query =
  run_under ?stats ?jobs ?gate ?bloom ?batch catalog Env.empty query

let run_instrumented ?(jobs = 1) ?gate ?(bloom = true) ?batch catalog query =
  let tree = Analyze.tree_of_query query in
  let v =
    run_under_fr
      (frame ~node:tree ~jobs ?gate ~bloom ~batch tree.Stats.counters)
      catalog Env.empty query
  in
  (v, tree)
