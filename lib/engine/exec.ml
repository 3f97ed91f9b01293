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
   and reused for the Bloom filter, the partition index and the hash-table
   insert/probe (Hashtbl.Make calls [Hkey.hash], which is now a field
   read — no rehash of the value). *)
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
   order). [jobs] is the partition-parallel width: 1 executes everything on
   the calling domain, larger values let the hash-join family partition
   its build and probe work over a domain pool (operands are still
   produced serially, so child counters and timings are untouched). [bloom]
   enables sideways information passing in the hash-join family: build
   sides populate a Bloom filter consulted before each probe. Pruned probes
   still count in [hash_probes], so disabling bloom changes only the bloom
   counters, never the rest of a Stats tree. [batch] is the physical batch
   width of the columnar operators. *)
type frame = { sink : Stats.t; node : Stats.node option; jobs : int;
               bloom : bool; batch : int }

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

(* Evaluate a key expression over a batch: kernel when possible, row
   closure otherwise.  A kernel that raises is discarded before any
   probe ran, so replaying row-at-a-time reproduces row-order counters
   and first error exactly. *)
let key_col kern b =
  match kern with
  | Some k when Batch.is_cols b -> (
    match k b with
    | c -> `Col c
    | exception (Value.Type_error _ | Interp.Undefined _) -> `RowWise)
  | _ -> `RowWise

let key_at keyv keyfn b i =
  match keyv with
  | `Col c -> Batch.get c i
  | `RowWise -> keyfn (Batch.env_at b i)

(* --- partition-parallel helpers ------------------------------------------ *)

(* Parallel sections run operator-local work (probes, predicate and
   function evaluation) on pool domains. Each worker partition gets a
   private [Stats.t], merged into the operator's own sink in deterministic
   partition order afterwards, so instrumented trees and global totals are
   identical to a serial run. Output comes back in serial row order: hash
   partitions scatter per-left-row results into a dense array indexed by
   the left row's input position.
   Operands are always produced serially before a region starts, and
   worker bodies never re-enter the executor, so regions never nest. *)

let join_min = 2 (* partitioned joins parallelize from this many left rows *)

let merge_parts stats parts =
  Array.iter (fun p -> Stats.add ~into:stats p) parts

(* Residual compiled once per operator; evaluation counts into the
   partition's sink (the parallel counterpart of [compile_residual]). *)
let residual_fn catalog = function
  | None -> None
  | Some pred -> Some (Compile.pred catalog pred)

let rok_part st rokfn merged =
  match rokfn with
  | None -> true
  | Some f ->
    st.Stats.predicate_evals <- st.Stats.predicate_evals + 1;
    f merged

(* A hash operator's build table: [find] answers a probe key with its
   matching build rows in build-input order, and [filter], present only
   when the frame's [bloom] is on, screens keys before the lookup. A serial
   build, a partitioned build and a cached build all come out in this
   shape, so every probe loop is written once. *)
type table = { find : Hkey.t -> Env.t list; filter : Bloom.t option }

let no_table = { find = (fun _ -> []); filter = None }

let nparts_of jobs = jobs * 2
let part nparts h = h land max_int mod nparts

let bucket_rows tbl k =
  match Htbl.find_opt tbl k with Some bucket -> List.rev bucket | None -> []

(* Hash-partitioned parallel build: the build rows split on the
   precomputed key hash and each partition builds its own table on a
   worker; [find] looks a key up in the partition its hash selects.

   With [bloom], each build partition populates its own filter, all sized
   from the *total* build count — the same geometry a serial build uses —
   so their OR-merge is bit-identical to the serial filter and the prune
   counters are invariant under [jobs]. *)
let par_build ~jobs ~bloom ~stats ~rkeyfn rrows =
  let nparts = nparts_of jobs in
  let rparts = Array.make nparts [] in
  let nbuild =
    List.fold_left
      (fun n r ->
        let k = hkey (rkeyfn r) in
        let p = part nparts k.Hkey.h in
        rparts.(p) <- (r, k) :: rparts.(p);
        n + 1)
      0 rrows
  in
  let tables = Array.init nparts (fun _ -> Htbl.create 64) in
  let filters =
    if bloom then Some (Array.init nparts (fun _ -> Bloom.create nbuild))
    else None
  in
  let bparts = Array.init nparts (fun _ -> Stats.create ()) in
  Pool.run ~jobs nparts (fun p ->
      let st = bparts.(p) in
      let table = tables.(p) in
      List.iter
        (fun (r, k) ->
          st.Stats.hash_builds <- st.Stats.hash_builds + 1;
          (match filters with
          | Some fs -> Bloom.add fs.(p) k.Hkey.h
          | None -> ());
          match Htbl.find_opt table k with
          | Some bucket -> Htbl.replace table k (r :: bucket)
          | None -> Htbl.add table k [ r ])
        (List.rev rparts.(p)));
  merge_parts stats bparts;
  (* Skew accounting: the largest build partition bounds the parallel
     speedup of the whole join, so record max rows (per-operator via the
     sink) and the full per-partition distribution (metrics histogram). *)
  stats.Stats.partitions <- stats.Stats.partitions + nparts;
  Array.iter
    (fun l ->
      let rows = List.length l in
      if rows > stats.Stats.partition_max_rows then
        stats.Stats.partition_max_rows <- rows)
    rparts;
  if Obs.Metrics.enabled () then
    Array.iter
      (fun l -> Obs.Metrics.observe "par.partition_build_rows" (List.length l))
      rparts;
  let filter =
    Option.map
      (fun fs ->
        let global = Bloom.create nbuild in
        Array.iter (fun f -> Bloom.merge ~into:global f) fs;
        global)
      filters
  in
  { find = (fun k -> bucket_rows tables.(part nparts k.Hkey.h) k); filter }

(* Partition-parallel probe of one shared [table]: probe rows split on the
   precomputed key hash into morsels probed on workers, exactly as the
   serial operator would probe that key subset. [emit st l matches]
   produces the output rows for one probe row (matches arrive in
   build-input order, like a serial probe); results scatter back into
   probe-input order, so the concatenation is the serial output, dangling
   tuples included.

   The filter screens probe rows before partitioning: a pruned row emits
   its (empty-match) output immediately and never touches a partition
   list, a worker, or the scatter machinery. This is the
   sideways-information-passing pushdown — probe rows are filtered at the
   source, upstream of partitioning. *)
let par_probe ~jobs ~stats ~lkeyfn ~emit table lrows =
  let nparts = nparts_of jobs in
  let nl = List.length lrows in
  let out = Array.make nl [] in
  let lparts = Array.make nparts [] in
  List.iteri
    (fun i l ->
      let k = hkey (lkeyfn l) in
      let enqueue () =
        let p = part nparts k.Hkey.h in
        lparts.(p) <- (i, l, k) :: lparts.(p)
      in
      match table.filter with
      | None -> enqueue ()
      | Some f ->
        stats.Stats.bloom_checks <- stats.Stats.bloom_checks + 1;
        if Bloom.mem f k.Hkey.h then enqueue ()
        else begin
          stats.Stats.bloom_prunes <- stats.Stats.bloom_prunes + 1;
          stats.Stats.hash_probes <- stats.Stats.hash_probes + 1;
          out.(i) <- emit stats l []
        end)
    lrows;
  let pparts = Array.init nparts (fun _ -> Stats.create ()) in
  Pool.run ~jobs nparts (fun p ->
      let st = pparts.(p) in
      List.iter
        (fun (i, l, k) ->
          st.Stats.hash_probes <- st.Stats.hash_probes + 1;
          out.(i) <- emit st l (table.find k))
        lparts.(p));
  merge_parts stats pparts;
  List.concat (Array.to_list out)

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

let parallel fr nprobe = fr.jobs > 1 && nprobe >= join_min

(* Hash [rows] on [keyfn] into a build table, partitioned over the pool
   when [par]. Input order is preserved within buckets. *)
let hash_rows ~par fr keyfn rows =
  let stats = fr.sink in
  if par then par_build ~jobs:fr.jobs ~bloom:fr.bloom ~stats ~rkeyfn:keyfn rows
  else begin
    let table = Htbl.create 256 in
    let filter =
      if fr.bloom then Some (Bloom.create (List.length rows)) else None
    in
    List.iter
      (fun r ->
        stats.Stats.hash_builds <- stats.Stats.hash_builds + 1;
        let k = hkey (keyfn r) in
        Option.iter (fun f -> Bloom.add f k.Hkey.h) filter;
        match Htbl.find_opt table k with
        | Some bucket -> Htbl.replace table k (r :: bucket)
        | None -> Htbl.add table k [ r ])
      rows;
    { find = bucket_rows table; filter }
  end

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
      (* A cached build is never swapped: its table already exists. *)
      let swap, probe_b, probe_key, table =
        match P.cached_build plan with
        | Some _ ->
          ( false,
            lb,
            lkey,
            build_table fr catalog env plan ~nprobe:nl right rkey )
        | None ->
          let rb = batches_fr (c1 fr) catalog env right in
          let nr = Batch.live_total rb in
          let swap = nr > nl in
          if swap then
            stats.Stats.build_side_swaps <- stats.Stats.build_side_swaps + 1;
          let probe_b, build_b, probe_key, build_key =
            if swap then (rb, lb, rkey, lkey) else (lb, rb, lkey, rkey)
          in
          ( swap,
            probe_b,
            probe_key,
            hash_rows
              ~par:(parallel fr (if swap then nr else nl))
              fr
              (Compile.expr catalog build_key)
              (Batch.rows_of_batches build_b) )
      in
      let merged_of p m = if swap then Env.append p m else Env.append m p in
      let pkeyfn = Compile.expr catalog probe_key in
      let out_rows =
        if parallel fr (Batch.live_total probe_b) then
          let rokfn = residual_fn catalog residual in
          par_probe ~jobs:fr.jobs ~stats ~lkeyfn:pkeyfn
            ~emit:(fun st p matches ->
              List.filter_map
                (fun m ->
                  let merged = merged_of p m in
                  if rok_part st rokfn merged then Some merged else None)
                matches)
            table
            (Batch.rows_of_batches probe_b)
        else begin
          let rok = compile_residual ~stats catalog residual in
          let kern = Vexpr.compile catalog probe_key in
          let acc = ref [] in
          List.iter
            (fun b ->
              let keyv = key_col kern b in
              Batch.iter_live b (fun i ->
                  let kv = key_at keyv pkeyfn b i in
                  match probe ~stats table (hkey kv) with
                  | [] -> ()
                  | ms ->
                    (* Late materialization: the probe env is only built
                       once the Bloom screen and table lookup found
                       matches. *)
                    let p = Batch.env_at b i in
                    List.iter
                      (fun m ->
                        let merged = merged_of p m in
                        if rok merged then acc := merged :: !acc)
                      ms))
            probe_b;
          List.rev !acc
        end
      in
      Batches (Batch.of_rows ~size:fr.batch out_rows)
    | P.Hash_semijoin { lkey; rkey; residual; anti; left; right } ->
      let lkeyfn = Compile.expr catalog lkey in
      let lb = batches_fr (c0 fr) catalog env left in
      let nl = Batch.live_total lb in
      let table = build_table fr catalog env plan ~nprobe:nl right rkey in
      if parallel fr nl then begin
        (* Probe (batch, slot) pairs so the output keeps the serial shape
           — narrowed input batches — and the batch metrics stay
           jobs-invariant. *)
        let pairs =
          List.concat_map
            (fun b ->
              let acc = ref [] in
              Batch.iter_live b (fun i -> acc := (b, i) :: !acc);
              List.rev !acc)
            lb
        in
        let kept =
          par_probe ~jobs:fr.jobs ~stats
            ~lkeyfn:(fun (b, i) -> lkeyfn (Batch.env_at b i))
            ~emit:
              (let rokfn = residual_fn catalog residual in
               fun st (b, i) matches ->
                 let found =
                   match matches with
                   | [] -> false
                   | _ ->
                     let l = Batch.env_at b i in
                     List.exists
                       (fun r -> rok_part st rokfn (Env.append r l))
                       matches
                 in
                 if (if anti then not found else found) then [ (b, i) ]
                 else [])
            table pairs
        in
        (* [kept] preserves input order: split it back per source batch. *)
        let rem = ref kept in
        let out =
          List.filter_map
            (fun b ->
              let rec take acc = function
                | (b', i) :: tl when b' == b -> take (i :: acc) tl
                | tl -> (Array.of_list (List.rev acc), tl)
              in
              let sel, tl = take [] !rem in
              rem := tl;
              if Array.length sel = 0 then None else Some (Batch.narrow b sel))
            lb
        in
        Batches out
      end
      else begin
        let rok = compile_residual ~stats catalog residual in
        let kern = Vexpr.compile catalog lkey in
        let out =
          List.filter_map
            (fun b ->
              let keyv = key_col kern b in
              let acc = ref [] in
              Batch.iter_live b (fun i ->
                  let kv = key_at keyv lkeyfn b i in
                  let ms = probe ~stats table (hkey kv) in
                  let found =
                    match residual with
                    | None -> ms <> []
                    | Some _ ->
                      let l = Batch.env_at b i in
                      List.exists (fun r -> rok (Env.append r l)) ms
                  in
                  if (if anti then not found else found) then acc := i :: !acc);
              let sel = Array.of_list (List.rev !acc) in
              if Array.length sel = 0 then None else Some (Batch.narrow b sel))
            lb
        in
        Batches out
      end
    | P.Hash_outerjoin { lkey; rkey; residual; left; right } ->
      let lkeyfn = Compile.expr catalog lkey in
      let rvars = P.vars_of right in
      let lb = batches_fr (c0 fr) catalog env left in
      let nl = Batch.live_total lb in
      let table = build_table fr catalog env plan ~nprobe:nl right rkey in
      let out_rows =
        if parallel fr nl then
          par_probe ~jobs:fr.jobs ~stats ~lkeyfn
            ~emit:
              (let rokfn = residual_fn catalog residual in
               fun st l matches ->
                 let kept =
                   List.filter_map
                     (fun r ->
                       let merged = Env.append r l in
                       if rok_part st rokfn merged then Some merged else None)
                     matches
                 in
                 match kept with
                 | [] -> [ pad_nulls rvars l ]
                 | _ :: _ -> kept)
            table
            (Batch.rows_of_batches lb)
        else begin
          let rok = compile_residual ~stats catalog residual in
          let kern = Vexpr.compile catalog lkey in
          let acc = ref [] in
          List.iter
            (fun b ->
              let keyv = key_col kern b in
              Batch.iter_live b (fun i ->
                  let kv = key_at keyv lkeyfn b i in
                  let ms = probe ~stats table (hkey kv) in
                  let l = Batch.env_at b i in
                  let matches =
                    List.filter_map
                      (fun r ->
                        let merged = Env.append r l in
                        if rok merged then Some merged else None)
                      ms
                  in
                  match matches with
                  | [] -> acc := pad_nulls rvars l :: !acc
                  | _ :: _ ->
                    List.iter (fun m -> acc := m :: !acc) matches))
            lb;
          List.rev !acc
        end
      in
      Batches (Batch.of_rows ~size:fr.batch out_rows)
    | P.Hash_nestjoin { lkey; rkey; residual; func; label; left; right } ->
      let lkeyfn = Compile.expr catalog lkey in
      let funcfn = Compile.expr catalog func in
      let lb = batches_fr (c0 fr) catalog env left in
      let nl = Batch.live_total lb in
      let table = build_table fr catalog env plan ~nprobe:nl right rkey in
      let out_rows =
        if parallel fr nl then
          par_probe ~jobs:fr.jobs ~stats ~lkeyfn
            ~emit:
              (let rokfn = residual_fn catalog residual in
               fun st l matches ->
                 let members =
                   List.filter_map
                     (fun r ->
                       let merged = Env.append r l in
                       if rok_part st rokfn merged then Some (funcfn merged)
                       else None)
                     matches
                 in
                 [ Env.bind label (Value.set members) l ])
            table
            (Batch.rows_of_batches lb)
        else begin
          let rok = compile_residual ~stats catalog residual in
          let kern = Vexpr.compile catalog lkey in
          let acc = ref [] in
          List.iter
            (fun b ->
              let keyv = key_col kern b in
              Batch.iter_live b (fun i ->
                  let kv = key_at keyv lkeyfn b i in
                  let ms = probe ~stats table (hkey kv) in
                  let l = Batch.env_at b i in
                  let members =
                    List.filter_map
                      (fun r ->
                        let merged = Env.append r l in
                        if rok merged then Some (funcfn merged) else None)
                      ms
                  in
                  acc := Env.bind label (Value.set members) l :: !acc))
            lb;
          List.rev !acc
        end
      in
      Batches (Batch.of_rows ~size:fr.batch out_rows)
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
      let rok = compile_residual ~stats catalog residual in
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
      let rok = compile_residual ~stats catalog residual in
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
      let rok = compile_residual ~stats catalog residual in
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
      let rok = compile_residual ~stats catalog residual in
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
      let rok = compile_residual ~stats catalog residual in
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

(* [rok] below is the residual check compiled once per operator; [keyfn]
   likewise for key expressions. Hash/sort work counts on the operator that
   does it; the rows produced by the operand count on the operand's own
   frame. *)
and compile_residual ~stats catalog residual =
  match residual with
  | None -> fun _ -> true
  | Some pred ->
    let f = Compile.pred catalog pred in
    fun merged ->
      stats.Stats.predicate_evals <- stats.Stats.predicate_evals + 1;
      f merged

(* The build table of the right-build hash operator [plan] for [nprobe]
   probe rows. A cacheable build ([Physical.cached_build]) comes from the
   cache without running its scan or counting [hash_builds]; an empty
   probe side fetches nothing, so an unused entry stays cold. Any other
   build runs the right operand and hashes it. *)
and build_table fr catalog env plan ~nprobe right rkey =
  match P.cached_build plan with
  | Some _ when nprobe = 0 -> no_table
  | Some c -> cached_view ~bloom:fr.bloom catalog env c
  | None ->
    hash_rows ~par:(parallel fr nprobe) fr (Compile.expr catalog rkey)
      (rows_fr (c1 fr) catalog env right)

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

let frame ?node ~jobs ~bloom ~batch sink =
  let batch = max 1 (Option.value batch ~default:(default_batch ())) in
  { sink; node; jobs = clamp_jobs jobs; bloom; batch }

let rows ?(stats = no_stats) ?(jobs = 1) ?(bloom = true) ?batch catalog env
    plan =
  rows_fr (frame ~jobs ~bloom ~batch stats) catalog env plan

let rows_instrumented ?(jobs = 1) ?(bloom = true) ?batch node catalog env plan
    =
  rows_fr
    (frame ~node ~jobs ~bloom ~batch node.Stats.counters)
    catalog env plan

let run_under ?(stats = no_stats) ?(jobs = 1) ?(bloom = true) ?batch catalog
    env query =
  run_under_fr (frame ~jobs ~bloom ~batch stats) catalog env query

let run ?stats ?jobs ?bloom ?batch catalog query =
  run_under ?stats ?jobs ?bloom ?batch catalog Env.empty query

let run_instrumented ?(jobs = 1) ?(bloom = true) ?batch catalog query =
  let tree = Analyze.tree_of_query query in
  let v =
    run_under_fr
      (frame ~node:tree ~jobs ~bloom ~batch tree.Stats.counters)
      catalog Env.empty query
  in
  (v, tree)
