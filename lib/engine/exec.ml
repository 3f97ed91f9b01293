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

(* A join key paired with its hash, computed exactly once per row and
   reused for the Bloom filter and the hash-table insert/probe
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

let no_stats = Stats.create ()

let pad_nulls rvars l =
  List.fold_left (fun acc v -> Env.bind v Value.Null acc) l rvars

(* A right row as a pair binds it: only its operand's own variables, so
   that a pair binds the tail, then the left row's own variables, then the
   right's, each shadowing the one before. *)
let own plan =
  let vars = P.vars_of plan in
  Env.project vars

(* All scalar expressions appearing in a physical query (preds, keys,
   residuals, functions, results — including nested applies). *)
let rec exprs_of_plan plan acc =
  match plan with
  | P.Unit_row | P.Scan _ -> acc
  | P.Filter { pred; input } -> exprs_of_plan input (pred :: acc)
  | P.Join { kind; how; left; right } ->
    let func = match kind with P.Nest { func; _ } -> [ func ] | _ -> [] in
    let own =
      match how with
      | P.Loop { pred } -> pred :: func
      | P.Keyed { lkey; rkey; residual; _ } ->
        lkey :: rkey :: func @ Option.to_list residual
    in
    exprs_of_plan left (exprs_of_plan right (own @ acc))
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
   calling domain; larger values let a keyed join whose probe side has
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

(* A batch whose expression fell back to the row closure. Recorded once
   per source batch, whatever the number of morsels it was cut into, so
   every [exec.batch.*] counter stays invariant under the domain count. *)
let note_fallback () =
  if Obs.Metrics.enabled () then Obs.Metrics.incr "exec.batch.kernel_fallbacks"

let kernel_failed = function
  | Value.Type_error _ | Interp.Undefined _ -> true
  | _ -> false

(* [e] over the live slots of a batch by its kernel, or [None], counted as
   a fallback, when the kernel is missing or raises. *)
let kernel_column catalog e =
  let kern = Vexpr.compile catalog e in
  fun b ->
    match kern with
    | Some k -> (
      match k b with
      | c -> Some c
      | exception e when kernel_failed e ->
        note_fallback ();
        None)
    | None ->
      note_fallback ();
      None

let column catalog e =
  let fn = Compile.expr catalog e in
  let kcol = kernel_column catalog e in
  fun b ->
    match kcol b with
    | Some c -> c
    | None ->
      let out = Array.make b.Batch.len Value.Null in
      Batch.iter_live b (fun i -> out.(i) <- fn (Batch.env_at b i));
      Batch.Boxed out

(* The row replay of [select], counting every evaluation. *)
let select_rows stats predfn b =
  note_fallback ();
  let acc = ref [] in
  Batch.iter_live b (fun i ->
      stats.Stats.predicate_evals <- stats.Stats.predicate_evals + 1;
      if predfn (Batch.env_at b i) then acc := i :: !acc);
  Array.of_list (List.rev !acc)

let select ?(stats = Stats.create ()) catalog pred =
  let predfn = Compile.pred catalog pred in
  let kern = Vexpr.compile catalog pred in
  fun b ->
    match kern with
    | Some k -> (
      match Vexpr.truth_sel k b with
      | sel ->
        stats.Stats.predicate_evals <-
          stats.Stats.predicate_evals + Batch.live b;
        sel
      | exception e when kernel_failed e -> select_rows stats predfn b)
    | None -> select_rows stats predfn b

let values catalog e =
  let col = column catalog e in
  fun batches ->
    let acc = ref [] in
    List.iter
      (fun b ->
        let c = col b in
        Batch.iter_live b (fun i -> acc := Batch.get c i :: !acc))
      batches;
    List.rev !acc

(* --- join keys ------------------------------------------------------- *)

(* A join key evaluator: [key b] reads the key of live slot [i] of batch
   [b] as [key b i] — from a kernel column when the kernel succeeds, else
   by evaluating the row's env. A kernel that raises is discarded before
   any slot is read, so the row-at-a-time replay reproduces row-order
   counters and first error exactly. *)
type keyer = Batch.t -> int -> Value.t

(* All of [kerns] applied to a batch, or [None] when one is missing or
   raises. *)
let kernel_cols kerns b =
  match kerns with
  | Some ks -> (
    match List.map (fun k -> k b) ks with
    | cols -> Some cols
    | exception e when kernel_failed e -> None)
  | None -> None

let kernels catalog es =
  let ks = List.map (Vexpr.compile catalog) es in
  if List.for_all Option.is_some ks then Some (List.map Option.get ks)
  else None

let plain_keyer catalog key : keyer =
  let fn = Compile.expr catalog key in
  let kerns = kernels catalog [ key ] in
  fun b ->
    match kernel_cols kerns b with
    | Some [ c ] -> Batch.get c
    | Some _ | None -> fun i -> fn (Batch.env_at b i)

(* A composite key [(l1 = e1, ..., ln = en)], which [Decorrelate] builds
   for IN and NOT IN, is compared as the vector of its components in label
   order ([Value.List]), not as a sorted [Value.Tuple]: each component
   runs its own kernel and no env is built. The row fallback evaluates the
   components in source order, as the tuple's own closure would. *)
let composite_keyer catalog fields : keyer =
  let sorted =
    List.mapi (fun j (l, e) -> (l, j, e)) fields
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  let order = List.map (fun (_, j, _) -> j) sorted in
  let fns =
    Array.of_list (List.map (fun (_, e) -> Compile.expr catalog e) fields)
  in
  let kerns = kernels catalog (List.map (fun (_, _, e) -> e) sorted) in
  fun b ->
    match kernel_cols kerns b with
    | Some cols -> fun i -> Value.List (List.map (fun c -> Batch.get c i) cols)
    | None ->
      fun i ->
        let env = Batch.env_at b i in
        let vals = Array.map (fun f -> f env) fns in
        Value.List (List.map (fun j -> vals.(j)) order)

(* A composite key's hash is the one [Value.hash] gives the tuple, so
   Bloom screens prune the same probes. *)
let composite_hash fields =
  let label_hashes =
    List.map Hashtbl.hash (List.sort String.compare (List.map fst fields))
  in
  function
  | Value.List vals ->
    List.fold_left2
      (fun acc lh v -> (acc * 31) + lh + Value.hash v)
      7 label_hashes vals
  | v -> Value.hash v

(* The probe and build keyers of one operator, and the hash both sides
   share. Both sides must agree on the representation, so component
   vectors are used only when both keys are tuples over the same distinct
   labels; a tuple with a repeated label keeps the row path, which raises
   on it. *)
let key_pair catalog lkey rkey =
  let labels fields = List.sort_uniq String.compare (List.map fst fields) in
  match lkey, rkey with
  | Ast.TupleE lf, Ast.TupleE rf
    when List.length (labels lf) = List.length lf
         && List.equal String.equal (labels lf) (labels rf) ->
    (composite_keyer catalog lf, composite_keyer catalog rf, composite_hash lf)
  | _ -> (plain_keyer catalog lkey, plain_keyer catalog rkey, Value.hash)

(* --- morsel-driven probes --------------------------------------------- *)

(* Probe rows from which a keyed join under [jobs > 1] runs its probe
   loop as morsels on the pool. Below it an operator never touches
   [Pool]: a region pays for spawning and joining its worker domains, so
   parallel probing loses to the serial loop on small inputs (see
   [bench/main.ml]'s parallel case). *)
let parallel_rows = 20_000

(* Morsels per domain: enough that an uneven slice does not leave a
   domain idle, few enough that per-morsel set-up stays negligible. *)
let morsels_per_domain = 4

(* Run an operator's one per-batch probe loop [loop st (b, x)] over its
   probe batches [b], each with what the loop needs beside it [x],
   returning each source batch's outcome; [loop] also says whether it fell
   back to the row replay. Serially the loop sees whole batches and counts
   into the operator's sink. From the frame's gate under [jobs > 1], each
   batch's selection is cut into contiguous slices, the morsels, each
   paired with its batch's [x]; they run on the pool with a private
   [Stats.t] each; outcomes ([concat]) and counters merge back in slice
   order per source batch, so outputs, batch shapes and every counter are
   those of a serial run. *)
let probe_batches fr items loop concat =
  let note (out, fell_back) =
    if fell_back then note_fallback ();
    out
  in
  let n = Batch.live_total (List.map fst items) in
  if fr.jobs <= 1 || n < fr.gate then
    List.map (fun item -> note (loop fr.sink item)) items
  else begin
    let per = morsels_per_domain * fr.jobs in
    let size = (n + per - 1) / per in
    let cuts =
      List.map
        (fun (b, x) -> List.map (fun m -> (m, x)) (Batch.slices ~size b))
        items
    in
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
          max stats.Stats.partition_max_rows (Batch.live (fst morsels.(i)))
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
      (fun cut ->
        let mine =
          List.map
            (fun _ ->
              let out = Option.get outs.(!next) in
              incr next;
              out)
            cut
        in
        note (concat (List.map fst mine), List.exists snd mine))
      cuts
  end

(* --- build tables ------------------------------------------------------ *)

(* How a build table finds a key's matches. [Hashed]: a hash table of
   chain heads, keyed with [hash], and a Bloom [filter] that, present only
   when the frame's [bloom] is on, screens keys before the lookup.
   [Sorted]: the build keys by row id, and the row ids in ascending key
   order, stably, searched by bisection for a key's equal run — no
   hashing, no filter, no [hash_probes]. [Band]: the same sort, searched
   for the range of positions whose keys a probe key compares to by
   [cmp], with [rank] the position of each row id. *)
type index =
  | Hashed of {
      head : int Htbl.t;
      hash : Value.t -> int;
      filter : Bloom.t option;
    }
  | Sorted of { keys : Value.t array; ids : int array }
  | Band of {
      keys : Value.t array;
      ids : int array;
      rank : int array;
      cmp : P.cmp;
    }

(* A keyed operator's build side: its rows as columns [cols], indexed by
   row id, and for each key the chain of its row ids in build order —
   [index] finds the first, [next] links each to the following one (-1
   ends a chain); a band's index finds a range of rows instead, and it
   has no chains. A key set, the build of a semijoin or antijoin without
   a residual, keeps no columns and no chains: only the index's keys
   count. A hashed table, a sorted one, a band and a cached build come
   out in this shape, so every probe loop is written once. *)
type table = {
  cols : (string * Batch.col) list;
  index : index;
  next : int array;
}

let no_table =
  {
    cols = [];
    index = Hashed { head = Htbl.create 1; hash = Value.hash; filter = None };
    next = [||];
  }

let chain_head head k =
  match Htbl.find head k with i -> i | exception Not_found -> -1

(* Link rows [n - 1] down to 0 under their [keys], so each chain runs in
   row order. *)
let link head next n key_of =
  for i = n - 1 downto 0 do
    match key_of i with
    | None -> ()
    | Some k ->
      if Array.length next > 0 then next.(i) <- chain_head head k;
      Htbl.replace head k i
  done

(* --- cached build sides ------------------------------------------------ *)

(* The build side of a [Physical.cached_build] operator, per (table,
   field): the table's rows as one array, chained by the field's value in
   table order, plus a Bloom filter over every key. Rows are bound to the
   query's own scan variable at probe time; rows lacking the field are in
   no chain. The cache is keyed on ephemerons, so an entry lives exactly
   as long as its table, and it is filled under one lock, so domains and
   sessions sharing a table build each entry once. *)
type cached = {
  rows : Value.t array;
  heads : int Htbl.t;
  links : int array;
  keys : Bloom.t;
}

module Cache = Ephemeron.K1.Make (struct
  type t = Cobj.Table.t

  let equal = ( == )
  let hash t = Hashtbl.hash (Cobj.Table.name t)
end)

let cache_lock = Mutex.create ()
let cache : (string * cached) list Cache.t = Cache.create 16

let build_cached t field =
  let rows = Array.of_list (Cobj.Table.rows t) in
  let n = Array.length rows in
  let heads = Htbl.create (max 16 n) in
  let links = Array.make n (-1) in
  let keys = Bloom.create n in
  link heads links n (fun i ->
      Option.map
        (fun v ->
          let k = hkey v in
          Bloom.add keys k.Hkey.h;
          k)
        (Value.field_opt field rows.(i)));
  { rows; heads; links; keys }

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

(* The cached build seen by one operator run: its rows as the column of
   the query's scan variable, exactly the rows the skipped scan would have
   produced. *)
let cached_view ~bloom catalog (table, var, field) =
  let c = cached_table (Cobj.Catalog.find_exn table catalog) field in
  {
    cols = [ (var, Batch.Boxed c.rows) ];
    index =
      Hashed
        {
          head = c.heads;
          hash = Value.hash;
          filter = (if bloom then Some c.keys else None);
        };
    next = c.links;
  }

(* The keys of the live rows of [batches], in order. *)
let keys_of (key : keyer) batches =
  let keys = Array.make (Batch.live_total batches) Value.Null in
  let j = ref 0 in
  List.iter
    (fun b ->
      let at = key b in
      Batch.iter_live b (fun i ->
          keys.(!j) <- at i;
          incr j))
    batches;
  keys

(* A build table's columns: with [names], the live rows' columns of those
   names, to be chained; without it none, the table being a key set. *)
let build_cols names batches =
  match names with
  | Some names -> Batch.concat_live names batches
  | None -> []

(* Hash the live rows of [batches] on [key] into a build table, serially;
   with [names], the rows' columns of those names are kept and chained,
   without it only the key set. *)
let hash_batches fr ?names ~hash (key : keyer) batches =
  let keys = keys_of key batches in
  let n = Array.length keys in
  fr.sink.Stats.hash_builds <- fr.sink.Stats.hash_builds + n;
  let filter = if fr.bloom then Some (Bloom.create n) else None in
  let head = Htbl.create (max 16 n) in
  let next = if Option.is_some names then Array.make n (-1) else [||] in
  link head next n (fun i ->
      let k = { Hkey.h = hash keys.(i); v = keys.(i) } in
      (match filter with Some f -> Bloom.add f k.Hkey.h | None -> ());
      Some k);
  {
    cols = build_cols names batches;
    index = Hashed { head; hash; filter };
    next;
  }

(* Row ids in ascending order of their [keys], equal keys in id order. *)
let sort_ids keys =
  let ids = Array.init (Array.length keys) Fun.id in
  Array.stable_sort (fun a b -> Value.compare keys.(a) keys.(b)) ids;
  ids

(* Sort the live rows of [batches] on [key] into a build table: their
   columns in input order, as a hashed table keeps them, with each run of
   equal keys chained in input order. *)
let sorted_table ?names (key : keyer) batches =
  let keys = keys_of key batches in
  let ids = sort_ids keys in
  let n = Array.length ids in
  let next = if Option.is_some names then Array.make n (-1) else [||] in
  if Array.length next > 0 then
    for p = 0 to n - 2 do
      if Value.equal keys.(ids.(p)) keys.(ids.(p + 1)) then
        next.(ids.(p)) <- ids.(p + 1)
    done;
  { cols = build_cols names batches; index = Sorted { keys; ids }; next }

(* Sort the live rows of [batches] on [key] into a band's build table,
   or, with [empty], make one with the same columns and no row: when
   either side is empty, no key is evaluated, as a nested loop over the
   same operands evaluates none. *)
let band_table ?names ~empty cmp (key : keyer) batches =
  let keys = if empty then [||] else keys_of key batches in
  let ids = sort_ids keys in
  let rank = Array.make (Array.length ids) 0 in
  Array.iteri (fun p id -> rank.(id) <- p) ids;
  {
    cols = build_cols names (if empty then [] else batches);
    index = Band { keys; ids; rank; cmp };
    next = [||];
  }

(* The live rows of [batches], columns [names], sorted on [key] as
   [sorted_table] sorts them, in batches of [size], each with the keyer
   that reads its rows' keys back from the sort: no key is evaluated
   twice. *)
let sorted_batches ~size names (key : keyer) batches =
  match batches with
  | [] -> []
  | b0 :: _ ->
    let keys = keys_of key batches in
    let ids = sort_ids keys in
    let cols = Batch.concat_live names batches in
    let n = Array.length ids in
    List.init ((n + size - 1) / size) (fun k ->
        let idx = Array.sub ids (k * size) (min size (n - (k * size))) in
        ( Batch.of_cols (Array.length idx)
            (List.map (fun (x, c) -> (x, Batch.gather c idx)) cols)
            b0.Batch.tail,
          fun _ i -> keys.(idx.(i)) ))

(* The sorted key at position [p] of [ids], compared with [v]. *)
let at_cmp keys ids p v = Value.compare keys.(ids.(p)) v

(* A probe key's matches in a build table, as one int, so that a probe
   allocates nothing: in a hashed or sorted table, the head row id of
   their chain (-1: none); in a band's, the build rows whose sorted
   positions lie in [lo, hi), encoded [lo * (n + 1) + hi] over its [n]
   rows. Both are visited in build (row id) order, the order a nested
   loop visits them. *)
type hit = int

(* A band's hit as its range [lo, hi). *)
let range ids h =
  let m = Array.length ids + 1 in
  (h / m, h mod m)

(* The first position of [ids] whose key is not below [v] or, [above],
   is above it. *)
let bisect keys ids ~above v =
  let lo = ref 0 and hi = ref (Array.length ids) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = at_cmp keys ids mid v in
    if c < 0 || (above && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

(* [v]'s matches. A hashed lookup counts the probe and its Bloom screen
   into [st]. A sorted one gallops from [cursor], the first position not
   below the previous probe's key, so a run of ascending probes walks the
   keys once; it bisects from the start when [v] lies below the cursor. A
   band bisects for the positions whose keys [k] satisfy [v cmp k]: a
   suffix for [<] and [<=], a prefix for [>] and [>=]. *)
let probe (st : Stats.t) table cursor v : hit =
  match table.index with
  | Band { keys; ids; cmp; _ } -> (
    let n = Array.length ids in
    let cut above = bisect keys ids ~above v in
    let range lo hi = (lo * (n + 1)) + hi in
    match cmp with
    | P.Lt -> range (cut true) n
    | P.Le -> range (cut false) n
    | P.Gt -> range 0 (cut false)
    | P.Ge -> range 0 (cut true)
    | P.Eq -> range (cut false) (cut true))
  | Sorted { keys; ids } ->
    let n = Array.length ids in
    let lo =
      ref
        (if !cursor > 0 && at_cmp keys ids (!cursor - 1) v >= 0 then 0
         else !cursor)
    in
    (* Every position below [lo] holds a key below [v]; gallop [hi] until
       it does not, then bisect [lo, hi). *)
    let hi = ref !lo and step = ref 1 in
    while !hi < n && at_cmp keys ids !hi v < 0 do
      lo := !hi + 1;
      hi := !hi + !step;
      step := 2 * !step
    done;
    hi := min n !hi;
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if at_cmp keys ids mid v < 0 then lo := mid + 1 else hi := mid
    done;
    cursor := !lo;
    if !lo < n && at_cmp keys ids !lo v = 0 then ids.(!lo) else -1
  | Hashed { head; hash; filter } -> (
    st.Stats.hash_probes <- st.Stats.hash_probes + 1;
    let k = { Hkey.h = hash v; v } in
    match filter with
    | Some f ->
      st.Stats.bloom_checks <- st.Stats.bloom_checks + 1;
      if Bloom.mem f k.Hkey.h then chain_head head k
      else begin
        st.Stats.bloom_prunes <- st.Stats.bloom_prunes + 1;
        -1
      end
    | None -> chain_head head k)

(* --- columnar probes -------------------------------------------------- *)

(* [n] plus the length of the chain from row id [r] on. *)
let rec chain_length next n r =
  if r < 0 then n else chain_length next (n + 1) next.(r)

(* The build rows of a band's hit, in row id order: the positions' ids
   sorted when the range is short, else one pass over every row's
   position. *)
let range_ids ids rank h =
  let lo, hi = range ids h in
  let k = hi - lo in
  if k <= 0 then [||]
  else if 8 * k < Array.length ids then begin
    let a = Array.sub ids lo k in
    Array.sort Int.compare a;
    a
  end
  else begin
    let a = Array.make k 0 and j = ref 0 in
    Array.iteri
      (fun r p ->
        if p >= lo && p < hi then begin
          a.(!j) <- r;
          incr j
        end)
      rank;
    a
  end

let hit_empty table h =
  match table.index with
  | Band { ids; _ } ->
    let lo, hi = range ids h in
    lo >= hi
  | Hashed _ | Sorted _ -> h < 0

let hit_count table h =
  match table.index with
  | Band { ids; _ } ->
    let lo, hi = range ids h in
    max 0 (hi - lo)
  | Hashed _ | Sorted _ -> chain_length table.next 0 h

let hit_iter table f h =
  match table.index with
  | Band { ids; rank; _ } -> Array.iter f (range_ids ids rank h)
  | Hashed _ | Sorted _ ->
    let rec go r =
      if r >= 0 then begin
        f r;
        go table.next.(r)
      end
    in
    go h

let hit_exists table f h =
  match table.index with
  | Band { ids; rank; _ } -> Array.exists f (range_ids ids rank h)
  | Hashed _ | Sorted _ ->
    let rec go r = r >= 0 && (f r || go table.next.(r)) in
    go h

module Vset = Set.Make (Value)

(* The groups of a band nest join whose [func] reads only build rows, for
   probe rows with the ranges [hits], or [None]. Each range is a prefix
   (or a suffix) of the build rows in key order, so one walk over them in
   that order, adding each row's [func] value to a set, reads every group
   off at its cut: [fn] runs once over the rows some range holds, a set is
   listed only at the cuts some probe row needs, and no pair is formed.
   [None] when two equal values the walk meets print differently (an
   [Int] and a [Float], [0.0] and [-0.0]): which of them [Value.set]
   keeps depends on the order of the members, so the caller builds those
   groups from their members in build order. *)
let band_groups table hits (fn : Batch.t -> Batch.col) ~keep tail =
  match table.index with
  | Band { ids; cmp = (P.Lt | P.Le | P.Gt | P.Ge) as cmp; _ } -> (
    let n = Array.length ids in
    let prefix = match cmp with P.Gt | P.Ge -> true | _ -> false in
    (* the rows the walk has added when it reaches each hit's cut *)
    let steps =
      Array.map
        (fun h ->
          let lo, hi = range ids h in
          if prefix then hi else n - lo)
        hits
    in
    let walked = Array.fold_left max 0 steps in
    let sets = Array.make (Array.length hits) (Value.Set []) in
    if walked = 0 then Some sets
    else
      let walk =
        Array.init walked (fun j -> if prefix then ids.(j) else ids.(n - 1 - j))
      in
      let cols =
        List.filter_map
          (fun (x, c) -> if keep x then Some (x, Batch.gather c walk) else None)
          table.cols
      in
      let col = fn (Batch.of_cols walked cols tail) in
      let order = Array.init (Array.length hits) Fun.id in
      Array.stable_sort (fun a b -> Int.compare steps.(a) steps.(b)) order;
      let exception Differ in
      let acc = ref Vset.empty and j = ref 0 in
      let last = ref 0 and group = ref (Value.Set []) in
      match
        Array.iter
          (fun u ->
            let s = steps.(u) in
            if s <> !last then begin
              while !j < s do
                let v = Batch.get col !j in
                (match Vset.find_opt v !acc with
                | Some w -> if not (Value.identical v w) then raise Differ
                | None -> acc := Vset.add v !acc);
                incr j
              done;
              group := Value.Set (Vset.elements !acc);
              last := s
            end;
            sets.(u) <- !group)
          order
      with
      | () -> Some sets
      | exception Differ -> None)
  | Band _ | Hashed _ | Sorted _ -> None

(* Growable int vectors for the selections and pairs a probe forms. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create ?(size = 64) () = { a = Array.make (max 1 size) 0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    Array.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let contents b = Array.sub b.a 0 b.n
end

(* One probe batch's outcome, before any output column exists. *)
type matched =
  | Pairs of { ps : int array; bs : int array }
      (** output row [j] pairs probe slot [ps.(j)] with build row [bs.(j)];
          -1 pads *)
  | Keep of int array  (** the surviving probe slots *)
  | Sets of Value.t array  (** the label of each live probe row, in order *)

let concat_matched = function
  | [ m ] -> m
  | Pairs _ :: _ as ms ->
    let part f = Array.concat (List.map f ms) in
    Pairs
      {
        ps = part (function Pairs p -> p.ps | _ -> assert false);
        bs = part (function Pairs p -> p.bs | _ -> assert false);
      }
  | Keep _ :: _ as ms ->
    Keep (Array.concat (List.map (function Keep k -> k | _ -> assert false) ms))
  | Sets _ :: _ as ms ->
    Sets (Array.concat (List.map (function Sets s -> s | _ -> assert false) ms))
  | [] -> Keep [||]

let distinct_cols cols =
  List.fold_left
    (fun acc ((x, _) as c) -> if List.mem_assoc x acc then acc else c :: acc)
    [] cols
  |> List.rev

(* The columns of the pairs probe batch [b] forms with [table], split by
   the side whose index reads them: the right operand's columns, then the
   left's that the right's do not bind. A pair binds the tail, then the
   left's own columns, then the right's, each shadowing the one before —
   the environment [Env.append right left] gives a pair whose right row
   is projected to the right operand's own variables. *)
let pair_cols ~swap (b : Batch.t) table =
  let right = distinct_cols (if swap then b.Batch.cols else table.cols) in
  let left =
    List.filter
      (fun (x, _) -> not (List.mem_assoc x right))
      (distinct_cols (if swap then table.cols else b.Batch.cols))
  in
  if swap then (right, left) else (left, right)

(* The pairs [(ps.(j), bs.(j))] as a batch of the columns [keep] admits. *)
let gather_pairs ?(keep = fun _ -> true) (b : Batch.t) (pcols, bcols) ps bs =
  let g idx cols =
    List.filter_map
      (fun (x, c) -> if keep x then Some (x, Batch.gather c idx) else None)
      cols
  in
  Batch.of_cols (Array.length ps) (g ps pcols @ g bs bcols) b.Batch.tail

(* A pair's environment, for the row replay. *)
let pair_env (b : Batch.t) (pcols, bcols) i r =
  let at j cols = List.map (fun (x, c) -> (x, Batch.get c j)) cols in
  Env.prepend (at i pcols @ at r bcols) b.Batch.tail

(* The probe loop of one keyed join over one probe batch [b] and its
   keyer: each live row's key probes [table], and [kind] decides what its
   matches make; [swap] says the probe side is the right operand.
   Residuals and the nest join's [func] run as kernels over one batch of
   candidate pairs, gathered with only the columns they read; a semijoin
   counts [predicate_evals] up to each probe row's first true match, as
   the row loop stops there. A band nest join whose [func] reads no probe
   column and that has no residual reads its groups off the sorted build
   ([band_groups]) instead. Counters go to a scratch [Stats.t], committed
   on success. A kernel that is missing, or an evaluation that raises,
   replays the batch row by row ([replay]), counting straight into [st],
   so counters and the first error are those of row order. Returns the
   outcome and whether it replayed. *)
let probe_batch catalog ~kind ~swap ~residual ~table =
  let outer = match kind with P.Outer -> true | _ -> false in
  let func = match kind with P.Nest { func; _ } -> Some func | _ -> None in
  let exprs = Option.to_list residual @ Option.to_list func in
  let pred_k = Option.map (Vexpr.compile catalog) residual in
  let func_k = Option.map (Vexpr.compile catalog) func in
  let predfn = Option.map (Compile.pred catalog) residual in
  let funcfn = Option.map (Compile.expr catalog) func in
  let kernels_exist =
    List.for_all Option.is_some (Option.to_list pred_k @ Option.to_list func_k)
  in
  let need =
    List.fold_left (fun s e -> Sset.union s (Ast.free_vars e)) Sset.empty exprs
  in
  let keep x = Sset.mem x need in
  fun (st : Stats.t) ((b : Batch.t), (key : keyer)) ->
    let at = key b in
    let cols = pair_cols ~swap b table in
    (* The residual of one pair, evaluated on its environment. *)
    let ok_in (st : Stats.t) i r =
      match predfn with
      | None -> true
      | Some f ->
        st.Stats.predicate_evals <- st.Stats.predicate_evals + 1;
        f (pair_env b cols i r)
    in
    let replay () =
      let cursor = ref 0 in
      let ok = ok_in st in
      let ps = Ibuf.create () and bs = Ibuf.create () in
      let sets = ref [] in
      Batch.iter_live b (fun i ->
          let h = probe st table cursor (at i) in
          match kind with
          | P.Semi { anti } ->
            let found =
              if Option.is_none residual then not (hit_empty table h)
              else hit_exists table (ok i) h
            in
            if found <> anti then Ibuf.push ps i
          | P.Inner | P.Outer ->
            let before = ps.Ibuf.n in
            hit_iter table
              (fun r ->
                if ok i r then begin
                  Ibuf.push ps i;
                  Ibuf.push bs r
                end)
              h;
            if outer && ps.Ibuf.n = before then begin
              Ibuf.push ps i;
              Ibuf.push bs (-1)
            end
          | P.Nest _ ->
            let members = ref [] in
            hit_iter table
              (fun r ->
                if ok i r then
                  members :=
                    Option.get funcfn (pair_env b cols i r) :: !members)
              h;
            sets := Value.set (List.rev !members) :: !sets);
      match kind with
      | P.Semi _ -> Keep (Ibuf.contents ps)
      | P.Inner | P.Outer ->
        Pairs { ps = Ibuf.contents ps; bs = Ibuf.contents bs }
      | P.Nest _ -> Sets (Array.of_list (List.rev !sets))
    in
    (* [truth ps bs]: which pairs pass the residual (all, without one). *)
    let truth ps bs =
      match pred_k with
      | Some (Some k) when Array.length ps > 0 ->
        Vexpr.truth k (gather_pairs ~keep b cols ps bs)
      | _ -> Bytes.make (Array.length ps) '\001'
    in
    let fast () =
      let loc = Stats.create () in
      let slots = Batch.live_slots b in
      let cursor = ref 0 in
      let hits = Array.map (fun i -> probe loc table cursor (at i)) slots in
      let band = match table.index with Band _ -> true | _ -> false in
      (* The candidate pairs, counted first so that each array is made
         once, at its size, then what [kind] makes of those that pass. *)
      let paired () =
        let n =
          Array.fold_left (fun n h -> n + hit_count table h) 0 hits
        in
        let ps = Array.make n 0 and bs = Array.make n 0 in
        let j = ref 0 in
        Array.iteri
          (fun u i ->
            if band then
              hit_iter table
                (fun r ->
                  ps.(!j) <- i;
                  bs.(!j) <- r;
                  incr j)
                hits.(u)
            else begin
              let r = ref hits.(u) in
              while !r >= 0 do
                ps.(!j) <- i;
                bs.(!j) <- !r;
                incr j;
                r := table.next.(!r)
              done
            end)
          slots;
        let pass = truth ps bs in
        let passes j = Bytes.unsafe_get pass j <> '\000' in
        (* [f u lo hi]: live row [u] and its candidates' range. *)
        let groups f =
          let j = ref 0 in
          Array.iteri
            (fun u i ->
              let lo = !j in
              while !j < n && ps.(!j) = i do
                incr j
              done;
              f u lo !j)
            slots
        in
        (* A semijoin counts the evaluations the row loop makes, up to
           each probe row's first true match; the others count all. *)
        (match kind with
        | P.Semi _ -> ()
        | P.Inner | P.Outer | P.Nest _ ->
          if Option.is_some residual then
            loc.Stats.predicate_evals <- loc.Stats.predicate_evals + n);
        match kind with
        | P.Semi { anti } ->
          let kept = Ibuf.create () in
          groups (fun u lo hi ->
              let j = ref lo in
              while !j < hi && not (passes !j) do
                incr j
              done;
              loc.Stats.predicate_evals <-
                loc.Stats.predicate_evals + min hi (!j + 1) - lo;
              if (!j < hi) <> anti then Ibuf.push kept slots.(u));
          Keep (Ibuf.contents kept)
        | P.Nest _ ->
          (* [func] over the passing pairs, read at their pair index *)
          let live = Ibuf.create ~size:n () in
          for j = 0 to n - 1 do
            if passes j then Ibuf.push live j
          done;
          let col =
            if live.Ibuf.n = 0 then Batch.Const Value.Null
            else
              let c = gather_pairs ~keep b cols ps bs in
              Option.get (Option.get func_k)
                (if live.Ibuf.n = n then c
                 else Batch.narrow c (Ibuf.contents live))
          in
          let sets = Array.make (Array.length slots) (Value.Set []) in
          groups (fun u lo hi ->
              let members = ref [] in
              for j = hi - 1 downto lo do
                if passes j then members := Batch.get col j :: !members
              done;
              sets.(u) <- Value.set !members);
          Sets sets
        | P.Inner | P.Outer ->
          let ops = Ibuf.create () and obs = Ibuf.create () in
          groups (fun u lo hi ->
              let before = ops.Ibuf.n in
              for j = lo to hi - 1 do
                if passes j then begin
                  Ibuf.push ops ps.(j);
                  Ibuf.push obs bs.(j)
                end
              done;
              if outer && ops.Ibuf.n = before then begin
                Ibuf.push ops slots.(u);
                Ibuf.push obs (-1)
              end);
          Pairs { ps = Ibuf.contents ops; bs = Ibuf.contents obs }
      in
      let out =
        match kind, residual, func_k with
        | P.Semi { anti }, None, _ ->
          let kept = Ibuf.create () in
          Array.iteri
            (fun u i ->
              if hit_empty table hits.(u) = anti then Ibuf.push kept i)
            slots;
          Keep (Ibuf.contents kept)
        | P.Semi { anti }, Some _, _ when band ->
          (* A band's ranges are long and a semijoin needs only each
             range's first match, so it searches them row by row, as the
             nested loop does, rather than evaluate every candidate. *)
          let kept = Ibuf.create () in
          Array.iteri
            (fun u i ->
              if hit_exists table (ok_in loc i) hits.(u) <> anti then
                Ibuf.push kept i)
            slots;
          Keep (Ibuf.contents kept)
        | P.Nest _, None, Some (Some fn)
          when not (List.exists (fun (x, _) -> keep x) b.Batch.cols) -> (
          match band_groups table hits fn ~keep b.Batch.tail with
          | Some sets -> Sets sets
          | None -> paired ())
        | _ -> paired ()
      in
      Stats.add ~into:st loc;
      out
    in
    if not kernels_exist then (replay (), true)
    else
      match fast () with
      | m -> (m, false)
      | exception e when kernel_failed e -> (replay (), true)

(* Output batches of a keyed join from its probe batches' outcomes:
   gathers of at most the frame's width for [Pairs], a narrowing for
   [Keep], and the probe batch plus the label column for [Sets]. *)
let emit fr ~kind ~swap ~table probe_b outcomes =
  List.concat
    (List.map2
       (fun (b : Batch.t) m ->
         match m, kind with
         | _ when Batch.live b = 0 -> []
         | Keep [||], _ -> []
         | Keep sel, _ -> [ Batch.narrow b sel ]
         | Sets sets, P.Nest { label; _ } ->
           let col = Array.make b.Batch.len Value.Null in
           let k = ref 0 in
           Batch.iter_live b (fun i ->
               col.(i) <- sets.(!k);
               incr k);
           [ Batch.add_col b label (Batch.Boxed col) ]
         | Pairs { ps; bs }, _ ->
           let pcols, bcols = pair_cols ~swap b table in
           let n = Array.length ps in
           let size = max 1 fr.batch in
           List.init ((n + size - 1) / size) (fun k ->
               let lo = k * size in
               let len = min size (n - lo) in
               let ps = if len = n then ps else Array.sub ps lo len in
               let bs = if len = n then bs else Array.sub bs lo len in
               let g gather idx cols =
                 List.map (fun (x, c) -> (x, gather c idx)) cols
               in
               Batch.of_cols len
                 (g Batch.gather ps pcols @ g Batch.gather_padded bs bcols)
                 b.Batch.tail)
         | Sets _, _ -> assert false)
       probe_b outcomes)

(* A keyed join's probe of [table] over its probe batches, each with its
   keyer. *)
let keyed_probe fr catalog ~kind ?(swap = false) ~residual ~table probe =
  probe_batches fr probe
    (probe_batch catalog ~kind ~swap ~residual ~table)
    concat_matched
  |> emit fr ~kind ~swap ~table (List.map fst probe)

(* What an operator's one implementation produces: the columnar operators
   (scan, filter, extend, project and the joins by hash or sort) emit
   batches, every other operator emits rows, which enter batches in
   [batches_fr] alone. *)
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
  | Rows rows -> Batch.of_rows ~size:fr.batch (P.vars_of plan) env rows

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

(* One arm per operator, and for a join one per method — the nested loop
   or the keyed probe loop by hash or sort: the single implementation of
   each [(kind, how)] pair. Output rows (in order) and
   every [Stats] counter are identical at any [jobs] and any batch width.
   Columnar expression kernels that miss or raise fall back to the
   row-compiled closures, replayed in row order; with [Compile] disabled
   every expression takes that path. *)
and exec fr catalog env plan =
  let stats = fr.sink in
  let out =
    match plan with
    | P.Scan { table; var } ->
      let t = Cobj.Catalog.find_exn table catalog in
      Batches (Batch.of_values ~size:fr.batch var env (Cobj.Table.rows t))
    | P.Filter { pred; input } ->
      let sel = select ~stats catalog pred in
      Batches
        (List.filter_map
           (fun b ->
             match sel b with
             | [||] -> None
             | s -> Some (Batch.narrow b s))
           (batches_fr (c0 fr) catalog env input))
    | P.Extend_op { var; expr; input } ->
      let col = column catalog expr in
      Batches
        (List.map
           (fun b -> Batch.add_col b var (col b))
           (batches_fr (c0 fr) catalog env input))
    | P.Project_op { vars; input } ->
      (* The tail is shared by every row, so rows order and compare as the
         vectors of their projected values in label order, as
         [Env.compare] orders the projected rows over the tail. *)
      let names = List.sort_uniq String.compare vars in
      let inb = batches_fr (c0 fr) catalog env input in
      let acc = ref [] in
      List.iter
        (fun b ->
          Batch.iter_live b (fun i ->
              let row = List.map (fun x -> Batch.value b x i) names in
              acc := Value.List row :: !acc))
        inb;
      Batches
        (Batch.of_tuples ~size:fr.batch names env
           (List.sort_uniq Value.compare (List.rev !acc)))
    | P.Join
        { kind; how = P.Keyed { by; lkey; rkey; residual }; left; right } ->
      keyed_join fr catalog env plan ~by ~kind ~lkey ~rkey ~residual left right
    | P.Unit_row -> Rows [ env ]
    | P.Join { kind; how = P.Loop { pred }; left; right } ->
      let predfn = Compile.pred catalog pred in
      let rrows = List.map (own right) (rows_fr (c1 fr) catalog env right) in
      let semi = match kind with P.Semi _ -> true | _ -> false in
      (* The pairs of [l] that pass, each mapped by [f] as it is found, in
         right-row order; a semijoin stops at the first. *)
      let matches f l =
        let rec go acc = function
          | [] -> List.rev acc
          | r :: rest ->
            stats.Stats.predicate_evals <- stats.Stats.predicate_evals + 1;
            let merged = Env.append r l in
            if not (predfn merged) then go acc rest
            else if semi then [ f merged ]
            else go (f merged :: acc) rest
        in
        go [] rrows
      in
      let lrows = rows_fr (c0 fr) catalog env left in
      Rows
        (match kind with
        | P.Inner -> List.concat_map (matches Fun.id) lrows
        | P.Semi { anti } ->
          List.filter
            (fun l -> (match matches Fun.id l with [] -> anti | _ -> not anti))
            lrows
        | P.Outer ->
          let rvars = P.vars_of right in
          List.concat_map
            (fun l ->
              match matches Fun.id l with
              | [] -> [ pad_nulls rvars l ]
              | ms -> ms)
            lrows
        | P.Nest { func; label } ->
          let funcfn = Compile.expr catalog func in
          List.map
            (fun l -> Env.bind label (Value.set (matches funcfn l)) l)
            lrows)
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
        Sset.inter (P.query_free_vars subquery)
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

(* The build table of the right-build hash join [plan] for [nprobe]
   probe rows. A cacheable build ([Physical.cached_build]) comes from the
   cache without running its scan or counting [hash_builds]; an empty
   probe side fetches nothing, so an unused entry stays cold. Any other
   build runs the right operand and hashes it on [key]. *)
and build_table fr catalog env plan ~nprobe ~names ~hash right key =
  match P.cached_build plan with
  | Some _ when nprobe = 0 -> no_table
  | Some c -> cached_view ~bloom:fr.bloom catalog c
  | None ->
    hash_batches fr ?names ~hash key (batches_fr (c1 fr) catalog env right)

(* A keyed join by hash or sort: [left] probes a table of [right] for
   [kind]. Hashed, the probe side stays in its input order; an inner join
   that does not probe a cached build builds on its smaller operand,
   probing with the other ([swap]). Sorted on equal keys, both sides are
   sorted on their keys, stably, each counting its rows in [sorts] and
   evaluating its keys once, as soon as it has run: output rows come out
   in ascending key order, equal keys in input order, as a sort-merge join
   emits them. A band sorts only the right side, counting it in [sorts],
   and keeps the left in its input order; when either side is empty it
   sorts nothing and evaluates no key. *)
and keyed_join fr catalog env plan ~by ~kind ~lkey ~rkey ~residual left right
    =
  let stats = fr.sink in
  let lkeyer, rkeyer, hash = key_pair catalog lkey rkey in
  let names =
    match kind, residual with
    | P.Semi _, None -> None
    | _ -> Some (P.vars_of right)
  in
  let lb = batches_fr (c0 fr) catalog env left in
  let nl = Batch.live_total lb in
  let keyed key bs = List.map (fun b -> (b, key)) bs in
  let swap, probe, table =
    match by, kind, P.cached_build plan with
    | P.Sort P.Eq, _, _ ->
      stats.Stats.sorts <- stats.Stats.sorts + nl;
      let probe = sorted_batches ~size:fr.batch (P.vars_of left) lkeyer lb in
      let rb = batches_fr (c1 fr) catalog env right in
      stats.Stats.sorts <- stats.Stats.sorts + Batch.live_total rb;
      (false, probe, sorted_table ?names rkeyer rb)
    | P.Sort cmp, _, _ ->
      let rb = batches_fr (c1 fr) catalog env right in
      let nr = Batch.live_total rb in
      let empty = nl = 0 || nr = 0 in
      if not empty then stats.Stats.sorts <- stats.Stats.sorts + nr;
      ( false,
        keyed (if empty then fun _ _ -> Value.Null else lkeyer) lb,
        band_table ?names ~empty cmp rkeyer rb )
    | P.Hash, P.Inner, None ->
      let rb = batches_fr (c1 fr) catalog env right in
      let swap = Batch.live_total rb > nl in
      if swap then
        stats.Stats.build_side_swaps <- stats.Stats.build_side_swaps + 1;
      let probe_b, build_b, probe_key, build_key, build_plan =
        if swap then (rb, lb, rkeyer, lkeyer, left)
        else (lb, rb, lkeyer, rkeyer, right)
      in
      ( swap,
        keyed probe_key probe_b,
        hash_batches fr ~names:(P.vars_of build_plan) ~hash build_key build_b
      )
    | P.Hash, _, _ ->
      ( false,
        keyed lkeyer lb,
        build_table fr catalog env plan ~nprobe:nl ~names ~hash right rkeyer )
  in
  Batches (keyed_probe fr catalog ~kind ~swap ~residual ~table probe)

(* The result expression runs as a kernel over the plan's batches once the
   plan has run, with the row replay per batch on a miss or a raise. *)
and run_under_fr fr catalog env { P.plan; result } =
  Value.set (values catalog result (batches_fr fr catalog env plan))

let clamp_jobs jobs = max 1 (min jobs Pool.max_jobs)

let frame ?node ?(gate = parallel_rows) ~jobs ~bloom ~batch sink =
  let batch = max 1 (Option.value batch ~default:(default_batch ())) in
  { sink; node; jobs = clamp_jobs jobs; gate = max 1 gate; bloom; batch }

let rows ?(stats = no_stats) ?(jobs = 1) ?gate ?(bloom = true) ?batch catalog
    env plan =
  rows_fr (frame ~jobs ?gate ~bloom ~batch stats) catalog env plan

let batches ?(stats = no_stats) ?(jobs = 1) ?gate ?(bloom = true) ?batch
    catalog env plan =
  batches_fr (frame ~jobs ?gate ~bloom ~batch stats) catalog env plan

let batches_instrumented ?(jobs = 1) ?gate ?(bloom = true) ?batch node catalog
    env plan =
  batches_fr
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

let nest_batches ?(stats = no_stats) ?(jobs = 1) ?gate ?(bloom = true) ?batch
    catalog ~key ~nulls ~label ~func members parents =
  let fr = frame ~jobs ?gate ~bloom ~batch stats in
  let k = Ast.TupleE (List.map (fun x -> (x, Ast.Var x)) key) in
  let pkey, mkey, hash = key_pair catalog k k in
  let contributes m i =
    List.exists
      (fun v -> match Batch.value m v i with Value.Null -> false | _ -> true)
      nulls
  in
  let members =
    if nulls = [] then members
    else
      List.map
        (fun m ->
          let kept = Ibuf.create () in
          Batch.iter_live m (fun i -> if contributes m i then Ibuf.push kept i);
          Batch.narrow m (Ibuf.contents kept))
        members
  in
  (* The member columns [func] reads: no other build column is ever
     gathered. *)
  let names =
    match members with
    | m :: _ ->
      let used = Ast.free_vars func in
      List.filter (fun x -> Sset.mem x used) (List.map fst m.Batch.cols)
    | [] -> []
  in
  let table = hash_batches fr ~names ~hash mkey members in
  keyed_probe fr catalog ~kind:(P.Nest { func; label }) ~residual:None ~table
    (List.map (fun b -> (b, pkey)) parents)
