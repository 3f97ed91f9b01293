(** Executor for physical plans.

    Evaluation is oracle-faithful: for every physical plan [p] obtained from
    a logical plan [l], [rows] agrees with [Algebra.Sem.rows] on [l] up to
    row order (tests enforce this). Work counters are collected into an
    optional {!Stats.t}.

    {b Caveat} (§6 of the paper, exercised by the build-side bench): a
    nest join keyed by {!Physical.Hash_left} streams the right operand
    against a left-side build table and is only correct when the right key
    expression is unique on the right input. The planner never emits it;
    the verifier and the certifier reject it without that precondition.
    Run directly without it, it produces un-grouped (wrong) output, which
    is the point of the experiment. Any other join kind keyed by
    [Hash_left] raises [Invalid_argument]. *)

val rows :
  ?stats:Stats.t ->
  ?jobs:int ->
  ?gate:int ->
  ?bloom:bool ->
  ?batch:int ->
  Cobj.Catalog.t ->
  Cobj.Env.t ->
  Physical.t ->
  Cobj.Env.t list
(** Rows produced under an ambient environment (for correlation variables),
    in implementation order (not canonicalized).

    [jobs] (default 1) is the parallel width. With [jobs > 1], a keyed
    join (hash or sort-merge join, semijoin, antijoin, outerjoin, nest
    join, cached builds included) whose probe side has at least [gate]
    rows (default {!parallel_rows}) runs its one per-batch probe loop over
    contiguous slices of its probe batches — morsels — on {!Pool}, each
    with its own counters, merged back in slice order per source batch.
    Builds (and a sort-merge join's sorts) stay
    serial, into one shared table; below the gate, and for every other
    operator, nothing touches the pool. Rows, batch shapes and every
    counter are those of a serial run, and the first error is the one a
    serial run raises. Only [Stats.partitions] (morsels run) and
    [partition_max_rows] (largest morsel) depend on [jobs]. Correlated
    apply subplans always execute serially inside their apply loop
    (classified with {!Physical.query_free_vars}); values above
    [Pool.max_jobs] are clamped. [gate] exists so tests can reach the
    morsel path on small inputs.

    A hash operator whose build operand is a bare base-table scan keyed on
    a plain field ({!Physical.cached_build}) does not run that scan: it
    probes a hash table of the table's rows kept per (table, field) in a
    process-wide cache. The first use builds it, under a lock, so domains
    sharing a table build it once; the entry dies with its table. A cached
    build counts no [hash_builds], cold or warm, is never swapped, and an
    empty probe side leaves the cache untouched.

    [bloom] (default true) enables sideways information passing in the
    hash-join family: every build side populates a blocked Bloom filter on
    its keys (hashes computed once and shared with the hash table), and
    each probe key is screened against it first — a negative skips the
    hash lookup and the probe row's materialization. Output is
    byte-identical with bloom on or off, and so is every [Stats] counter
    except [bloom_checks]/[bloom_prunes] (a pruned probe still counts in
    [hash_probes]). The commutative inner hash join additionally builds on
    the smaller operand at runtime ([build_side_swaps]); the one-sided
    operators — semijoin, antijoin, outerjoin, nest join — never swap (§7:
    their left operand is preserved and must stay on the probe side).

    Every physical operator has exactly one implementation. Scan, filter,
    extend, project and the hash and sort-merge join families run on
    columnar batches: scans emit column batches, filters narrow selection
    vectors, and every keyed join runs one probe loop over its build side
    kept as columns chained by key, emitting gathers of probe and build
    columns (a nest join adds its label column to the probe batch). A
    hash join finds a key's chain through a hash table, a sort-merge join
    by searching the sorted build keys; the sort-merge family sorts its
    probe side stably on its key first (counting both sides' rows in
    [sorts]), so its rows come out in ascending key order, equal keys in
    input order. A band (a sort join on [<], [<=], [>] or [>=]) sorts
    only its build side and bisects it for each probe key's prefix or
    suffix, keeping the probe side's order; a band nest join whose
    function reads only the build side reads its groups off one walk
    over the sorted build. A pair binds the ambient environment, then the left
    row's own variables, then the right row's, each shadowing the one
    before. The other operators run row-at-a-time; their
    rows enter batches in one place, one column per {!Physical.vars_of}
    variable. Expression kernels ({!Vexpr}) cover the scalar, tuple,
    set-test and aggregate fragment, residuals and nest-join functions
    included, and a hash key that is a tuple of such expressions on both
    sides is evaluated component-wise and compared as the vector of its
    components in label order; anything else, and everything when
    [Compile.enabled] is false, evaluates through the {!Compile} closures
    in row order.

    [batch] (default {!default_batch}, i.e. [NESTQL_BATCH] or 1024) is
    the physical batch width; values below 1 are clamped to 1. Results,
    row order and every [Stats] counter are identical at every width. *)

val batches :
  ?stats:Stats.t ->
  ?jobs:int ->
  ?gate:int ->
  ?bloom:bool ->
  ?batch:int ->
  Cobj.Catalog.t ->
  Cobj.Env.t ->
  Physical.t ->
  Batch.t list
(** Like {!rows}, but the plan's output batches as they leave its root:
    columns over the ambient environment. *)

val batches_instrumented :
  ?jobs:int ->
  ?gate:int ->
  ?bloom:bool ->
  ?batch:int ->
  Stats.node ->
  Cobj.Catalog.t ->
  Cobj.Env.t ->
  Physical.t ->
  Batch.t list
(** Like {!batches}, but collecting per-operator counters, loop counts and
    wall-clock into a {!Stats.node} tree (built with
    [Analyze.tree_of_plan] so its shape matches the plan). Summing the tree
    ({!Stats.totals}) yields exactly what {!batches} would have put in a
    global [Stats.t] — under any [jobs]: per-morsel counter sets are merged
    back into the owning operator's node in slice order. *)

val run_instrumented :
  ?jobs:int ->
  ?gate:int ->
  ?bloom:bool ->
  ?batch:int ->
  Cobj.Catalog.t ->
  Physical.query ->
  Cobj.Value.t * Stats.node
(** Execute a closed physical query under a fresh annotation tree; returns
    the result value and the filled-in tree (est_rows still [nan] — the
    cost model lives upstream, see [Core.Cost.annotate]). *)

val run :
  ?stats:Stats.t ->
  ?jobs:int ->
  ?gate:int ->
  ?bloom:bool ->
  ?batch:int ->
  Cobj.Catalog.t ->
  Physical.query ->
  Cobj.Value.t
(** Set value of a closed physical query. *)

val run_under :
  ?stats:Stats.t ->
  ?jobs:int ->
  ?gate:int ->
  ?bloom:bool ->
  ?batch:int ->
  Cobj.Catalog.t ->
  Cobj.Env.t ->
  Physical.query ->
  Cobj.Value.t

val nest_batches :
  ?stats:Stats.t ->
  ?jobs:int ->
  ?gate:int ->
  ?bloom:bool ->
  ?batch:int ->
  Cobj.Catalog.t ->
  key:string list ->
  nulls:string list ->
  label:string ->
  func:Lang.Ast.expr ->
  Batch.t list ->
  Batch.t list ->
  Batch.t list
(** [nest_batches catalog ~key ~nulls ~label ~func members parents]: the
    shredded stitch as the nest join's probe. The [members] are hashed on
    their [key] columns (compared as the vector of their values in label
    order), leaving out, as ν* does, those [Null] on every one of a
    non-empty [nulls]; each live parent row then probes on its own [key] columns and
    gains [label], the set of [func] over its matching members, empty when
    none match. [func] sees a pair's bindings as every keyed join binds
    them, a member's columns shadowing the parent's. The build, the probes
    and their Bloom screens count into [stats] as a hash nest join's do;
    no [rows_out] is counted. *)

(** {2 Expressions over batches}

    Each compiles its expression once when partially applied; a kernel
    ({!Vexpr}) that is missing or raises falls back to the {!Compile}
    closure over the batch's rows in order, so values, counters and the
    first error are those of row-at-a-time evaluation. Fallbacks count in
    the [exec.batch.kernel_fallbacks] metric. *)

val kernel_column :
  Cobj.Catalog.t -> Lang.Ast.expr -> Batch.t -> Batch.col option
(** The kernel's column, or [None] for the caller's own row path. *)

val column : Cobj.Catalog.t -> Lang.Ast.expr -> Batch.t -> Batch.col
(** The expression's value at every live slot. *)

val select :
  ?stats:Stats.t -> Cobj.Catalog.t -> Lang.Ast.expr -> Batch.t -> int array
(** The live slots where the predicate holds ({!Compile.pred}'s reading),
    ascending; each evaluation counts in [predicate_evals]. *)

val values : Cobj.Catalog.t -> Lang.Ast.expr -> Batch.t list -> Cobj.Value.t list
(** The expression's value on every live row, in order. *)

val is_cached : Cobj.Table.t -> string -> bool
(** [is_cached t field]: whether the cached build side of [t] keyed on
    [field] exists already (the cost model prices a warm one at no build
    cost). See {!rows} for when the cache is used. *)

val parallel_rows : int
(** Default gate: the probe rows from which a keyed join under
    [jobs > 1] runs its probe as morsels. Below it a parallel region's
    worker start-up costs more than the probe work it would share. *)

val default_batch : unit -> int
(** Batch width default: [NESTQL_BATCH] when it parses as a positive
    integer, else 1024. *)
