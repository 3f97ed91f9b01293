(** Executor for physical plans.

    Evaluation is oracle-faithful: for every physical plan [p] obtained from
    a logical plan [l], [rows] agrees with [Algebra.Sem.rows] on [l] up to
    row order (tests enforce this). Work counters are collected into an
    optional {!Stats.t}.

    {b Caveat} (§6 of the paper, exercised by the build-side bench):
    [Hash_nestjoin_left] streams the right operand against a left-side build
    table and is only correct when the right key expression is unique on the
    right input — the planner enforces this; calling it directly without the
    precondition produces un-grouped (wrong) output, which is the point of
    the experiment. *)

val rows :
  ?stats:Stats.t ->
  ?jobs:int ->
  ?bloom:bool ->
  ?batch:int ->
  Cobj.Catalog.t ->
  Cobj.Env.t ->
  Physical.t ->
  Cobj.Env.t list
(** Rows produced under an ambient environment (for correlation variables),
    in implementation order (not canonicalized).

    [jobs] (default 1) is the partition-parallel width. With [jobs > 1],
    the hash-based joins (join, semijoin, antijoin, outerjoin, nest join)
    hash-partition both operands on the join key and run per-partition
    joins on worker domains; every other operator runs on the calling
    domain. Results come
    back in serial row order and every counter lands on the same operator
    it would serially, so output and statistics are identical for every
    [jobs] value. Correlated apply subplans always execute serially inside
    their apply loop (classified with {!query_free_vars}); values above
    [Pool.max_jobs] are clamped.

    A hash operator whose build operand is a bare base-table scan keyed on
    a plain field ({!Physical.cached_build}) does not run that scan: it
    probes a hash table of the table's rows kept per (table, field) in a
    process-wide cache. The first use builds it, under a lock, so domains
    sharing a table build it once; the entry dies with its table. A cached
    build counts no [hash_builds], cold or warm, is never swapped, and an
    empty probe side leaves the cache untouched. Under [jobs > 1] only the
    probe side is partitioned, over the one shared table.

    [bloom] (default true) enables sideways information passing in the
    hash-join family: every build side populates a blocked Bloom filter on
    its keys (hashes computed once and shared with the partition index and
    the hash table), and each probe key is screened against it first — a
    negative skips the hash lookup, and in the parallel path a pruned row
    never reaches the partition/scatter machinery at all (the filter is
    applied at the probe source, upstream of partitioning). Output is
    byte-identical with bloom on or off, and so is every [Stats] counter
    except [bloom_checks]/[bloom_prunes] (a pruned probe still counts in
    [hash_probes]). The commutative [Hash_join] additionally builds on the
    smaller operand at runtime ([build_side_swaps]); the one-sided
    operators — semijoin, antijoin, outerjoin, nest join — never swap (§7:
    their left operand is preserved and must stay on the probe side).

    Every physical operator has exactly one implementation. Scan, filter,
    extend, project and the hash-join family run on columnar batches:
    scans emit column batches, filters narrow selection vectors, and the
    hash joins probe per batch with late materialization. The other
    operators run row-at-a-time, with batches built or flattened where
    the two meet. Expression kernels ({!Vexpr}) cover the scalar
    fragment; anything else, and everything when [Compile.enabled] is
    false, evaluates through the {!Compile} closures in row order.

    [batch] (default {!default_batch}, i.e. [NESTQL_BATCH] or 1024) is
    the physical batch width; values below 1 are clamped to 1. Results,
    row order and every [Stats] counter are identical at every width. *)

val rows_instrumented :
  ?jobs:int ->
  ?bloom:bool ->
  ?batch:int ->
  Stats.node ->
  Cobj.Catalog.t ->
  Cobj.Env.t ->
  Physical.t ->
  Cobj.Env.t list
(** Like {!rows}, but collecting per-operator counters, loop counts and
    wall-clock into a {!Stats.node} tree (built with
    [Analyze.tree_of_plan] so its shape matches the plan). Summing the tree
    ({!Stats.totals}) yields exactly what {!rows} would have put in a
    global [Stats.t] — under any [jobs]: per-domain counter sets are merged
    back into the owning operator's node in deterministic partition
    order. *)

val run_instrumented :
  ?jobs:int ->
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
  ?bloom:bool ->
  ?batch:int ->
  Cobj.Catalog.t ->
  Physical.query ->
  Cobj.Value.t
(** Set value of a closed physical query. *)

val run_under :
  ?stats:Stats.t ->
  ?jobs:int ->
  ?bloom:bool ->
  ?batch:int ->
  Cobj.Catalog.t ->
  Cobj.Env.t ->
  Physical.query ->
  Cobj.Value.t

val is_cached : Cobj.Table.t -> string -> bool
(** [is_cached t field]: whether the cached build side of [t] keyed on
    [field] exists already (the cost model prices a warm one at no build
    cost). See {!rows} for when the cache is used. *)

val query_free_vars : Physical.query -> Lang.Ast.String_set.t
(** Correlation variables a physical query needs from its enclosing scope
    (used for apply memoization). *)

val default_batch : unit -> int
(** Batch width default: [NESTQL_BATCH] when it parses as a positive
    integer, else 1024. *)
