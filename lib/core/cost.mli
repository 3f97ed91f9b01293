(** Cardinality estimation and a simple cost model.

    Deliberately coarse — its only job is to rank physical alternatives
    (nested-loop vs hash vs sort-merge or band vs memoized apply, and the
    build orientation of commutative hash joins), and the benches validate
    the ranking empirically. Estimates come from one-pass catalog statistics
    ({!Cobj.Stats}): row counts, NDV-based equi-join selectivity
    (1/max(ndv)), containment-based semijoin/antijoin match fractions
    (min(1, ndv_r/ndv_l)) and measured average set cardinalities for
    unnest. Keys that don't resolve to a base-table attribute fall back to
    fixed constants. Hash costs weight the build side heavier than the
    probe side, so the cheaper orientation of a commutative inner hash
    join builds on the (estimated) smaller operand. *)

val set_key_hint :
  (Cobj.Catalog.t -> Engine.Physical.t -> Lang.Ast.expr -> bool) option ->
  unit
(** Register a proven-key oracle: [f catalog operand key] answers whether
    [key] covers a proven candidate key of [operand]'s output. When
    statistics cannot resolve a join key's NDV, a proven key makes the
    estimate exact (ndv = operand cardinality) instead of the fallback
    constants. Registered by [Analysis.Certify.install] with
    [Analysis.Props.key_of]; the hook keeps [core] → [analysis]
    dependency-free. *)

val card : Cobj.Catalog.t -> Algebra.Plan.plan -> float
(** Estimated output cardinality of a logical plan. *)

val cost : Cobj.Catalog.t -> Engine.Physical.t -> float
(** Estimated total work of a physical plan (rows touched). *)

val card_physical : Cobj.Catalog.t -> Engine.Physical.t -> float
(** Estimated output cardinality of a physical operator — the "est" column
    of EXPLAIN ANALYZE. *)

val annotate : Cobj.Catalog.t -> Engine.Physical.t -> Engine.Stats.node -> unit
(** Fill [est_rows] over a whole annotation tree (shape from
    [Engine.Analyze.tree_of_plan]) so instrumented runs can report
    estimated vs. actual cardinality per operator. *)

val query_cost : Cobj.Catalog.t -> Engine.Physical.query -> float
val query_card : Cobj.Catalog.t -> Engine.Physical.query -> float
(** Estimated result cardinality. *)

val explain : Cobj.Catalog.t -> Engine.Physical.t -> string
(** One-line account of where the root operator's estimate comes from,
    naming the resolved {!Cobj.Stats} inputs (["ndv(Y.b)=13"],
    ["rows(X)=40"]) or the fallback constant used when a key didn't
    resolve. Feeds the misestimation report ({!Misest}). *)
