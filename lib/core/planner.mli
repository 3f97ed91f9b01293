(** Physical planning: implementation selection for logical operators.

    Every logical join — join, semijoin, antijoin, outerjoin, nest join —
    becomes one {!Engine.Physical.Join} of the matching kind. The planner
    splits its predicate into equi-key pairs once ({!Kim.equi_split}); when
    that succeeds, the hash and sort-merge methods compete with the nested
    loop on {!Cost.cost}. A predicate with no equi pair but a one-sided
    inequality between the operands ({!Kim.band_split}) offers the band of
    the sort family ([Sort Lt|Le|Gt|Ge]) against the loop, which
    [Force_merge] forces and [Force_hash] cannot take; otherwise the
    nested loop is the only legal choice. Only the commutative inner join
    also tries the hash join with its operands swapped. Every hash join
    builds on its {b right} operand, which keeps a nest join's output
    grouped by left rows (§6). A hash candidate whose right operand is a
    bare base-table scan keyed on a plain field probes a cached build
    ({!Engine.Physical.cached_build}), which {!Cost.cost} prices at one
    table pass when cold and nothing when warm.

    Uncorrelated Apply subqueries are always memoized (they are constants of
    the ambient environment); correlated ones keep naive re-evaluation unless
    [memo_applies] is set (ablation E6).

    {!nested_loops} embeds a logical plan into physical form: the planner
    under [Force_nl], which makes every join a nested loop over the
    logical predicate. The analyses check and analyse a logical plan as
    that physical plan, and {!Engine.Physical.to_logical} inverts it. *)

type impl_force =
  | Auto            (** cost-based choice *)
  | Force_nl
  | Force_hash
  | Force_merge

type options = {
  force : impl_force;
  memo_applies : bool;  (** memoize correlated applies too *)
}

val default_options : options

val plan :
  ?options:options -> Cobj.Catalog.t -> Algebra.Plan.plan -> Engine.Physical.t

val query :
  ?options:options ->
  Cobj.Catalog.t ->
  Algebra.Plan.query ->
  Engine.Physical.query

val nested_loops : Algebra.Plan.query -> Engine.Physical.query
(** The plan under [Force_nl] without [memo_applies]; reads no catalog.
    [Engine.Physical.to_logical_query (nested_loops q) = q]. *)

val nested_loops_plan : Algebra.Plan.plan -> Engine.Physical.t
(** {!nested_loops} of a plan. *)
