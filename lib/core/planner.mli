(** Physical planning: implementation selection for logical operators.

    Every logical join — join, semijoin, antijoin, outerjoin, nest join —
    becomes one {!Engine.Physical.Join} of the matching kind. The planner
    splits its predicate into equi-key pairs once ({!Kim.equi_split}); when
    that succeeds, the hash and sort-merge methods compete with the nested
    loop on {!Cost.cost}, otherwise the nested loop is the only legal
    choice. Only the commutative inner join also tries the hash join with
    its operands swapped. Per the paper's §6 restriction, the hash nest join
    builds on the {b right} operand; the left-build streaming variant is a
    candidate only when the right key is a declared key of a right-side
    base table ([Table.key]). A hash candidate
    whose right operand is a bare base-table scan keyed on a plain field
    probes a cached build ({!Engine.Physical.cached_build}), which
    {!Cost.cost} prices at one table pass when cold and nothing when warm.

    Uncorrelated Apply subqueries are always memoized (they are constants of
    the ambient environment); correlated ones keep naive re-evaluation unless
    [memo_applies] is set (ablation E6). *)

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
