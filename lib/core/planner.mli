(** Physical planning: implementation selection for logical operators.

    For every join-like node the planner tries to split the predicate into
    equi-key pairs ({!Kim.equi_split}); when it succeeds, hash- and
    sort-merge implementations compete with nested loops on {!Cost.cost},
    otherwise nested loops is the only legal choice. Per the paper's §6
    restriction, the hash nest join builds on the {b right} operand; the
    left-build streaming variant is selected only when the right key is a
    declared key of a right-side base table ([Table.key]). A hash candidate
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
