(** Plan-property inference: a bottom-up abstract interpretation over
    physical plans; a logical plan is analysed as the nested-loop physical
    plan it denotes.

    For every plan node the analysis infers a conservative summary of the
    rows it can produce:

    - {b candidate keys} — sets of paths (["x"] for a whole row variable,
      ["x.f"] for a field) whose values are distinct across output rows;
      seeded from the duplicate-free table extensions (the whole row) and
      verified declared keys ({!Cobj.Table.key}), and propagated through
      joins (a unique build side preserves the probe side's keys),
      nest joins, grouping and projection;
    - {b null-free} / {b non-empty} paths — proven from the exact one-pass
      catalog statistics ([null_frac = 0], [empty_frac = 0]; tables are
      immutable, so these are facts, not estimates) and propagated (an
      outer join's right-hand paths lose null-freeness, a nest-join label
      is always bound to a set);
    - {b duplicate-freeness} of whole rows;
    - {b \[lo, hi\] output-cardinality bounds} per invocation — exact for
      scans ([\[n, n\]]) and row-preserving operators (nest join, extend,
      apply), interval arithmetic elsewhere, with unique-key join caps
      ([hi(A ⋈ B) = hi(A)] when the join key covers a candidate key
      of [B]).

    All facts are {e proofs} relative to the catalog: the certifier
    ({!Certify}) uses them to discharge rewrite obligations, the cost model
    consumes proven keys for exact join cardinalities
    ({!Core.Cost.set_key_hint}), and EXPLAIN ANALYZE cross-checks actual
    row counts against the bounds ({!Core.Pipeline.set_annotator}). *)

type bounds = { lo : float; hi : float }

type t = {
  keys : Lang.Ast.String_set.t list;
      (** candidate keys: each element is a set of paths whose combination
          is unique across output rows *)
  null_free : Lang.Ast.String_set.t;  (** paths proven never [Null] *)
  non_empty : Lang.Ast.String_set.t;
      (** collection-valued paths proven never empty (and never [Null]) *)
  distinct : bool;  (** output rows are duplicate-free *)
  bounds : bounds;  (** proven per-invocation output-cardinality interval *)
}

val top : t
(** No facts: the lattice top ([\[0, ∞\]], no keys). Sound for any node. *)

val join : t -> t -> t
(** Least upper bound — keeps only facts valid in both (interval hull). *)

val meet : t -> t -> t
(** Greatest lower bound — combines facts (interval intersection). *)

val compatible : t -> t -> bool
(** The two bound intervals intersect — necessary for two plans to have a
    common true cardinality (the certifier's phase obligation). *)

val of_physical : Cobj.Catalog.t -> Engine.Physical.t -> t
(** The analysis proper. A join's equi-key pairs are an equi-keyed
    method's key pair, or a nested loop's or a band's predicate split by
    {!Core.Kim.equi_split}, so a join proves the same facts whatever its
    method. *)

val of_plan : Cobj.Catalog.t -> Algebra.Plan.plan -> t
(** {!of_physical} of the nested-loop plan the logical plan denotes
    ({!Core.Planner.nested_loops_plan}). *)

val paths_of_key_expr : Lang.Ast.expr -> string list option
(** The paths a key expression denotes ([Var v] → ["v"],
    [Field (Var v, f)] → ["v.f"], tuples componentwise); [None] when a
    component is computed. *)

val key_of : Cobj.Catalog.t -> Engine.Physical.t -> Lang.Ast.expr -> bool
(** [key_of catalog plan e] — does [e] cover a proven candidate key of
    [plan]'s output? A declared key of a scan survives, e.g., a filter or
    projection over it. {!Core.Cost} uses it as its proven-key hint. *)

val key_strings : t -> string list
(** Candidate keys rendered ["p1,p2"], for EXPLAIN ANALYZE annotations. *)

val pp : t Fmt.t
val to_json : t -> Engine.Json.t

val annotate : Cobj.Catalog.t -> Engine.Physical.t -> Engine.Stats.node -> unit
(** Stamp {!Engine.Stats.node.bounds} and [keys] over an EXPLAIN ANALYZE
    tree (operand order of {!Engine.Analyze.children}, like
    [Core.Cost.annotate]). *)
