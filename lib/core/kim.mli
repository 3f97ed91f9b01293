(** Relational unnesting baselines: Kim's algorithm and the Ganski–Wong
    outerjoin fix — kept to demonstrate the COUNT bug (and its complex-object
    generalizations, e.g. the SUBSETEQ bug of §4) and to benchmark against
    the nest join.

    Both operate on the naive two-block pattern
    [Select (P) ∘ Apply (z = σ_Q(Y) via G) over X] produced by [Translate]:

    - {!kim} groups the inner operand first (ν over the join-key value) and
      then joins: [σ_P (X ⋈ ν(Y))]. Dangling [X]-rows — for which the
      original query binds [z = ∅] — are lost in the join: the transformation
      is {b deliberately incorrect} on them, reproducing Kim's bug.
    - {!ganski_wong} replaces the join with a left outerjoin followed by the
      NULL-aware nest ν*, which preserves dangling rows: [σ_P (ν*(X ⟗_Q Y))].
      This is also exactly the paper's §6 algebraic characterization of the
      nest join, [X Δ Y = ν*(X ⟗ Y)], so {!nestjoin_as_outerjoin} reuses it
      to rewrite arbitrary Nestjoin nodes for the equivalence tests.

    Kim's grouping step needs an equi-correlation (it groups [Y] by the
    join-key value); both functions return [Error] when the correlation
    predicate does not split into [e_x = e_y] conjuncts. *)

val kim : Algebra.Plan.query -> (Algebra.Plan.query, string) result
(** Kim's transformation (1): group the inner operand first, then join. *)

val kim_join_first : Algebra.Plan.query -> (Algebra.Plan.query, string) result
(** Kim's transformation (2) (the paper's §2): join first, then group by the
    outer tuple — [σ_P (ν_X (X ⋈_Q Y))], the GROUP BY … HAVING form. Equally
    {b wrong} on dangling tuples: they vanish in the join before grouping.
    (Only valid when the outer relation has no duplicates — trivially true
    here, relations are sets.) *)

val ganski_wong : Algebra.Plan.query -> (Algebra.Plan.query, string) result

val muralikrishna : Algebra.Plan.query -> (Algebra.Plan.query, string) result
(** The third relational fix the paper's §2 surveys (Muralikrishna, VLDB
    1992): keep Kim's group-first plan but add an {e antijoin predicate} for
    the dangling tuples — here expressed as the union of the matched branch
    [σ_P (X ⋈ ν(Y))] and the dangling branch [σ_{P[z := ∅]} (X ▷ ν(Y))].
    Correct on dangling rows, at the price of evaluating the grouped inner
    relation twice. Same applicability conditions as {!kim}. *)

val nestjoin_as_outerjoin : Algebra.Plan.plan -> Algebra.Plan.plan
(** Rewrite every [Nestjoin] node into [ν* ∘ Outerjoin] (§6). The rewritten
    plan computes the same rows — verified by the test suite. *)

val equi_split :
  left_vars:string list ->
  right_vars:string list ->
  Lang.Ast.expr ->
  ((Lang.Ast.expr * Lang.Ast.expr) list * Lang.Ast.expr list) option
(** Split a predicate into equi-conjunct pairs [(e_left, e_right)] — with
    [e_left] over the left variables and [e_right] over the right variables —
    plus residual conjuncts. [None] if no equi-conjunct exists. Shared with
    the physical planner. *)

val band_split :
  left_vars:string list ->
  right_vars:string list ->
  Lang.Ast.expr ->
  ((Lang.Ast.expr * Engine.Physical.cmp * Lang.Ast.expr) * Lang.Ast.expr list)
  option
(** The first conjunct [a op b] with [op] one of [<], [<=], [>], [>=], one
    operand reading only the left variables and the other only the right,
    as [(e_left, cmp, e_right)] with [e_left cmp e_right] equivalent to it
    under {!Cobj.Value.compare}, plus the other conjuncts in order. [None]
    if no conjunct is such a one-sided band. The planner asks it only of a
    predicate with no equi-conjunct. *)
