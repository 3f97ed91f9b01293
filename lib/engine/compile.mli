(** Expression compilation: turn a scalar expression into a closure.

    The reference interpreter re-traverses the AST for every row; the
    executor instead compiles each operator's expressions once when the
    operator starts producing rows, so per-row work is only the value
    computation. Semantics are identical to {!Lang.Interp} by construction
    (each case defers to the same value primitives) and by test
    ([test/test_compile.ml] checks agreement on random expressions and
    environments).

    Inline SFW blocks (non-hoistable subqueries) fall back to the
    interpreter — they re-enter nested-loop evaluation anyway.

    {!enabled} is the ablation switch for the [expr-compile] bench: when
    false, {!expr} and {!pred} degrade to interpreter calls. *)

val enabled : bool ref
(** Default [true]. *)

val expr : Cobj.Catalog.t -> Lang.Ast.expr -> Cobj.Env.t -> Cobj.Value.t
(** [expr catalog e] compiles [e]; apply the result to row environments.
    Partial application performs the compilation. *)

val pred : Cobj.Catalog.t -> Lang.Ast.expr -> Cobj.Env.t -> bool
(** Predicate variant with the partial-aggregate reading of
    {!Lang.Interp.truth} (an undefined aggregate is false). *)

val set_test_of : Lang.Ast.binop -> Cobj.Value.t -> Cobj.Value.t -> bool
(** The test behind [IN] ([Mem]) and the set comparisons ([SUBSET],
    [SUBSETEQ], [SUPSET], [SUPSETEQ]), shared with {!Vexpr}'s kernels.
    Raises [Invalid_argument] on any other operator. *)
