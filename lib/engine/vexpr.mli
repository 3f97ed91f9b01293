(** Vectorized expression kernels over {!Batch} columns.

    [compile] covers the scalar / comparison / arithmetic / set-test /
    tuple / aggregate fragment of [Lang.Ast]; anything else yields [None]
    and callers fall back to the row-compiled closure.  On the live rows of a batch a kernel
    computes exactly the values — and raises exactly the exceptions —
    the corresponding {!Compile} closure would, though cross-row
    evaluation order may differ; callers catch kernel exceptions and
    replay row-at-a-time to reproduce row-order evaluation's first error
    and counter state. *)

type kernel = Batch.t -> Batch.col
(** Evaluates over the live slots of a batch; dead slots of the result
    are unspecified. *)

val compile : Cobj.Catalog.t -> Lang.Ast.expr -> kernel option
(** [None] when [e] falls outside the vectorizable fragment, and for
    every expression while [Compile.enabled] is false (interpreted
    mode). *)

val truth : kernel -> Batch.t -> Bytes.t
(** The kernel's result under [Value.as_bool] as one byte per physical
    slot: ['\000'] for false and for dead slots. May share the kernel's
    column; do not mutate. *)

val truth_sel : kernel -> Batch.t -> int array
(** Live physical indices (ascending) where the kernel's result is
    true under [Value.as_bool] — the vectorized [Compile.pred]. *)
