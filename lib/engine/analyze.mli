(** EXPLAIN ANALYZE support: a {!Stats.node} annotation tree that mirrors a
    physical plan, plus renderers.

    The tree is built before execution ({!tree_of_query}), filled in during
    an instrumented run ({!Exec.run_instrumented}), optionally annotated
    with cost-model estimates (see [Core.Cost.annotate]), and rendered as a
    Postgres-style text tree or JSON. *)

val children : Physical.t -> Physical.t list
(** Operands in instrumentation order — the order of
    [Stats.node.children]: unary operators expose [input]; binary ones
    [left; right], except that a hash operator with a cached build side
    ({!Physical.cached_build}) exposes only [left], since its scan never
    runs; [Apply_op] exposes [input] then the subquery plan. *)

val label : Physical.t -> string * string
(** [(op, detail)] display strings for one operator (not its operands). A
    cached build side shows in the detail as [build=cached T.f]. *)

val tree_of_plan : Physical.t -> Stats.node
val tree_of_query : Physical.query -> Stats.node
(** Fresh annotation tree with zeroed counters, shaped like the plan. *)

val pp : ?timing:bool -> Stats.node Fmt.t
(** Text tree, one operator per line:
    [op detail  (est=E actual=N loops=L time=T ...counters)].
    [~timing:false] omits the wall-clock field — output is then
    deterministic for a fixed catalog (used by the cram tests). *)

val to_string : ?timing:bool -> Stats.node -> string

val to_json : ?timing:bool -> Stats.node -> Json.t
(** Per-operator object with [op], [detail], [est_rows], [rows_out],
    [loops], [time_ns], the raw counters, and [children].
    [~timing:false] omits [time_ns] — like {!pp}, the document is then
    deterministic for a fixed catalog (used by the cram tests). *)
