(** Query shredding: the flat-relational backend.

    A decorrelated nested query is compiled into a bounded set of {e flat}
    algebra queries — no [Nestjoin], [Nest] or [Apply] operators — plus a
    stitching recipe reassembling the flat result tables into the same
    nested [Cobj.Value] the nest-join backend produces (after Cheney,
    Lindley & Wadler, arXiv:1404.7078, adapted to the paper's algebra).

    Nesting constructors become {!child} entries: the child's rows are
    grouped by the parent's [key] columns and every parent row is extended
    with [label := {func m | m in its group}]; a key with no group is the
    {e empty set}, so the rows the Kim COUNT bug loses survive by
    construction. Expressions that mention stitched labels are deferred to
    {!step}s applied after stitching.

    Plans outside the supported fragment (residual correlated [Apply],
    nesting under [Union]/[Outerjoin], nest-join heads over the outer
    side's stitched columns) are reported by {!of_query}; the pipeline
    then falls back to nest-join execution. *)

type step =
  | Bind of string * Lang.Ast.expr   (** extend each row: v := e *)
  | Keep of Lang.Ast.expr            (** keep rows satisfying the predicate *)
  | Unfold of string * Lang.Ast.expr
      (** per element x of e, emit row + v := x *)

type node = {
  plan : Algebra.Plan.plan;  (** flat: no Nestjoin / Nest / Apply *)
  children : child list;
  post : step list;
}

and child = {
  label : string;
  key : string list;    (** parent flat columns forming the group key *)
  nulls : string list;
      (** ν*: members all-[Null] on these columns contribute nothing *)
  func : Lang.Ast.expr; (** member expression over stitched body rows *)
  body : node;
}

type program = { body : node; result : Lang.Ast.expr }

val of_query : Algebra.Plan.query -> (program, string) result
(** Shred a (decorrelated) logical query. [Error reason] means the plan is
    outside the supported flat fragment. *)

val flat_count : program -> int
(** Number of flat queries — bounded by the plan size, independent of the
    data. *)

val flat_queries : program -> Algebra.Plan.query list
(** The flat queries in execution (preorder) order, each given a synthetic
    identity head (the tuple of its columns) so the plan verifier can
    check it like any logical query. *)

val pp_program : program Fmt.t

(** {1 Planning and execution} *)

type executable

val plan : ?options:Planner.options -> Cobj.Catalog.t -> program -> executable
(** Physical-plan every flat query with the ordinary planner. *)

val physical_queries : executable -> Engine.Physical.query list
(** Physical counterparts of {!flat_queries}, for phase verification. *)

val executable_flat_count : executable -> int

val program_of : executable -> program
(** The logical program the executable was planned from. *)

val run_under :
  ?stats:Engine.Stats.t ->
  ?jobs:int ->
  ?bloom:bool ->
  ?batch:int ->
  Cobj.Catalog.t ->
  Cobj.Env.t ->
  executable ->
  Cobj.Value.t
(** Execute every flat query ([jobs]/[bloom]/[batch] apply to each), stitch, and build the result set — the exact value
    [Exec.run_under] produces for the nest-join plan of the same query. *)

val run :
  ?stats:Engine.Stats.t ->
  ?jobs:int ->
  ?bloom:bool ->
  ?batch:int ->
  Cobj.Catalog.t ->
  executable ->
  Cobj.Value.t

val analyze :
  ?jobs:int ->
  ?bloom:bool ->
  ?batch:int ->
  Cobj.Catalog.t ->
  executable ->
  Cobj.Value.t * Engine.Stats.node
(** Instrumented run for EXPLAIN ANALYZE: the annotation tree has a
    synthetic [stitch] root whose children are the cost-annotated
    per-flat-query operator trees in execution order. *)
