(** Phase-by-phase plan verification (the static-analysis half of the
    optimizer's soundness story).

    Every intermediate plan the pipeline produces — after translation, after
    each decorrelation / simplification / rewrite / reorder round, after the
    baseline transformations and after physical planning — can be checked
    against the structural invariants the rewrites are supposed to preserve:

    - every variable an operator expression references is bound by its
      operand schemas or by the ambient correlation environment, and the
      expression typechecks ({b unbound-var}, {b ill-typed});
    - predicates are boolean ({b predicate-not-boolean});
    - scans name catalog extensions ({b unknown-table});
    - binders introduced along a plan path are unique — no operand binds a
      variable its input already binds, and the two sides of a join bind
      disjoint variables ({b shadowed-binding}, {b duplicate-binding});
    - nest-join and nest labels are fresh with respect to the rows they
      extend ({b shadowed-label} — a shadowed label would silently overwrite
      a live attribute, the failure mode Theorem 1's grouped rewrites must
      avoid);
    - [Project] and [Nest.by]/[Nest.nulls] only reference variables the
      input binds ({b project-unbound}, {b nest-unbound});
    - [Unnest] operands are collections ({b unnest-not-collection});
    - [Union] operands bind the same variables at compatible types
      ({b union-mismatch});
    - [Apply] subquery free variables are bound by the outer plan
      ({b apply-free-vars});
    - independently of the rule walk, {!Algebra.Typing.schema_of} is
      re-run as a backstop — any residual disagreement surfaces as rule
      {b schema}.

    Physical plans are additionally checked for:

    - keyed join comparability — the two key expressions
      must have a common type under {!Cobj.Ctype.join} ({b hash-key-type},
      {b merge-key-type});
    - the paper's §6 build-side restriction: a left-build hash join (build
      on the left, stream the right) is only sound under a nest join, and
      only when the right key is a declared key of the scanned right
      operand ({b nestjoin-build-side}).

    Under a phase named ["shred"] or ["shred-plan"] a query must also stay
    in the flat fragment: no nest join, nest or apply ({b shred-flat}).

    There is one rule walk, over {!Engine.Physical.t}. A logical plan is
    checked as the nested-loop physical plan it denotes
    ({!Core.Planner.nested_loops}): the same operators, predicates and
    binders, so the same rules fire in the same order. Violations are
    reported with the phase that produced the plan, the specific rule, a
    detail message and the pretty-printed offending subplan — as logical
    text ({!Engine.Physical.to_logical}) in a logical phase. See
    [docs/VERIFIER.md] for the paper justification of each rule. *)

type violation = {
  phase : string;  (** pipeline phase that produced the offending plan *)
  rule : string;   (** rule identifier, e.g. ["unbound-var"] *)
  detail : string; (** human-readable explanation *)
  subplan : string;  (** pretty-printed offending subplan *)
}

val pp_violation : violation Fmt.t
val to_string : violation -> string

val check_plan :
  phase:string ->
  ?ambient:Algebra.Typing.schema ->
  Cobj.Catalog.t ->
  Algebra.Plan.plan ->
  (Algebra.Typing.schema, violation) result
(** Walk a logical plan, enforcing every structural invariant; returns the
    inferred schema. [ambient] types correlation variables available from
    an enclosing scope (empty for closed plans). {!Algebra.Typing} is then
    re-run as the {b schema} backstop. *)

val check_query :
  phase:string ->
  ?ambient:Algebra.Typing.schema ->
  Cobj.Catalog.t ->
  Algebra.Plan.query ->
  (unit, violation) result
(** {!check_plan} plus the result expression under the plan's schema. *)

val check_physical :
  phase:string ->
  ?ambient:Algebra.Typing.schema ->
  Cobj.Catalog.t ->
  Engine.Physical.t ->
  (Algebra.Typing.schema, violation) result

val check_physical_query :
  phase:string ->
  ?ambient:Algebra.Typing.schema ->
  Cobj.Catalog.t ->
  Engine.Physical.query ->
  (unit, violation) result

val verifier : Core.Pipeline.verifier
(** The hook implementation: dispatches on {!Core.Pipeline.phase_plan} and
    renders violations with {!to_string}. *)

val install : unit -> unit
(** Register {!verifier} with {!Core.Pipeline.set_verifier} so every
    [Pipeline.compile ~verify:true] (and, under dune, every compile at all —
    see {!Core.Pipeline.verify_default}) checks each phase. *)
