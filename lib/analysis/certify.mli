(** Per-step rewrite certification — translation validation for the
    optimizer.

    Where {!Verify} checks structural invariants of each phase's {e output},
    the certifier checks the phase's {e work}: while an optimizer phase runs
    under [Pipeline.compile ~certify:true], every applied rewrite is
    recorded as a [(rule, before, after)] step ({!Core.Steps}), and each
    rule's proof obligation is discharged against the recorded pair:

    - {b select-fuse} / {b select-merge-into-join} /
      {b select-pushdown-join} / {b select-pushdown-left} — conjunct-set
      preservation (nothing dropped, nothing invented) plus the one-sidedness
      conditions that make the pushdown legal;
    - {b select-true-elim} — the eliminated predicate provably simplifies to
      [true] (re-running {!Core.Simplify.expr});
    - {b dead-nestjoin-elim} / {b unit-elim} — the result is exactly the
      surviving operand and only the advertised binding disappears;
    - {b sink-below-join} (§6 join reorder) — the sunk operator is the
      original one re-rooted over one join operand, its expressions read
      only that operand, and a nest-join label stays fresh;
    - {b apply-to-semijoin} / {b apply-to-antijoin} — the COUNT-bug safety
      proof, upgraded from the lint heuristic to a property-backed
      obligation: {!Core.Classify.classify} must yield the ∃ / ¬∃ verdict
      that justifies the flattening (rule {b count-bug-safety} on failure);
    - {b apply-to-nestjoin} / {b unnest-apply-to-join} — binding
      discipline of the grouping and collapsing forms.

    On top of the steps, whole-phase obligations compare the phase's input
    and output queries: result-type preservation ({b phase-type}), no new
    free variables ({b phase-free-vars}), and intersection of the
    {!Props}-inferred cardinality bounds ({b phase-bounds}).

    Physical plans are certified against inferred properties: the §6
    build-side restriction for a left-build hash nest join is discharged by
    {!Props.key_of} — a {e proven} key of the whole right operand, strictly
    generalizing the verifier's declared-scan-key check
    ({b nestjoin-build-side}).

    Violations carry the phase, the rule, the step index within the phase
    (when a specific step is at fault) and the offending subplan. *)

type violation = {
  phase : string;  (** pipeline phase whose rewrites were certified *)
  rule : string;   (** rewrite rule or obligation name *)
  step : int option;
      (** 0-based index into the phase's recorded steps; [None] for
          whole-phase and physical obligations *)
  detail : string;
  subplan : string;
}

val pp_violation : violation Fmt.t
val to_string : violation -> string

val check_steps :
  phase:string ->
  Cobj.Catalog.t ->
  Core.Steps.step list ->
  (unit, violation) result
(** Discharge each step's per-rule obligation, in order; the first failure
    reports its step index. *)

val check_logical :
  phase:string ->
  Cobj.Catalog.t ->
  before:Algebra.Plan.query ->
  after:Algebra.Plan.query ->
  Core.Steps.step list ->
  (unit, violation) result
(** {!check_steps} plus the whole-phase obligations. *)

val check_physical_query :
  phase:string ->
  Cobj.Catalog.t ->
  Engine.Physical.query ->
  (unit, violation) result

val certifier : Core.Pipeline.certifier
(** The hook implementation: dispatches on {!Core.Pipeline.cert_target} and
    renders violations with {!to_string}. *)

val install : unit -> unit
(** Register {!certifier} with {!Core.Pipeline.set_certifier}, the
    {!Props.annotate}-based EXPLAIN ANALYZE annotator with
    {!Core.Pipeline.set_annotator} (which arms the actual-vs-proven
    cardinality cross-check), and {!Props.key_of} as the cost model's
    proven-key oracle ({!Core.Cost.set_key_hint}). *)
