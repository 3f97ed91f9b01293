(** End-to-end query processing: parse → typecheck → translate → optimize →
    plan → execute, with selectable strategies for the benches and the CLI.

    Strategies:
    - [Interp] — the reference interpreter (pure nested-loop semantics, no
      algebra at all);
    - [Naive] — translate to the algebra, keep Apply nodes, execute (the
      algebraic image of nested-loop processing);
    - [Decorrelated] — the paper's approach: Apply removal into semijoin /
      antijoin / nest join, logical rewrites, cost-based physical planning;
    - [Decorrelated_outerjoin] — like [Decorrelated] but nest joins are
      executed as ν* ∘ outerjoin (the relational encoding of §6; for the
      equivalence benches);
    - [Kim_baseline] — Kim's algorithm ({b intentionally exhibits the COUNT
      bug} on dangling tuples; falls back to [Naive] when inapplicable);
    - [Ganski_wong] — outerjoin + ν* fix (falls back likewise);
    - [Muralikrishna] — group-first plan with an antijoin predicate for the
      dangling tuples, expressed as a union of a matched and a dangling
      branch (falls back likewise);
    - [Shredded] — query shredding ({!Shred}): the decorrelated plan is
      flattened into a bounded set of flat queries (no nest join, no Apply)
      whose results are stitched back into the nested value by group keys;
      plans outside the flat fragment fall back to nest-join execution. *)

type strategy =
  | Interp
  | Naive
  | Decorrelated
  | Decorrelated_outerjoin
  | Kim_baseline
  | Ganski_wong
  | Muralikrishna
  | Shredded

val strategy_name : strategy -> string
val all_strategies : strategy list

type compiled = {
  source : Lang.Ast.expr;        (** resolved input expression *)
  logical : Algebra.Plan.query option;  (** [None] for [Interp] *)
  physical : Engine.Physical.query option;
  shredded : Shred.executable option;
      (** [Shredded] only, and only when the decorrelated plan fits the
          flat fragment; [None] there means nest-join fallback (counted by
          the [shred.fallbacks] metric) *)
  strategy : strategy;
}

(** {1 Phase verification}

    Every optimizer phase (logical rewrites and physical planning) can be
    checked by a registered verifier: after each phase the intermediate plan
    is handed to the hook together with the phase name, and a verification
    failure aborts compilation with the hook's message. The checker itself
    lives in the [analysis] library ([Analysis.Verify.install] registers
    it); [core] only defines the hook so the dependency stays one-way. *)

type phase_plan =
  | Logical of Algebra.Plan.query
  | Physical of Engine.Physical.query

type verifier =
  phase:string -> Cobj.Catalog.t -> phase_plan -> (unit, string) result
(** Phase names: ["translate"], ["decorrelate"], ["simplify"], ["rewrite"],
    ["reorder"] (per fixpoint round), ["nestjoin-as-outerjoin"], the
    baseline strategy names (["kim"], ["ganski-wong"], ["muralikrishna"]),
    ["shred"] (once per flat query of a shredded program, [Logical]), and
    ["plan"] / ["shred-plan"] (the [Physical] phases). Under the
    ["shred"]-prefixed phases the verifier additionally rejects any
    nesting operator — the flat fragment must stay flat. *)

val set_verifier : verifier option -> unit
(** Register (or clear) the global verification hook. *)

val verify_default : unit -> bool
(** Default for [?verify]: [NESTQL_VERIFY] when set ([0]/[false]/[no]/[off]
    disable, anything else enables), else on exactly when running under
    dune ([INSIDE_DUNE] — so [dune runtest] and the cram suite verify every
    phase by default). *)

(** {1 Per-step certification (translation validation)}

    Beyond phase-output verification, each optimizer phase can be
    {e certified}: while the phase runs, every applied rewrite is recorded
    as a [(rule, before, after)] step ({!Steps}), and the registered
    certifier discharges per-rule proof obligations over the steps plus
    whole-phase obligations over the before/after queries. Like the
    verifier, the certifier lives in [analysis]
    ([Analysis.Certify.install]) and [core] only defines the hook. *)

type cert_target = {
  before : Algebra.Plan.query;  (** phase input *)
  after : Algebra.Plan.query;   (** phase output *)
  steps : Steps.step list;      (** rewrites applied, in order *)
}

type certifier =
  phase:string -> Cobj.Catalog.t -> cert_target -> (unit, string) result
(** Certified phases: ["decorrelate"], ["simplify"], ["rewrite"],
    ["reorder"] (per fixpoint round) and ["nestjoin-as-outerjoin"]. The
    intentionally COUNT-buggy baselines (kim / ganski-wong /
    muralikrishna) are verified but not certified. A certification failure aborts compilation with the
    hook's message. *)

val set_certifier : certifier option -> unit
(** Register (or clear) the global certification hook. *)

val certify_default : unit -> bool
(** Default for [?certify]: [NESTQL_CERTIFY] when set (same spelling as
    [NESTQL_VERIFY]), else {!verify_default} — so certification is on
    under dune and under [NESTQL_VERIFY] exactly like the verifier. *)

type annotator =
  Cobj.Catalog.t -> Engine.Physical.query -> Engine.Stats.node -> unit
(** Fills {!Engine.Stats.node.bounds} / [keys] property annotations into an
    EXPLAIN ANALYZE tree before execution; {!analyze} then cross-checks the
    actual row counts against the proven bounds and errors on any
    violation. Registered by [Analysis.Certify.install]. *)

val set_annotator : annotator option -> unit

val compile :
  ?options:Planner.options ->
  ?rewrite:bool ->
  ?reorder:bool ->
  ?verify:bool ->
  ?certify:bool ->
  strategy ->
  Cobj.Catalog.t ->
  Lang.Ast.expr ->
  (compiled, string) result
(** [rewrite] (default true) applies simplification and the logical rewriter
    after each decorrelation round; [reorder] (default true) additionally
    applies the §6 join-reordering equivalences. Both exist for the
    ablation benches. [verify] (default {!verify_default}) runs the
    registered phase verifier after every optimizer phase. [certify]
    (default {!certify_default}) additionally records each rewrite step and
    runs the registered certifier per phase. *)

val compile_string :
  ?options:Planner.options ->
  ?rewrite:bool ->
  ?reorder:bool ->
  ?verify:bool ->
  ?certify:bool ->
  strategy ->
  Cobj.Catalog.t ->
  string ->
  (compiled, string) result

(** {1 Cache keys}

    The plan cache in [Server.Cache] keys compiled plans on the strategy,
    the normalized AST and the catalog's statistics version — see
    {!Cobj.Stats.version}. Exposed here so the key derivation lives next
    to the compiler it indexes. *)

val normalized_ast : Lang.Ast.expr -> string
(** Canonical pretty-print of a parsed query: texts differing only in
    whitespace, comments or redundant parentheses normalize identically. *)

val plan_key :
  ?rewrite:bool ->
  ?reorder:bool ->
  strategy ->
  Cobj.Catalog.t ->
  Lang.Ast.expr ->
  string
(** [strategy ⊕ stats version ⊕ ablation flags ⊕ normalized AST]. Two
    queries share a key exactly when {!compile} would produce the same
    plan for them against the same catalog statistics. *)

val plan_key_string :
  ?rewrite:bool ->
  ?reorder:bool ->
  strategy ->
  Cobj.Catalog.t ->
  string ->
  (string, string) result
(** {!plan_key} from query text ([Error] on a parse failure). *)

val digest_of_key : string -> string
(** Short stable hex digest of a plan-cache key — the [plan_digest]
    field of the slow-query log, so "same plan, different run" is
    greppable without shipping the normalized AST in every line. *)

val plan_digest :
  ?rewrite:bool ->
  ?reorder:bool ->
  strategy ->
  Cobj.Catalog.t ->
  Lang.Ast.expr ->
  string
(** [digest_of_key ∘ plan_key]. *)

val default_jobs : unit -> int
(** Partition-parallel width used when [?jobs] is omitted: the value of the
    [NESTQL_JOBS] environment variable when it parses as a positive
    integer, else 1 (serial). *)

val execute :
  ?stats:Engine.Stats.t ->
  ?jobs:int ->
  ?bloom:bool ->
  ?vector:bool ->
  ?batch:int ->
  Cobj.Catalog.t ->
  compiled ->
  Cobj.Value.t

val run :
  ?options:Planner.options ->
  ?rewrite:bool ->
  ?reorder:bool ->
  ?verify:bool ->
  ?certify:bool ->
  ?stats:Engine.Stats.t ->
  ?jobs:int ->
  ?bloom:bool ->
  ?vector:bool ->
  ?batch:int ->
  strategy ->
  Cobj.Catalog.t ->
  string ->
  (Cobj.Value.t, string) result
(** Parse, compile and execute a query string. [jobs] (default
    {!default_jobs}) is the partition-parallel domain count — results and
    statistics are identical for every value, see {!Engine.Exec.rows}.
    [bloom] (default true) toggles Bloom-filter sideways information
    passing in the hash-join family; results are identical either way and
    only the [bloom_*] counters differ. [batch] (default
    {!Engine.Exec.default_batch}) is the width of the columnar batches;
    results and statistics are identical at every width. [vector] is
    accepted only because bench/e2e passes it: [true] (or omitted) is the
    only engine there is, and [false] raises [Invalid_argument]. *)

val explain : ?costs:bool -> Cobj.Catalog.t -> compiled -> string
(** Logical and physical plans, pretty-printed. For a shredded query the
    physical-plan section is replaced by the shredded program (flat
    queries + stitch recipe). With [costs] (default false), each physical
    operator is annotated with the cost model's estimated output
    cardinality and cumulative cost. *)

val analyze :
  ?jobs:int ->
  ?bloom:bool ->
  ?vector:bool ->
  ?batch:int ->
  Cobj.Catalog.t ->
  compiled ->
  (Cobj.Value.t * Engine.Stats.node, string) result
(** EXPLAIN ANALYZE: run the physical plan once under per-operator
    instrumentation, with [est_rows] annotated from {!Cost}, and return the
    result value together with the filled annotation tree. For a shredded
    query the tree has a synthetic [stitch] root over the per-flat-query
    operator trees ({!Shred.analyze}). Errors when the strategy has no
    physical plan ([Interp]). *)

val render_analysis :
  ?json:bool ->
  ?timing:bool ->
  ?profile:bool ->
  ?misest_floor:float ->
  ?catalog:Cobj.Catalog.t ->
  compiled ->
  Engine.Stats.node ->
  string
(** Render an {!analyze} tree — a Postgres-style text tree by default, or a
    single-line JSON document with per-operator
    [{rows_out, est_rows, time_ns, ...}] objects. [~timing:false] omits
    wall-clock and the other jobs/load-dependent fields ([time=] in text
    mode; [time_ns], partition and [gc] fields in JSON) for deterministic
    output. [~profile:true] appends the {!Engine.Profile} self-time
    report (top table + flame view in text, a ["profile"] key in JSON);
    profile output is timing-class, so [~timing:false] suppresses it. With [catalog], a {!Misest} report is appended (text) or
    included under a ["misest"] key (JSON); [misest_floor] (default
    {!Misest.noise}, 1.5) sets the divergence ratio under which operators
    are summarized rather than listed in the text report. *)
