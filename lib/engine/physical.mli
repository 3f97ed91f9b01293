(** Physical plans: logical operators with implementation choices.

    Every join is one node, {!Join}: a [kind] says what a left row makes of
    its matches (the paper's join, semijoin, antijoin, outerjoin or nest
    join) and a [how] says how the matches are found. A nested loop takes
    the predicate whole. A keyed method needs the predicate split into key
    expressions ([lkey] evaluated under left rows, [rkey] under right rows)
    plus an optional residual; it finds matches through a hash table or a
    sort of the keys. The paper's §6 says any join method adapts to the
    nest join, and each [(kind, how)] pair is one operator.

    The paper's implementation notes (§6) are reflected here: the hash nest
    join always builds on the right operand — output must stay grouped by
    left rows, so the left side cannot be the build table unless the join
    attribute is a key of the right operand. That special case,
    {!Hash_left}, is legal only under a nest join, and only with such a
    key. The planner never emits it: such a right operand is a bare keyed
    scan, whose cached right build is never dearer. The build-side bench
    and the tests build it by hand.

    A physical plan is the paper's logical algebra with a method attached
    to each join: {!to_logical} erases the methods, and
    [Core.Planner.nested_loops] embeds a logical plan as nested loops.
    The verifier and the plan-property analysis walk only physical plans,
    and check a logical plan as that embedding. *)

type expr = Lang.Ast.expr

(** What a join does with the right rows matching a left row. *)
type kind =
  | Inner  (** every pair *)
  | Semi of { anti : bool }  (** the left row iff some match (not) *)
  | Outer  (** every pair, or the left row padded with nulls *)
  | Nest of { func : expr; label : string }
      (** the left row, with [label] the set of [func] over its matches *)

(** The comparison a sort-based join answers between a left row's key and
    a right row's, under {!Cobj.Value.compare}: [Eq] is the equi-join,
    the other four a one-sided band ([Lt]: [lkey < rkey]). *)
type cmp = Eq | Lt | Le | Gt | Ge

(** How a keyed join finds a key's matches. *)
type keyed =
  | Hash  (** build a hash table of the right operand, probe with the left *)
  | Sort of cmp
      (** sort the right operand on its key and search it: [Sort Eq] also
          sorts the left and reads each key's equal run; a band reads the
          prefix or suffix of right rows whose keys compare so *)
  | Hash_left
      (** build the left operand, stream the right: requires [rkey] to be a
          key of the right operand, and a nest join (§6) *)

type how =
  | Loop of { pred : expr }  (** nested loop over every pair *)
  | Keyed of { by : keyed; lkey : expr; rkey : expr; residual : expr option }

val join_pred : how -> expr
(** The predicate a method answers: a nested loop's, or a keyed method's
    key comparison [lkey op rkey] conjoined with its residual. *)

val equi_keys : how -> (expr * expr) option
(** [Some (lkey, rkey)] for a keyed method that matches equal keys: hash,
    left build or [Sort Eq]. A band and a nested loop have none. *)

type t =
  | Unit_row  (** one row binding nothing (the ambient environment) *)
  | Scan of { table : string; var : string }
  | Filter of { pred : expr; input : t }
  | Join of { kind : kind; how : how; left : t; right : t }
  | Unnest_op of { expr : expr; var : string; input : t }
  | Nest_op of {
      by : string list;
      label : string;
      func : expr;
      nulls : string list;
      input : t;
    }
  | Extend_op of { var : string; expr : expr; input : t }
  | Project_op of { vars : string list; input : t }
  | Apply_op of { var : string; subquery : query; memo : bool; input : t }
      (** [memo] caches subquery results per correlation-variable value *)
  | Union_op of { left : t; right : t }
      (** set union; operands bind the same variables *)

and query = { plan : t; result : expr }

val cached_build : t -> (string * string * string) option
(** [Some (table, var, field)] when [t] is a {!Hash} join of any kind
    whose build operand is a bare [Scan { table; var }] keyed on the plain
    field [var.field]. Such a build side is the same hash table for every
    query over [table]: the executor takes it from a per-(table, field)
    cache instead of running the scan — the amortized join implementation
    of the paper's §2. The executor, the cost model and the EXPLAIN tree
    all ask this one predicate. *)

val vars_of : t -> string list
(** Variables bound in output rows (mirrors {!Algebra.Plan.vars_of}). *)

val to_logical : t -> Algebra.Plan.plan
(** The logical plan a physical plan implements: each join becomes the
    logical join of its kind whose predicate is the nested loop's, or a
    keyed method's {!join_pred}; an apply
    drops [memo]. [to_logical_query (Core.Planner.nested_loops q) = q]. *)

val to_logical_query : query -> Algebra.Plan.query

val query_free_vars : query -> Lang.Ast.String_set.t
(** Correlation variables a physical query needs from its enclosing scope:
    {!Algebra.Plan.query_free_vars} of its {!to_logical_query}. *)

val describe : t -> string * (Format.formatter -> unit) option
(** The operator's name and detail as EXPLAIN and EXPLAIN ANALYZE print
    them (["hash-antijoin"], ["[x.b = y.b] residual=[...]"]; a band is a
    ["merge-"] operator whose detail shows its comparison), not its
    operands. A cached build side ends the detail with
    [build=cached T.f]. *)

val size : t -> int
val pp : t Fmt.t
val pp_query : query Fmt.t
val to_string : t -> string
