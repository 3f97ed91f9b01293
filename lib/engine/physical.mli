(** Physical plans: logical operators with implementation choices.

    Equi-predicates are split into key expressions ([lkey] evaluated under
    left rows, [rkey] under right rows) plus an optional residual predicate;
    hash- and sort-based implementations require this form, the nested-loop
    forms take the predicate whole.

    The paper's implementation notes (§6) are reflected here: the hash nest
    join always builds on the right operand — output must stay grouped by
    left rows, so the left side cannot be the build table unless the join
    attribute is a key of the right operand (that special case is exercised
    by the build-side bench through {!Hash_nestjoin_left}). *)

type expr = Lang.Ast.expr

type t =
  | Unit_row  (** one row binding nothing (the ambient environment) *)
  | Scan of { table : string; var : string }
  | Filter of { pred : expr; input : t }
  | Nl_join of { pred : expr; left : t; right : t }
  | Hash_join of {
      lkey : expr;
      rkey : expr;
      residual : expr option;
      left : t;
      right : t;
    }  (** build right, probe left *)
  | Merge_join of {
      lkey : expr;
      rkey : expr;
      residual : expr option;
      left : t;
      right : t;
    }
  | Nl_semijoin of { pred : expr; anti : bool; left : t; right : t }
  | Hash_semijoin of {
      lkey : expr;
      rkey : expr;
      residual : expr option;
      anti : bool;
      left : t;
      right : t;
    }
  | Merge_semijoin of {
      lkey : expr;
      rkey : expr;
      residual : expr option;
      anti : bool;
      left : t;
      right : t;
    }
  | Nl_outerjoin of { pred : expr; left : t; right : t }
  | Hash_outerjoin of {
      lkey : expr;
      rkey : expr;
      residual : expr option;
      left : t;
      right : t;
    }
  | Merge_outerjoin of {
      lkey : expr;
      rkey : expr;
      residual : expr option;
      left : t;
      right : t;
    }
  | Nl_nestjoin of {
      pred : expr;
      func : expr;
      label : string;
      left : t;
      right : t;
    }
  | Hash_nestjoin of {
      lkey : expr;
      rkey : expr;
      residual : expr option;
      func : expr;
      label : string;
      left : t;
      right : t;
    }  (** build right (always legal) *)
  | Hash_nestjoin_left of {
      lkey : expr;
      rkey : expr;
      residual : expr option;
      func : expr;
      label : string;
      left : t;
      right : t;
    }  (** build left — requires [rkey] to be a key of the right operand;
           kept for the §6 build-side experiment *)
  | Merge_nestjoin of {
      lkey : expr;
      rkey : expr;
      residual : expr option;
      func : expr;
      label : string;
      left : t;
      right : t;
    }
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
(** [Some (table, var, field)] when [t] is a right-build hash operator
    ([Hash_join], [Hash_semijoin], [Hash_outerjoin], [Hash_nestjoin])
    whose build operand is a bare [Scan { table; var }] keyed on the plain
    field [var.field]. Such a build side is the same hash table for every
    query over [table]: the executor takes it from a per-(table, field)
    cache instead of running the scan — the amortized join implementation
    of the paper's §2. The executor, the cost model and the EXPLAIN tree
    all ask this one predicate. *)

val vars_of : t -> string list
(** Variables bound in output rows (mirrors {!Algebra.Plan.vars_of}). *)

val size : t -> int
val pp : t Fmt.t
val pp_query : query Fmt.t
val to_string : t -> string
