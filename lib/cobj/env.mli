(** Variable environments — the row representation of the execution engine.

    A row produced by a (possibly joined, nested) FROM clause is a binding of
    query variables to values: the join of [FROM X x, Y y] yields rows
    [{x ↦ …, y ↦ …}], and a nest join with label [z] extends rows with
    [z ↦ Set …] — exactly the paper's [WITH z = subquery] view. Bindings are
    kept in a deterministic order (most recent first) and variable names are
    unique. *)

type t

val empty : t
val bind : string -> Value.t -> t -> t
(** [bind x v env] shadows any previous binding of [x]. *)

val lookup : string -> t -> Value.t option
val find : string -> t -> Value.t
(** Raises [Value.Type_error] if unbound. *)

val prepend : (string * Value.t) list -> t -> t
(** [prepend bs env] binds every name of [bs] over [env] in one pass: the
    first of a repeated name wins, and [bs] shadow [env]. Equal, binding
    order included, to folding {!bind} over [bs] from last to first. *)

val unbind : string -> t -> t
val mem : string -> t -> bool
val vars : t -> string list
(** Bound variables, most recently bound first. *)

val project : string list -> t -> t
(** Keep only the given variables (in the order given). Missing variables are
    an error. *)

val bindings : t -> (string * Value.t) list
val of_bindings : (string * Value.t) list -> t

val append : t -> t -> t
(** [append a b] — bindings of [a] shadow those of [b]. *)

val to_value : t -> Value.t
(** The environment as a tuple value (for grouping keys / set semantics). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : t Fmt.t
