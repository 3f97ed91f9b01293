(** Columnar batches with selection vectors.

    The representation is exposed: the vectorized evaluator
    ({!Vexpr}) and the executor ({!Exec}) pattern-match on it
    directly. There is one layout: named columns over a shared tail
    environment. Invariants: [sel] is ascending and every index is
    [< len]; slots outside the selection hold unspecified values. *)

type col =
  | Ints of int array
  | Floats of floatarray
  | Bools of Bytes.t  (** ['\000'] = false, anything else = true *)
  | Boxed of Cobj.Value.t array
  | Const of Cobj.Value.t  (** broadcast: same value at every index *)

type t = {
  len : int;
  sel : int array option;
  cols : (string * col) list;
      (** named columns, newest first: a name shadows later ones and the
          tail *)
  tail : Cobj.Env.t;  (** bindings shared by every row *)
}

val get : col -> int -> Cobj.Value.t
(** [get c i] reads physical slot [i] of column [c]. *)

val live : t -> int
(** Number of live rows (length of the selection, or [len]). *)

val live_total : t list -> int

val iter_live : t -> (int -> unit) -> unit
(** Apply to each live physical index in ascending order. *)

val live_slots : t -> int array
(** The live physical indices, ascending. *)

val col : t -> string -> col option
(** Look up a column by name (newest binding wins); [None] for names no
    column binds. *)

val value : t -> string -> int -> Cobj.Value.t
(** [value b x i]: [x] at slot [i], from its column or else the tail.
    Raises [Value.Type_error] when [x] is unbound. *)

val env_at : t -> int -> Cobj.Env.t
(** Materialize the full environment for physical slot [i], in one pass.
    Produces exactly the environment binding the columns oldest-first
    over the tail would have built. *)

val narrow : t -> int array -> t
(** Replace the selection vector (shares the underlying data). *)

val slices : size:int -> t -> t list
(** Cut the live rows into contiguous pieces of at most [size] (at least
    1), in order, each a {!narrow}ing of the batch. *)

val add_col : t -> string -> col -> t
(** Prepend a column. *)

val to_rows : t -> Cobj.Env.t list
(** Live rows in selection order. *)

val rows_of_batches : t list -> Cobj.Env.t list

val of_cols : int -> (string * col) list -> Cobj.Env.t -> t
(** [of_cols len cols tail]: every slot live. *)

val of_values : size:int -> string -> Cobj.Env.t -> Cobj.Value.t list -> t list
(** Scan constructor: batches with a single boxed column [var] over the
    shared scope, chunked to [size]. *)

val of_rows :
  size:int -> string list -> Cobj.Env.t -> Cobj.Env.t list -> t list
(** [of_rows ~size vars tail rows]: the one way rows enter batches. Each
    row must bind every name of [vars] over [tail]; it becomes one slot of
    a boxed column per distinct name, chunked to [size]. *)

val of_tuples :
  size:int -> string list -> Cobj.Env.t -> Cobj.Value.t list -> t list
(** [of_tuples ~size names tail rows]: each row a [Value.List] of the
    values of [names] (distinct), in that order; one boxed column per
    name, chunked to [size]. *)

val gather : col -> int array -> col
(** [gather c idx]: slot [j] of the result is slot [idx.(j)] of [c]; the
    column type is kept. *)

val gather_padded : col -> int array -> col
(** Like {!gather}, but a negative index reads [Null]. *)

val concat_live : string list -> t list -> (string * col) list
(** The live rows of the batches, in order, as one column per distinct
    name; a name no column binds reads each batch's tail. Row [j] of the
    result is the [j]-th live row overall. *)
