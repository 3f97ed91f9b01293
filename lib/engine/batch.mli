(** Columnar batches with selection vectors.

    The representation is exposed: the vectorized evaluator
    ({!Vexpr}) and the executor ({!Exec}) pattern-match on it
    directly.  Invariants: [sel] is ascending and every index is
    [< len]; slots outside the selection hold unspecified values. *)

type col =
  | Ints of int array
  | Floats of floatarray
  | Bools of Bytes.t  (** ['\000'] = false, anything else = true *)
  | Boxed of Cobj.Value.t array
  | Const of Cobj.Value.t  (** broadcast: same value at every index *)

type data =
  | Cols of { cols : (string * col) list; tail : Cobj.Env.t }
      (** late-materialized: named columns (newest first) over a shared
          tail environment *)
  | Rows of Cobj.Env.t array  (** materialized rows *)

type t = { len : int; sel : int array option; data : data }

val get : col -> int -> Cobj.Value.t
(** [get c i] reads physical slot [i] of column [c]. *)

val live : t -> int
(** Number of live rows (length of the selection, or [len]). *)

val live_total : t list -> int

val iter_live : t -> (int -> unit) -> unit
(** Apply to each live physical index in ascending order. *)

val is_cols : t -> bool

val col : t -> string -> col option
(** Look up a column by name (newest binding wins); [None] for rows
    batches and unbound names. *)

val tail : t -> Cobj.Env.t
(** Shared tail environment of a [Cols] batch ([Env.empty] for rows
    batches, whose kernels never run). *)

val env_at : t -> int -> Cobj.Env.t
(** Materialize the full environment for physical slot [i].  Produces
    exactly the environment row-at-a-time binding would have built. *)

val narrow : t -> int array -> t
(** Replace the selection vector (shares the underlying data). *)

val slices : size:int -> t -> t list
(** Cut the live rows into contiguous pieces of at most [size] (at least
    1), in order, each a {!narrow}ing of the batch. *)

val add_col : t -> string -> col -> t
(** Prepend a column to a [Cols] batch; raises [Invalid_argument] on a
    rows batch. *)

val to_rows : t -> Cobj.Env.t list
(** Live rows in selection order. *)

val rows_of_batches : t list -> Cobj.Env.t list

val of_rows_array : Cobj.Env.t array -> t

val of_rows : size:int -> Cobj.Env.t list -> t list
(** Chunk a row list into [Rows] batches of at most [size]. *)

val of_values : size:int -> string -> Cobj.Env.t -> Cobj.Value.t list -> t list
(** Scan constructor: batches with a single boxed column [var] over the
    shared scope, chunked to [size]. *)
