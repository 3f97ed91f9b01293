(** In-memory tables (class extensions).

    A table is a named, duplicate-free collection of values of a common
    element type — the extension of a TM class. Row order is the set order
    of {!Value.compare}, which makes query results deterministic. Tables
    are immutable, so a hash table built over a table's rows stays valid
    for the table's lifetime: the engine caches such build sides per
    table and field, keyed weakly on the table value. *)

type t

val create : ?key:string list -> name:string -> elt:Ctype.t -> Value.t list -> t
(** Builds a table. Rows are deduplicated and sorted. Every row must conform
    to [elt] (raises [Invalid_argument] otherwise). [key] optionally declares
    a set of top-level tuple fields whose combination is unique — consulted by
    the physical planner (e.g. the hash nest join may only build on the right
    operand unless the join attribute is a key). The key claim is verified. *)

val name : t -> string
val elt : t -> Ctype.t
val rows : t -> Value.t list
val cardinality : t -> int
val key : t -> string list option
val to_value : t -> Value.t
(** The table's contents as a [Set] value. *)

val pp : t Fmt.t
(** Renders as an aligned ASCII grid when the element type is a flat tuple
    type, one value per line otherwise. *)
