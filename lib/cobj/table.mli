(** In-memory tables (class extensions).

    A table is a named, duplicate-free collection of values of a common
    element type — the extension of a TM class. Row order is the set order
    of {!Value.compare}, which makes query results deterministic. *)

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

val index : string -> t -> Value.t -> Value.t list
(** [index field t] fetches, or builds on first use, the hash index of [t]
    on its top-level [field] and returns its probe: [index field t v] is
    the rows whose [field] equals [v]. The index is cached for the table's
    lifetime (tables are immutable); the fetch or build runs under a
    per-table mutex, so domains sharing a table build it once, and the
    returned probe takes no lock. Rows lacking the field are simply absent
    from the index. The index powers the engine's index-join operators. *)

val has_index : string -> t -> bool
(** Whether the index for [field] has been materialized already (used by
    the cost model: a warm index has no build cost). *)

val pp : t Fmt.t
(** Renders as an aligned ASCII grid when the element type is a flat tuple
    type, one value per line otherwise. *)
