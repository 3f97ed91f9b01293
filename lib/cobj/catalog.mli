(** The catalog maps extension names (FROM-clause table names) to tables.

    Catalogs are immutable: {!add} returns a new catalog. Each catalog
    value carries an identifier, fresh at construction, that
    {!Stats} uses to hash it; two catalogs with equal tables are still
    distinct values with distinct identifiers. *)

type t

val empty : t
val add : Table.t -> t -> t
(** Replaces any previous table of the same name. *)

val of_tables : Table.t list -> t

val id : t -> int
(** The construction-time identifier: a hash key, not a version (see
    {!Stats.version}). *)

val find : string -> t -> Table.t option
val find_exn : string -> t -> Table.t
(** Raises [Not_found]. *)

val mem : string -> t -> bool
val names : t -> string list
(** Sorted. *)

val tables : t -> Table.t list
val pp : t Fmt.t
