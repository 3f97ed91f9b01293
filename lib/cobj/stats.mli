(** One-pass catalog statistics for the cost model and the CLI.

    [scan] walks every table of a catalog exactly once and records, per
    table, the row count and per-attribute summaries: distinct-value count
    (NDV, over non-null values), fraction of null/missing values, and — for
    set- or list-valued attributes — the fraction of empty collections and
    the average collection cardinality. The planner consumes these through
    {!of_catalog}.

    Each catalog gets one record, keyed on physical identity (catalogs are
    immutable, so a changed catalog is a different value), that holds its
    {!version} stamp and its memoized statistics. The records live under
    one mutex in an ephemeron table: a record lives exactly as long as its
    catalog, with no cap on how many are kept, so planning against several
    live catalogs in turn scans each once, and a dropped catalog takes its
    record with it. *)

type attr = {
  ndv : int option;  (** distinct non-null values; [None] on empty tables *)
  null_frac : float;  (** fraction of rows whose value is null or missing *)
  empty_frac : float option;
      (** among collection-valued rows, the empty fraction; [None] when the
          attribute is never a collection *)
  avg_card : float option;
      (** average collection cardinality; [None] like [empty_frac] *)
}

type table = {
  name : string;
  rows : int;
  attrs : (string * attr) list;
      (** one entry per declared tuple field, in declaration (sorted) order;
          a non-tuple element type yields a single [""] entry *)
}

type t = table list

val scan : Catalog.t -> t
(** Fresh statistics: one full pass over every table. *)

val of_catalog : Catalog.t -> t
(** {!scan}, memoized in the catalog's record: later calls on the same
    catalog return the same (physically equal) list for as long as the
    catalog lives, whatever other catalogs were planned in between.
    Thread-safe. *)

val version : Catalog.t -> int
(** Monotonic statistics-version stamp for cache keying, held in the same
    record as {!of_catalog}'s statistics: the first call on a catalog
    assigns the next version number; later calls on the same catalog
    return the same stamp for the catalog's whole life. Stamps are never
    reused, not even after their catalog is collected. Plan-cache keys
    embed this stamp, so a new catalog never reaches a plan or result
    derived from another catalog's statistics. Thread-safe. *)

val table : t -> string -> table option
val attr : t -> string -> string -> attr option

val row_count : Catalog.t -> string -> int option
val ndv : Catalog.t -> table:string -> field:string -> int option
(** [Some d] only when the table exists, is non-empty and [d > 0]. *)

val avg_set_card : Catalog.t -> table:string -> field:string -> float option

val pp : t Fmt.t
(** Aligned grid, one line per attribute (the [nestql stats] output). *)
