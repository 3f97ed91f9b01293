(** Minimal JSON document builder for the EXPLAIN ANALYZE output and the
    bench artifacts. Emits strictly valid JSON: strings are escaped,
    non-finite floats serialize as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Int64 of int64
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** an already-encoded JSON fragment, emitted verbatim; the caller
          vouches that it is valid JSON *)

val to_string : t -> string
(** Compact single-line rendering. *)

val to_pretty_string : t -> string
(** Two-space indented rendering (for diffable artifacts). *)
