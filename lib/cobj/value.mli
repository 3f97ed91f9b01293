(** Complex-object values.

    The TM data model of the paper supports arbitrarily nested tuple, set and
    list constructors over basic types. Sets contain no duplicates. A [Null]
    value exists only as padding produced by the relational outerjoin operator
    (the paper stresses that the complex object model itself does not need
    NULL: the empty set is part of the model); it is used here to implement
    the algebraic equivalence "nest join = outerjoin followed by ν*". *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Tuple of (string * t) list  (** fields sorted by label, labels unique *)
  | Set of t list               (** sorted by [compare], duplicate-free *)
  | List of t list
  | Variant of string * t       (** tagged value, e.g. [circle!(1.5)] *)

(** {1 Smart constructors}

    [Tuple] and [Set] carry invariants (label-sorted fields, sorted dup-free
    elements); always build them through these functions. *)

val tuple : (string * t) list -> t
(** Sorts fields by label. Raises [Invalid_argument] on duplicate labels. *)

val set : t list -> t
(** Sorts elements and removes duplicates. *)

val set_of_seq : t Seq.t -> t

(** {1 Total order, equality, hashing}

    [compare] is a total order on all values, used to maintain set invariants
    and by sort-based join implementations. Values of different constructors
    are ordered by an arbitrary fixed constructor rank; [Int] and [Float]
    compare numerically against each other. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val identical : t -> t -> bool
(** The same value in the same representation, so printed alike: unlike
    {!equal}, [Int 1] and [Float 1.0] differ, and so do [0.0] and [-0.0].
    Floats are identical when their bits are. *)

val hash : t -> int
(** Equal values hash alike, an [Int] and an equal [Float] included. An
    [Int] within 2^53, and an integral [Float] in int range, hash without
    allocating. *)

(** {1 Accessors} *)

val field : string -> t -> t
(** [field l v] projects field [l] of tuple [v]. Raises [Type_error]. *)

val field_opt : string -> t -> t option

val elements : t -> t list
(** Elements of a [Set] or [List]. Raises [Type_error] otherwise. *)

val as_bool : t -> bool
val as_int : t -> int
val as_float : t -> float
(** [as_float] accepts both [Int] and [Float]. *)

val as_string : t -> string

exception Type_error of string
(** Raised by accessors and by evaluation when a value has the wrong shape. *)

val type_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [type_error fmt ...] raises {!Type_error} with a formatted message. *)

(** {1 Set operations} (operands must be [Set]) *)

val set_mem : t -> t -> bool
(** [set_mem x s] is x ∈ s. *)

val set_union : t -> t -> t
val set_inter : t -> t -> t
val set_diff : t -> t -> t
val set_subseteq : t -> t -> bool
val set_subset : t -> t -> bool
val set_card : t -> int
val set_is_empty : t -> bool

(** {1 Pretty printing} *)

val variant_tag : t -> string
(** Tag of a [Variant]. Raises [Type_error]. *)

val variant_payload : string -> t -> t
(** [variant_payload tag v] — payload of [v] if tagged [tag]; raises
    [Type_error] otherwise (including on a different tag). *)

val add_int : Buffer.t -> int -> unit
(** Append the decimal form of an integer, byte-identical to
    [string_of_int], without building the intermediate string. *)

val to_string : t -> string
(** Renders in TM-like concrete syntax, [(a = 1, b = {2, 3})], always on
    one line, newline-free whatever the value's width: strings quoted and
    escaped like [%S], floats like [%F], [null]/[true]/[false], and [", "]
    between elements. Written straight into one buffer. The output is
    parseable back by [Lang.Parser] for literal values. *)

val pp : t Fmt.t
(** Prints {!to_string} as one atomic string. No [Format] boxes or break
    hints, so terminals, error messages and server replies all show the
    same line. *)

val approx_bytes : t -> int
(** Approximate heap footprint in bytes (headers + per-element cons cells,
    strings rounded to whole words). Used by byte-bounded caches; an
    estimate — sharing is counted once per occurrence. *)
