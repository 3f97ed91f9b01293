(** Blocked Bloom filter for sideways information passing.

    Built over build-side join keys and consulted before each probe: a
    negative answer is definitive (the key is not in the build table), so
    the probe and the probe row's materialization can be skipped.
    Positives may be false; the hash-table probe stays authoritative.

    The executor builds one filter per build side, serially; parallel
    probes share it, which keeps bloom counters invariant under
    [--jobs]. *)

type t

val create : int -> t
(** [create expected] sizes the filter for [expected] keys (~1 byte/key,
    ≈0.01% false positives at that load). [expected] may be 0. *)

val add : t -> int -> unit
(** Insert a precomputed [Value.hash]. *)

val mem : t -> int -> bool
(** May return a false positive; never a false negative for added hashes. *)

val fill_ratio : t -> float
(** Fraction of set bits — prune-rate diagnostics and saturation tests. *)
