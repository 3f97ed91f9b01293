(** Self-time attribution over an EXPLAIN ANALYZE tree.

    {!Stats.node.time_ns} is inclusive wall-clock: a node's span covers
    its children's spans (all timing happens on the orchestrating
    domain — morsel parallelism lives {e inside} an operator, so
    child spans always nest). Exclusive (self) time is therefore

    [self(n) = max 0 (time(n) − Σ time(child))]

    and the per-operator self times telescope: their sum equals the
    root's wall time up to the clamping of sub-microsecond clock
    jitter, and never exceeds it by more than that jitter. Self time is
    wall-clock and thus {b jobs-dependent} — profile output is
    timing-class, like [time=] in EXPLAIN ANALYZE (see
    docs/OBSERVABILITY.md). *)

type row = {
  op : string;          (** operator name, e.g. ["hash-semijoin"] *)
  detail : string;      (** keys / predicate, as in EXPLAIN ANALYZE *)
  self_ns : int64;      (** exclusive wall-clock *)
  total_ns : int64;     (** inclusive wall-clock ({!Stats.node.time_ns}) *)
  rows_out : int;
  loops : int;          (** invocations (re-runs under Apply) *)
  vectorized : bool;    (** ran on the columnar batch engine *)
  bloom_prunes : int;
  partitions : int;     (** morsels run by parallel probes (0 in serial runs) *)
}

type t = {
  wall_ns : int64;  (** the root's inclusive time *)
  rows : row list;  (** every operator, hottest self-time first *)
}

val self_ns : Stats.node -> int64
(** Exclusive time of one node (clamped at zero). *)

val of_node : Stats.node -> t
(** Profile of a filled analyze tree (one row per operator instance,
    sorted by [self_ns] descending; ties keep plan preorder). *)

val pp : t Fmt.t
(** Top-style table: self-ms, percent of wall, rows out, rows per
    self-ms, operator with annotations ([vectorized], [bloom=n],
    [parts=n], [loops=n]). *)

val pp_flame : Stats.node Fmt.t
(** Flame view: the plan tree in preorder, each node annotated with
    self and total milliseconds. *)

val to_json : t -> Json.t
(** [{wall_ns, operators: [{op, detail, self_ns, total_ns, rows_out,
    rows_per_ms, loops, vectorized, bloom_prunes, partitions}]}] in
    self-time order. *)

val record_metrics : t -> unit
(** Accumulate per-operator-kind self time into gauges
    [profile.self_us.<op>] when the metrics registry is enabled (the
    server's hottest-operator feed; [profile.*] is excluded from the
    jobs-invariance contract). *)

val top : ?k:int -> t -> row list
(** The [k] (default 5) hottest rows — the slow-query log summary. *)
