(** Work counters collected during execution — machine-independent cost
    evidence for the benches (tuple comparisons, hash activity, subquery
    re-evaluations).

    Two granularities share the same counter record:
    - a single {!t} accumulates totals across a whole plan (the legacy
      behaviour of [Exec.rows ?stats]);
    - a {!node} tree mirrors the physical plan shape and holds one {!t} per
      operator, plus wall-clock time, invocation counts, and the cost
      model's estimated cardinality — the data behind EXPLAIN ANALYZE. *)

type t = {
  mutable rows_out : int;     (** rows emitted by all operators *)
  mutable predicate_evals : int;  (** join/filter predicate evaluations *)
  mutable hash_builds : int;  (** rows inserted into hash tables *)
  mutable hash_probes : int;
  mutable sorts : int;        (** rows passed through sort operators *)
  mutable applies : int;      (** correlated subquery evaluations *)
  mutable apply_hits : int;   (** memoized apply cache hits *)
  mutable bloom_checks : int;  (** probe keys tested against a Bloom filter *)
  mutable bloom_prunes : int;
      (** probes the filter answered negatively (hash lookup skipped) *)
  mutable build_side_swaps : int;
      (** commutative hash joins that built on the left operand because it
          was the smaller one at runtime *)
  mutable partitions : int;
      (** morsels run by parallel hash probes (0 in serial runs and
          below the row gate) *)
  mutable partition_max_rows : int;
      (** largest morsel seen, in probe rows — with [partitions] and
          [hash_probes] this shows how evenly the probe was cut. [add]
          takes the max, not the sum. *)
}

val create : unit -> t
val reset : t -> unit
val total_work : t -> int
(** A single scalar work summary. Bloom counters and swaps are excluded: a
    pruned probe still counts in [hash_probes], so totals are comparable
    across bloom on/off runs. *)

val add : into:t -> t -> unit
(** [add ~into src] accumulates [src]'s counters into [into]. *)

val pp : t Fmt.t
(** One flat line of the jobs-invariant counters. The partition counters
    are jobs-dependent and deliberately excluded — they surface in
    EXPLAIN ANALYZE output when timing is requested. *)

(** {1 Per-operator nodes} *)

type node = {
  op : string;          (** operator name, e.g. ["hash-nestjoin"] *)
  detail : string;      (** keys / predicate / labels, pretty-printed *)
  counters : t;         (** this operator's own work, summed over loops *)
  mutable loops : int;  (** times the operator ran (re-runs under Apply) *)
  mutable time_ns : int64;
      (** inclusive wall-clock (children included), summed over loops *)
  mutable est_rows : float;
      (** cost-model estimate; [nan] until annotated (see [Core.Cost]) *)
  mutable bounds : (float * float) option;
      (** proven [lo, hi] output-cardinality bounds per invocation;
          [None] until a property annotator fills them in
          ([Analysis.Certify] via [Core.Pipeline.set_annotator]) *)
  mutable keys : string list;
      (** proven candidate keys of the output rows, pretty-printed
          (e.g. ["x.a"]; [[]] until annotated) *)
  mutable gc : Obs.Memory.delta option;
      (** Gc delta over this node's execution; only the root is filled
          in (by [Core.Pipeline.analyze]) — per-operator deltas would
          double-count children *)
  mutable vectorized : bool;
      (** the operator's implementation produces columnar batches (set
          by [Exec] for scan, filter, extend, project and the hash-join
          family); rendered only in timing-class EXPLAIN ANALYZE output,
          so the [--no-timing] annotation line leaves it out *)
  children : node list; (** same order as the physical operands *)
}

val node : op:string -> detail:string -> node list -> node
(** Fresh node with zeroed counters and [est_rows = nan]. *)

val reset_node : node -> unit
(** Zero counters, loops and timings over the whole tree (keeps
    [est_rows], [bounds] and [keys]). *)

val sum_into : t -> node -> unit
(** Accumulate every node's counters of the tree into a flat total. *)

val totals : node -> t
(** Fresh flat total of the whole tree — equals what an uninstrumented run
    with a global {!t} would have collected. *)
