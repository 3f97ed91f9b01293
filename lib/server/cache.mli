(** The server's amortization layer: a plan cache and an optional
    byte-bounded result cache in front of [Core.Pipeline].

    Both caches are keyed on {!Core.Pipeline.plan_key} — strategy ⊕
    catalog statistics version ⊕ normalized AST — so entries of
    different catalogs never meet: a new catalog (a new statistics
    version, {!Cobj.Stats.version}) misses, while sessions still on the
    old catalog keep hitting its entries. Nothing is flushed on a catalog
    change. Each entry records its catalog's stamp, and the first entry
    of a stamp arms a finaliser on that catalog: once the catalog is
    collected, the next {!query} or {!compile} purges its plans and
    results, which nobody can ask for again. Other entries nobody asks
    for age out of the LRU.

    A result entry is exactly the bytes the server sends after
    ["result":] — the JSON string literal of {!Cobj.Value.to_string} of
    the value, quotes included — so a hit is a lookup and a copy, with no
    value, rendering or escaping. It is charged its heap size in bytes:
    the entry record, its LRU node and hash-table cell, and the key and
    literal as string blocks.

    Correctness contract (proven by the qcheck differential oracle in
    [test/test_server.ml]): for any query, cached and uncached execution
    produce byte-identical replies, and executions reached through a
    plan-cache hit fill [Engine.Stats] identically to a fresh compile —
    only the cache counters (kept here and in [Obs.Metrics], never in
    [Engine.Stats]) differ. A result-cache hit replays the stored bytes
    without executing at all.

    Metrics (when the registry is enabled): [server.cache.plan.hits /
    misses / evictions / purged], [server.cache.result.hits / misses /
    evictions / purged] and [server.result_cache.skipped_large]
    (results denied admission by the size policy). *)

type outcome =
  | Hit
  | Miss
  | Bypass  (** caching skipped: per-request opt-out, or cache disabled *)

val outcome_name : outcome -> string
(** ["hit"], ["miss"], ["bypass"]. *)

type t

val create :
  ?plan_capacity:int ->
  ?result_capacity:int ->
  ?admit_fraction:float ->
  ?rewrite:bool ->
  ?reorder:bool ->
  unit ->
  t
(** [plan_capacity] (default 128) is in plans; 0 disables plan caching.
    [result_capacity] (default 0 — disabled) is in bytes of heap, as
    each entry is charged above.
    [admit_fraction] (default 0.25) is the admission policy: a result
    whose cost exceeds this fraction of [result_capacity] is served but
    never cached (it would evict most of the working set for one entry),
    counted by the [server.result_cache.skipped_large] metric. [rewrite]
    / [reorder] are baked into the key and passed to every compile. *)

type reply = {
  result_json : string;
      (** the JSON string literal, quotes included, of the one-line
          {!Cobj.Value.to_string} rendering: the reply's ["result"] field
          as it goes on the wire *)
  rows : int;  (** collection cardinality, 1 for scalar results *)
  plan : outcome;
  result : outcome;
  digest : string;
      (** {!Core.Pipeline.digest_of_key} of the cache key — the
          slow-query log's plan identifier *)
  tree : Engine.Stats.node option;
      (** the filled EXPLAIN ANALYZE tree when the query ran
          instrumented ([instrument:true] or a tracer attached); [None]
          on a result-cache replay or a plain execution *)
  misest : Core.Misest.entry list;
      (** misestimation report (worst first) when [tree] was paired
          with a nest-join physical plan; [[]] otherwise *)
}

type error =
  | Parse of string
  | Compile of string
  | Runtime of string
  | Timeout

val query :
  t ->
  ?cache:bool ->
  ?instrument:bool ->
  ?stats:Engine.Stats.t ->
  ?jobs:int ->
  ?bloom:bool ->
  ?deadline_expired:(unit -> bool) ->
  Core.Pipeline.strategy ->
  Cobj.Catalog.t ->
  string ->
  (reply, error) result
(** Parse, then serve from the result cache, else compile (through the
    plan cache) and execute. [cache:false] bypasses both caches for this
    request without touching them. [instrument:true] (default false)
    forces the EXPLAIN ANALYZE execution path when a physical plan
    exists, filling [reply.tree] and [reply.misest] — the daemon's
    slow-query log runs this way; the result bytes are identical.
    [deadline_expired] is consulted at the phase boundaries (before
    compile and before execute) — the timeout is cooperative, a running
    operator is never interrupted. [stats] is filled only when the
    query actually executes. *)

val compile :
  t ->
  ?cache:bool ->
  Core.Pipeline.strategy ->
  Cobj.Catalog.t ->
  string ->
  (Core.Pipeline.compiled * outcome, error) result
(** The plan-cache half of {!query} alone. *)

(** {2 Introspection (tests, benches, the [metrics] op)} *)

val plan_entries : t -> int
val result_entries : t -> int
val result_bytes : t -> int
val plan_hits : t -> int
val plan_misses : t -> int
val plan_evictions : t -> int
val result_hits : t -> int
val result_misses : t -> int
val result_evictions : t -> int
