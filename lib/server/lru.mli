(** A thread-safe, cost-bounded LRU map — the mechanism under both the
    plan cache (cost 1 per entry) and the result cache (cost ≈ bytes).

    All operations take one internal mutex, so a server's session threads
    can insert and look up concurrently; promotion to most-recently-used
    happens on every {!find} hit. Eviction is strict: after {!add}, the
    total cost never exceeds the capacity — an entry whose own cost
    exceeds the capacity is rejected on insert (and counted as an
    eviction, so a mis-sized cache is visible in the counters rather than
    silent). *)

type ('k, 'v) t

val create :
  ?on_evict:('k -> 'v -> unit) ->
  capacity:int ->
  cost:('k -> 'v -> int) ->
  unit ->
  ('k, 'v) t
(** [capacity] is in cost units ([cost = fun _ _ -> 1] gives an
    entry-count LRU; a byte estimator gives a byte-bounded one). Each
    entry's cost is computed once, at insert. [on_evict] fires for
    entries dropped by capacity eviction — not for {!remove} or
    replacement by {!add} — while the internal lock is
    held, so it must not reenter the cache. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Promotes a hit to most-recently-used and counts a hit or a miss. *)

val mem : ('k, 'v) t -> 'k -> bool
(** No promotion, no hit/miss accounting. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert (or replace, keeping the entry most-recently-used), then evict
    least-recently-used entries until the total cost fits the capacity. *)

val remove : ('k, 'v) t -> 'k -> unit

val remove_if : ('k, 'v) t -> ('k -> 'v -> bool) -> int
(** Drop every entry the predicate holds for and return how many went.
    Like {!remove}, this is not an eviction: [on_evict] does not fire. *)

val length : ('k, 'v) t -> int
val total_cost : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int

val keys : ('k, 'v) t -> 'k list
(** Most-recently-used first (for the eviction-order tests). *)

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
val evictions : ('k, 'v) t -> int
