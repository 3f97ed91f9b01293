(** The morsel scheduler behind parallel execution.

    [run ~jobs n body] evaluates [body i] for every [0 <= i < n] on at most
    [jobs] domains in total: the calling domain plus up to [jobs - 1]
    worker domains spawned for this call and joined before it returns, so
    no worker outlives the region that needed it. Items are claimed from a
    shared atomic counter, so scheduling is dynamic (morsel-style); [body]
    must be safe to run concurrently on distinct indices.

    If items raise, [run] re-raises, once every worker has stopped, the
    exception of the lowest failing item — the one a serial loop over
    [0 .. n-1] would have raised. Items above a failure may be skipped.

    [body] never calls [run] re-entrantly: the executor hands worker bodies
    a serial execution context. *)

val max_jobs : int
(** Hard cap on [jobs]: the OCaml runtime limits live domains to 128, so
    requests beyond this are clamped. *)

val run : jobs:int -> int -> (int -> unit) -> unit
(** [run ~jobs n body] — see above. [jobs <= 1] (or [n <= 1]) degrades to a
    plain serial loop on the calling domain, spawning nothing. *)

val size : unit -> int
(** Number of worker domains currently alive: 0 outside {!run}. *)
