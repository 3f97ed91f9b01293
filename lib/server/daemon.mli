(** The [nestql serve] daemon: a long-running server speaking the
    line-JSON protocol of {!Protocol} over a Unix-domain or localhost TCP
    socket, amortizing the optimizer across requests through
    {!Cache}.

    Concurrency model: one listener loop on the calling thread, one
    systhread per accepted connection (sessions are concurrent — parse,
    I/O and cache lookups interleave freely), and one process-wide
    executor lock serializing compile + execute. Inside it, a hash
    operator whose probe side reaches the executor's row gate still fans
    out over [jobs] domains, so the pool provides the parallelism and the
    cache provides the amortization. Gauge
    [server.queue.depth] counts requests waiting on the lock.

    Timeouts are cooperative: the deadline is checked when the request
    reaches the executor and again between compile and execute — a
    running operator is never interrupted. A request whose deadline has
    already expired (e.g. [timeout_ms = 0], or a long queue wait) is
    answered with the ["timeout"] error code deterministically.

    Graceful shutdown — on the [shutdown] op or SIGTERM/SIGINT: stop
    accepting, nudge every idle session with [Unix.shutdown] (their next
    read sees EOF), let in-flight requests finish, join all session
    threads, and return exit code 0. *)

type bind = Unix_socket of string | Tcp of int

type config = {
  bind : bind;
  catalog : Cobj.Catalog.t;  (** initial catalog of every new session *)
  catalog_name : string;
  strategy : Core.Pipeline.strategy;  (** session default strategy *)
  jobs : int;  (** default execution width (per-request override) *)
  plan_capacity : int;  (** plans; 0 disables the plan cache *)
  result_capacity : int;  (** bytes of heap, see {!Cache.create}; 0 disables *)
  timeout_ms : int option;  (** default per-request deadline *)
  slow_ms : int option;
      (** slow-query log threshold: queries at or over this many
          milliseconds emit one ["slow.query"] {!Obs.Qlog} line with
          plan digest, cache outcomes, top self-time operators and the
          worst misestimates. Queries run instrumented when set (the
          log needs the annotated tree); results are identical. *)
  http_port : int option;
      (** start an {!Http} scrape listener on loopback at this port
          ([GET /metrics], [GET /healthz]); 0 picks an ephemeral
          port *)
  quiet : bool;  (** suppress the stderr lifecycle lines *)
}

val default_config : config
(** [xy] catalog (seed 42, scale 100), strategy [Decorrelated], jobs 1,
    128-plan cache, 2 MiB result cache, no timeout, no slow-query log,
    no http listener, binds ["nestql.sock"]. *)

val serve : config -> int
(** Run until shutdown; returns the process exit code (0 on graceful
    shutdown, 1 when the socket could not be bound). Enables
    {!Obs.Metrics}; emits one {!Obs.Trace} span per request (category
    ["request"]) and one {!Obs.Qlog} line per query when those sinks are
    active. *)
