(* The nestql server. See daemon.mli for the concurrency and shutdown
   model; this file is deliberately plain Unix + threads: a select-based
   accept loop (select returns on its timeout, so the stop flag never
   needs to interrupt a blocking accept), a systhread per connection, and
   one executor mutex in front of the engine's domain pool. *)

module Pipeline = Core.Pipeline
module Json = Engine.Json

type bind = Unix_socket of string | Tcp of int

type config = {
  bind : bind;
  catalog : Cobj.Catalog.t;
  catalog_name : string;
  strategy : Pipeline.strategy;
  jobs : int;
  plan_capacity : int;
  result_capacity : int;
  timeout_ms : int option;
  slow_ms : int option;
  http_port : int option;
  quiet : bool;
}

let default_config =
  {
    bind = Unix_socket "nestql.sock";
    catalog = Workload.Gen.xy { Workload.Gen.default_xy with seed = 42 };
    catalog_name = "xy";
    strategy = Pipeline.Decorrelated;
    jobs = 1;
    plan_capacity = 128;
    result_capacity = 2 * 1024 * 1024;
    timeout_ms = None;
    slow_ms = None;
    http_port = None;
    quiet = false;
  }

type state = {
  config : config;
  cache : Cache.t;
  exec : Mutex.t; (* serializes compile + execute onto the domain pool *)
  stop : bool Atomic.t;
  listener : Unix.file_descr;
  sessions : (int, Unix.file_descr) Hashtbl.t; (* live connection fds *)
  sessions_m : Mutex.t;
  threads : Thread.t list ref; (* joined at shutdown *)
  next_session : int Atomic.t;
}

let log state fmt =
  if state.config.quiet then Printf.ifprintf stderr fmt
  else Printf.eprintf fmt

let now_ns () = Monotonic_clock.now ()
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

(* --- per-request work --------------------------------------------------- *)

let error_parts = function
  | Cache.Parse msg -> ("compile_error", "parse error: " ^ msg)
  | Cache.Compile msg -> ("compile_error", msg)
  | Cache.Runtime msg -> ("runtime_error", msg)
  | Cache.Timeout -> ("timeout", "request deadline expired before execution")

let cache_json reply =
  Json.Obj
    [
      ("plan", Json.String (Cache.outcome_name reply.Cache.plan));
      ("result", Json.String (Cache.outcome_name reply.Cache.result));
    ]

(* Compact single-field summaries for the slow-query log: the top-5
   self-time operators and the top-3 misestimates, each one greppable
   string rather than nested JSON (Qlog lines are flat). *)
let hot_summary = function
  | None -> ""
  | Some tree ->
    Engine.Profile.top ~k:5 (Engine.Profile.of_node tree)
    |> List.map (fun (r : Engine.Profile.row) ->
           Printf.sprintf "%s=%.3fms" r.Engine.Profile.op
             (Int64.to_float r.Engine.Profile.self_ns /. 1e6))
    |> String.concat ","

let misest_summary entries =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take 3 entries
  |> List.map (fun (e : Core.Misest.entry) ->
         Printf.sprintf "%.1fx-%s %s" e.Core.Misest.factor
           (if e.Core.Misest.under then "under" else "over")
           e.Core.Misest.op)
  |> String.concat ";"

(* One structured line per offending query — enough to diagnose it from
   the log alone: which plan (digest), how it was served (cache
   outcomes), where the time went (hot), and whether the optimizer was
   working from bad estimates (misest). *)
let emit_slow_line (session : Session.t) ~strategy ~jobs ~threshold_ms ~ms
    (reply : Cache.reply) =
  Obs.Qlog.emit
    [
      ("event", Obs.Trace.Str "slow.query");
      ("session", Obs.Trace.Int session.id);
      ("strategy", Obs.Trace.Str (Pipeline.strategy_name strategy));
      ("jobs", Obs.Trace.Int jobs);
      ("rows", Obs.Trace.Int reply.Cache.rows);
      ("ms", Obs.Trace.Num ms);
      ("threshold_ms", Obs.Trace.Int threshold_ms);
      ("plan_digest", Obs.Trace.Str reply.Cache.digest);
      ("plan_cache", Obs.Trace.Str (Cache.outcome_name reply.Cache.plan));
      ("result_cache", Obs.Trace.Str (Cache.outcome_name reply.Cache.result));
      ("hot", Obs.Trace.Str (hot_summary reply.Cache.tree));
      ("misest", Obs.Trace.Str (misest_summary reply.Cache.misest));
    ]

let do_query state (session : Session.t) ~id (q : Protocol.query_req) =
  let strategy = Option.value q.Protocol.strategy ~default:session.strategy in
  let jobs = Option.value q.Protocol.jobs ~default:session.jobs in
  let timeout_ms =
    match q.Protocol.timeout_ms with
    | Some ms -> Some ms
    | None -> state.config.timeout_ms
  in
  let t0 = now_ns () in
  let deadline_expired () =
    match timeout_ms with
    | None -> false
    | Some ms -> ms_since t0 > float_of_int ms
  in
  Obs.Metrics.add_gauge "server.queue.depth" 1.;
  Mutex.lock state.exec;
  Obs.Metrics.add_gauge "server.queue.depth" (-1.);
  let outcome =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock state.exec)
      (fun () ->
        (* With a slow-query threshold configured, run instrumented so a
           line over the threshold can carry self-time attribution (the
           result value is identical either way). *)
        Cache.query state.cache ~cache:q.Protocol.use_cache
          ~instrument:(state.config.slow_ms <> None)
          ~jobs ~bloom:q.Protocol.bloom ~deadline_expired strategy
          session.catalog q.Protocol.q)
  in
  let ms = ms_since t0 in
  Obs.Metrics.observe "server.request.us" (int_of_float (ms *. 1000.));
  (match outcome with
  | Ok reply ->
    (* The scrape endpoint's latency histogram, labeled by strategy and
       how the caches served the request (errors are counted separately
       by server.request.errors). *)
    Obs.Metrics.observe
      (Obs.Metrics.labeled "server.query.duration_us"
         [
           ("strategy", Pipeline.strategy_name strategy);
           ("plan_cache", Cache.outcome_name reply.Cache.plan);
           ("result_cache", Cache.outcome_name reply.Cache.result);
         ])
      (int_of_float (ms *. 1000.));
    Obs.Qlog.emit
      [
        ("event", Obs.Trace.Str "serve.query");
        ("session", Obs.Trace.Int session.id);
        ("strategy", Obs.Trace.Str (Pipeline.strategy_name strategy));
        ("jobs", Obs.Trace.Int jobs);
        ("rows", Obs.Trace.Int reply.Cache.rows);
        ("ms", Obs.Trace.Num ms);
        ("plan_cache", Obs.Trace.Str (Cache.outcome_name reply.Cache.plan));
        ( "result_cache",
          Obs.Trace.Str (Cache.outcome_name reply.Cache.result) )
      ];
    (match state.config.slow_ms with
    | Some threshold_ms when ms >= float_of_int threshold_ms ->
      Obs.Metrics.incr "server.slow_queries";
      emit_slow_line session ~strategy ~jobs ~threshold_ms ~ms reply
    | _ -> ())
  | Error _ -> ());
  match outcome with
  | Ok reply ->
    Ok
      (Protocol.ok ~id
         [
           ("result", Json.Raw reply.Cache.result_json);
           ("rows", Json.Int reply.Cache.rows);
           ("ms", Json.Float ms);
           ("strategy", Json.String (Pipeline.strategy_name strategy));
           ("cache", cache_json reply);
         ])
  | Error e ->
    let code, message = error_parts e in
    if e = Cache.Timeout then Obs.Metrics.incr "server.request.timeouts";
    Error (code, message)

let do_catalog (session : Session.t) ~id (c : Protocol.catalog_req) =
  let seed = Option.value c.Protocol.seed ~default:42 in
  let scale = Option.value c.Protocol.scale ~default:100 in
  match
    Session.load_catalog ?name:c.Protocol.name ?file:c.Protocol.file ~seed
      ~scale ()
  with
  | Error msg -> Error ("bad_request", msg)
  | Ok (catalog, name) ->
    session.catalog <- catalog;
    session.catalog_name <- name;
    (* The new statistics version keys this session's future plans and
       results; other sessions on the old catalog keep its entries. *)
    Obs.Metrics.incr "server.catalog.changes";
    Ok
      (Protocol.ok ~id
         [
           ("catalog", Json.String name);
           ("tables", Json.List
              (List.map (fun n -> Json.String n)
                 (Cobj.Catalog.names catalog)));
           ("stats_version", Json.Int (Cobj.Stats.version catalog));
         ])

let do_metrics ~id =
  Ok (Protocol.ok ~id [ ("metrics", Engine.Obs_json.metrics ()) ])

let do_metrics_prom ~id =
  Ok (Protocol.ok ~id [ ("prom", Json.String (Obs.Prom.page ())) ])

(* --- shutdown ----------------------------------------------------------- *)

(* Stopping only raises the flag, and takes no lock: the SIGTERM/SIGINT
   handler runs in whichever thread the signal interrupts, possibly a
   session holding [sessions_m], and relocking it there kills that thread
   with the mutex held. The accept loop polls the flag through select's
   timeout (a signal cuts that short) and then nudges the sessions. *)
let request_stop state = Atomic.set state.stop true

(* Idle sessions are blocked reading their socket: shut the read half
   down so they see EOF and unwind; in-flight requests keep their write
   half and finish their reply. A session registers its socket before it
   first checks the flag, so none is missed. *)
let nudge_sessions state =
  Mutex.lock state.sessions_m;
  Hashtbl.iter
    (fun _ fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    state.sessions;
  Mutex.unlock state.sessions_m

(* --- sessions ----------------------------------------------------------- *)

let op_name = function
  | Protocol.Ping -> "ping"
  | Protocol.Metrics -> "metrics"
  | Protocol.Metrics_prom -> "metrics_prom"
  | Protocol.Shutdown -> "shutdown"
  | Protocol.Query _ -> "query"
  | Protocol.Catalog _ -> "catalog"

let process state (session : Session.t) decoded =
  match decoded with
  | Error (code, message) -> (None, Error (code, message))
  | Ok { Protocol.id; op } -> (
    match op with
    | Protocol.Ping ->
      (id, Ok (Protocol.ok ~id [ ("result", Json.String "pong") ]))
    | Protocol.Metrics -> (id, do_metrics ~id)
    | Protocol.Metrics_prom -> (id, do_metrics_prom ~id)
    | Protocol.Shutdown ->
      (id, Ok (Protocol.ok ~id [ ("result", Json.String "bye") ]))
    | Protocol.Query q -> (id, do_query state session ~id q)
    | Protocol.Catalog c -> (id, do_catalog session ~id c))

let handle_session state fd =
  let session =
    Session.create
      ~id:(Atomic.fetch_and_add state.next_session 1)
      ~catalog:state.config.catalog ~catalog_name:state.config.catalog_name
      ~strategy:state.config.strategy ~jobs:state.config.jobs
  in
  Mutex.lock state.sessions_m;
  Hashtbl.replace state.sessions session.id fd;
  Mutex.unlock state.sessions_m;
  Obs.Metrics.incr "server.sessions.opened";
  Obs.Metrics.add_gauge "server.sessions.active" 1.;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let respond line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    if Atomic.get state.stop then ()
    else
      match input_line ic with
      | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> ()
      | line when String.trim line = "" -> loop ()
      | line ->
        session.requests <- session.requests + 1;
        Obs.Metrics.incr "server.requests";
        let decoded = Protocol.request_of_line line in
        let opname =
          match decoded with
          | Error _ -> "invalid"
          | Ok { Protocol.op; _ } -> op_name op
        in
        let id, outcome =
          Obs.Trace.span ~cat:"request" opname
            ~args:(fun () ->
              [
                ("op", Obs.Trace.Str opname);
                ("session", Obs.Trace.Int session.id);
                ("request", Obs.Trace.Int session.requests);
              ])
            (fun () -> process state session decoded)
        in
        let shutdown_after = opname = "shutdown" && Result.is_ok outcome in
        (match outcome with
        | Ok reply -> respond reply
        | Error (code, message) ->
          session.errors <- session.errors + 1;
          Obs.Metrics.incr "server.request.errors";
          respond (Protocol.error ~id ~code ~message));
        if shutdown_after then request_stop state else loop ()
  in
  (match loop () with () -> () | exception _ -> ());
  Mutex.lock state.sessions_m;
  Hashtbl.remove state.sessions session.id;
  Mutex.unlock state.sessions_m;
  Obs.Metrics.add_gauge "server.sessions.active" (-1.);
  Obs.Metrics.incr "server.sessions.closed";
  log state "nestql: session %d closed (%d request(s), %d error(s))\n%!"
    session.id session.requests session.errors;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* --- listener ----------------------------------------------------------- *)

let bind_listener = function
  | Unix_socket path ->
    (* A stale socket file from a crashed server blocks the bind; remove
       it only if it is actually a socket (never clobber a regular
       file). *)
    (match Unix.lstat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
    | _ -> ()
    | exception Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    fd
  | Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    fd

let bind_name = function
  | Unix_socket path -> path
  | Tcp port -> Printf.sprintf "localhost:%d" port

let serve config =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  Obs.Metrics.enable ();
  match bind_listener config.bind with
  | exception Unix.Unix_error (err, _, _) ->
    Printf.eprintf "nestql: cannot bind %s: %s\n%!" (bind_name config.bind)
      (Unix.error_message err);
    1
  | listener ->
    Unix.listen listener 64;
    let stop_flag = Atomic.make false in
    let http =
      match config.http_port with
      | None -> Ok None
      | Some port -> (
        match
          Http.start ~port ~healthy:(fun () -> not (Atomic.get stop_flag))
        with
        | Ok h -> Ok (Some h)
        | Error msg -> Error msg)
    in
    match http with
    | Error msg ->
      Printf.eprintf "nestql: %s\n%!" msg;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      (match config.bind with
      | Unix_socket path -> (
        try Unix.unlink path with Unix.Unix_error _ -> ())
      | Tcp _ -> ());
      1
    | Ok http ->
    let state =
      {
        config;
        cache =
          Cache.create ~plan_capacity:config.plan_capacity
            ~result_capacity:config.result_capacity ();
        exec = Mutex.create ();
        stop = stop_flag;
        listener;
        sessions = Hashtbl.create 16;
        sessions_m = Mutex.create ();
        threads = ref [];
        next_session = Atomic.make 1;
      }
    in
    let on_signal _ = request_stop state in
    (try
       Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
       Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
     with Invalid_argument _ | Sys_error _ -> ());
    log state "nestql: serving on %s (jobs=%d, plan cache=%d, result \
               cache=%dB)\n%!"
      (bind_name config.bind) config.jobs config.plan_capacity
      config.result_capacity;
    (match http with
    | Some h -> log state "nestql: http metrics on localhost:%d\n%!" (Http.port h)
    | None -> ());
    (* Time-series snapshots for the sliding-window rate queries: one
       per minute, taken from the accept loop (its select timeout makes
       it the natural low-frequency ticker), plus a baseline at start. *)
    let last_window = ref neg_infinity in
    let window_tick () =
      let now = Unix.gettimeofday () in
      if now -. !last_window >= 60. then begin
        Obs.Metrics.window_record ~at_s:now;
        last_window := now
      end
    in
    let rec accept_loop () =
      if not (Atomic.get state.stop) then begin
        window_tick ();
        (match Unix.select [ listener ] [] [] 0.2 with
        | [], _, _ -> ()
        | _ :: _, _, _ -> (
          match Unix.accept ~cloexec:true listener with
          | fd, _addr ->
            if Atomic.get state.stop then Unix.close fd
            else
              state.threads :=
                Thread.create (handle_session state) fd :: !(state.threads)
          | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
          | exception Unix.Unix_error _ -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        accept_loop ()
      end
    in
    accept_loop ();
    nudge_sessions state;
    (try Unix.close listener with Unix.Unix_error _ -> ());
    (match config.bind with
    | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ());
    (* Wait for every nudged connection thread to unwind so their
       replies are fully flushed. *)
    List.iter Thread.join !(state.threads);
    (match http with Some h -> Http.stop h | None -> ());
    log state "nestql: shutdown complete\n%!";
    0
