(* Server subsystem: LRU mechanics, the wire protocol, the plan/result
   cache correctness contract (the qcheck differential oracle from
   docs/SERVER.md), stats-version invalidation, cross-domain races, and
   one in-process socket round trip through the real daemon. *)

open Helpers

module Lru = Server.Lru
module Cache = Server.Cache
module Protocol = Server.Protocol
module Json = Engine.Json

(* --- LRU ----------------------------------------------------------------- *)

let count_lru capacity = Lru.create ~capacity ~cost:(fun _ _ -> 1) ()

let test_lru_eviction_order () =
  let l = count_lru 3 in
  Lru.add l "a" 1;
  Lru.add l "b" 2;
  Lru.add l "c" 3;
  Alcotest.(check (list string)) "mru first" [ "c"; "b"; "a" ] (Lru.keys l);
  (* A hit promotes: "a" is saved, "b" becomes the victim. *)
  Alcotest.(check (option int)) "hit" (Some 1) (Lru.find l "a");
  Lru.add l "d" 4;
  Alcotest.(check (list string)) "b evicted" [ "d"; "a"; "c" ] (Lru.keys l);
  Alcotest.(check (option int)) "b gone" None (Lru.find l "b");
  Alcotest.(check int) "evictions" 1 (Lru.evictions l);
  Alcotest.(check int) "hits" 1 (Lru.hits l);
  Alcotest.(check int) "misses" 1 (Lru.misses l)

let test_lru_cost_bound () =
  let l = Lru.create ~capacity:10 ~cost:(fun _ v -> v) () in
  Lru.add l "a" 4;
  Lru.add l "b" 4;
  Alcotest.(check int) "cost 8" 8 (Lru.total_cost l);
  (* 4 more does not fit: the LRU tail ("a") goes. *)
  Lru.add l "c" 4;
  Alcotest.(check (list string)) "a evicted" [ "c"; "b" ] (Lru.keys l);
  Alcotest.(check int) "cost still 8" 8 (Lru.total_cost l);
  (* An entry larger than the whole cache is rejected, visibly. *)
  Lru.add l "huge" 11;
  Alcotest.(check bool) "huge rejected" false (Lru.mem l "huge");
  Alcotest.(check int) "rejection counted" 2 (Lru.evictions l)

let test_lru_replace () =
  let l = count_lru 3 in
  Lru.add l "a" 1;
  Lru.add l "b" 2;
  Lru.add l "a" 10;
  Alcotest.(check int) "no duplicate" 2 (Lru.length l);
  Alcotest.(check (list string)) "replaced entry is mru" [ "a"; "b" ]
    (Lru.keys l);
  Alcotest.(check (option int)) "new value" (Some 10) (Lru.find l "a")

let test_lru_on_evict () =
  let evicted = ref [] in
  let l =
    Lru.create
      ~on_evict:(fun k _ -> evicted := k :: !evicted)
      ~capacity:2
      ~cost:(fun _ _ -> 1)
      ()
  in
  Lru.add l "a" 1;
  Lru.add l "b" 2;
  Lru.add l "c" 3;
  Lru.add l "d" 4;
  Alcotest.(check (list string)) "evicted in lru order" [ "b"; "a" ]
    !evicted;
  (* remove does not fire the hook. *)
  Lru.remove l "c";
  Alcotest.(check int) "remove silent" 2 (List.length !evicted)

let test_lru_remove_if () =
  let evicted = ref 0 in
  let l =
    Lru.create ~on_evict:(fun _ _ -> incr evicted) ~capacity:100
      ~cost:(fun _ v -> v) ()
  in
  List.iter
    (fun (k, v) -> Lru.add l k v)
    [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ];
  Alcotest.(check int) "two odd entries removed" 2
    (Lru.remove_if l (fun _ v -> v mod 2 = 1));
  Alcotest.(check (list string)) "order kept" [ "d"; "b" ] (Lru.keys l);
  Alcotest.(check int) "cost released" 6 (Lru.total_cost l);
  Alcotest.(check int) "nothing matches" 0 (Lru.remove_if l (fun _ _ -> false));
  Alcotest.(check int) "not evictions" 0 (!evicted + Lru.evictions l)

let test_lru_cross_domain () =
  (* Four domains hammer one byte-bounded LRU; the invariants (bounded
     cost, no crash, sane counters) must hold under the races. *)
  let l = Lru.create ~capacity:64 ~cost:(fun _ v -> v) () in
  let worker seed () =
    let st = Random.State.make [| seed |] in
    for _ = 1 to 5_000 do
      let k = Random.State.int st 32 in
      if Random.State.bool st then Lru.add l k (1 + Random.State.int st 8)
      else ignore (Lru.find l k)
    done
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker (0x5eed + i))) in
  List.iter Domain.join domains;
  Alcotest.(check bool) "cost bounded" true (Lru.total_cost l <= 64);
  Alcotest.(check bool) "length sane" true (Lru.length l <= 64);
  Alcotest.(check bool) "lookups were accounted" true
    (Lru.hits l + Lru.misses l > 0
    && Lru.hits l + Lru.misses l <= 20_000)

(* --- protocol ------------------------------------------------------------ *)

let test_protocol_parse () =
  let ok s = Result.get_ok (Protocol.parse_json s) in
  Alcotest.(check bool) "object" true
    (ok {|{"op":"query","q":"x","jobs":2}|}
    = Json.Obj
        [ ("op", Json.String "query"); ("q", Json.String "x");
          ("jobs", Json.Int 2) ]);
  Alcotest.(check bool) "nested + escapes" true
    (ok {|{"a":[1,-2.5,true,null,"q\nxA"]}|}
    = Json.Obj
        [ ( "a",
            Json.List
              [ Json.Int 1; Json.Float (-2.5); Json.Bool true; Json.Null;
                Json.String "q\nxA" ] ) ]);
  let err s =
    match Protocol.parse_json s with
    | Error m -> m
    | Ok _ -> Alcotest.failf "parsed %S" s
  in
  Alcotest.(check string) "junk" "invalid literal at offset 0" (err "nope");
  Alcotest.(check string) "trailing" "trailing garbage at offset 3"
    (err "{} x");
  Alcotest.(check bool) "lone surrogate rejected" true
    (Result.is_error (Protocol.parse_json {|"\udc00"|}))

let test_protocol_requests () =
  (match Protocol.request_of_line {|{"id":7,"op":"ping"}|} with
  | Ok { Protocol.id = Some 7; op = Protocol.Ping } -> ()
  | _ -> Alcotest.fail "ping decode");
  (match
     Protocol.request_of_line
       {|{"op":"query","q":"SELECT 1","strategy":"kim","cache":false}|}
   with
  | Ok { Protocol.op = Protocol.Query q; _ } ->
    Alcotest.(check string) "q" "SELECT 1" q.Protocol.q;
    Alcotest.(check bool) "strategy" true
      (q.Protocol.strategy = Some Core.Pipeline.Kim_baseline);
    Alcotest.(check bool) "cache off" false q.Protocol.use_cache;
    Alcotest.(check bool) "bloom defaults on" true q.Protocol.bloom
  | _ -> Alcotest.fail "query decode");
  let expect_error line code =
    match Protocol.request_of_line line with
    | Error (c, _) -> Alcotest.(check string) line code c
    | Ok _ -> Alcotest.failf "accepted %s" line
  in
  expect_error "not json" "parse_error";
  expect_error {|[1,2]|} "parse_error";
  expect_error {|{"q":"x"}|} "bad_request";
  expect_error {|{"op":"frobnicate"}|} "bad_request";
  expect_error {|{"op":"query"}|} "bad_request";
  expect_error {|{"op":"query","q":"x","strategy":"quantum"}|} "bad_request";
  expect_error {|{"op":"query","q":"x","jobs":"many"}|} "bad_request";
  Alcotest.(check string) "error shape"
    {|{"id":3,"ok":false,"error":{"code":"timeout","message":"late"}}|}
    (Protocol.error ~id:(Some 3) ~code:"timeout" ~message:"late")

(* --- JSON string escaping ------------------------------------------------ *)

(* The reference escaper: one byte at a time, the rules of the protocol's
   string literals spelled out. *)
let reference_literal s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let test_json_escape_golden () =
  let lit s = Json.to_string (Json.String s) in
  let check name expected s = Alcotest.(check string) name expected (lit s) in
  check "empty" {|""|} "";
  check "quote" {|"\""|} "\"";
  check "backslash" {|"\\"|} "\\";
  check "short escapes" {|"a\nb\rc\td"|} "a\nb\rc\td";
  check "every control byte"
    ({|"\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n|}
    ^ {|\u000b\u000c\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014|}
    ^ {|\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d|}
    ^ {|\u001e\u001f"|})
    (String.init 32 Char.chr);
  let utf8 = "h\xc3\xa9 \xe2\x9c\x93 \xf0\x9d\x84\x9e\x7f" in
  check "utf-8 and DEL pass through" ("\"" ^ utf8 ^ "\"") utf8;
  let run = String.make 10_000 'x' in
  check "a long plain run between two escapes"
    ({|"\"|} ^ run ^ {|\n"|})
    ("\"" ^ run ^ "\n");
  Alcotest.(check string) "keys escape too, raw fragments do not"
    {|{"a\"b":"x\"y"}|}
    (Json.to_string (Json.Obj [ ("a\"b", Json.Raw {|"x\"y"|}) ]))

(* Arbitrary bytes, weighted towards the ones that need escaping. *)
let gen_bytes =
  QCheck2.Gen.(
    string_size
      ~gen:
        (frequency
           [ (3, char); (1, oneofl [ '"'; '\\'; '\n'; '\000'; '\031' ]) ])
      (int_range 0 200))

let escape_prop s =
  let lit = Json.to_string (Json.String s) in
  String.equal lit (reference_literal s)
  && Protocol.parse_json lit = Ok (Json.String s)

(* --- cache correctness --------------------------------------------------- *)

let gen_catalog = Workload.Gen.xy Workload.Gen.default_xy
let corpus = Array.of_list (Workload.Gen.queries ~count:60 ~seed:0x5eed ())

let stats_of f =
  let stats = Engine.Stats.create () in
  let r = f stats in
  (r, stats)

(* What a client reads from a reply's result: the literal, decoded. *)
let decoded (r : Cache.reply) =
  match Protocol.parse_json r.Cache.result_json with
  | Ok (Json.String s) -> s
  | _ -> Alcotest.failf "not a JSON string literal: %s" r.Cache.result_json

(* The reference rendering: compiled and executed with no cache at all. *)
let uncached ?(strategy = Core.Pipeline.Decorrelated) catalog src =
  let expr = Result.get_ok (Lang.Parser.expr_result src) in
  let compiled =
    Result.get_ok (Core.Pipeline.compile strategy catalog expr)
  in
  Value.to_string (Core.Pipeline.execute ~jobs:1 catalog compiled)

let check_bytes msg ~expected r =
  Alcotest.(check string) msg expected r.Cache.result_json

(* The differential oracle: for any corpus query, (1) a cache-off run,
   (2) the cache-miss run that fills the cache, and (3) the plan-hit run
   agree on the reply bytes and the full Engine.Stats work profile, and
   those bytes decode to the uncached rendering; (4) the result-cache hit
   replays the same bytes. *)
let oracle_prop idx =
  let src = corpus.(idx mod Array.length corpus) in
  let strategy = Core.Pipeline.Decorrelated in
  let cache = Cache.create ~plan_capacity:8 ~result_capacity:(1 lsl 20) () in
  let run ?cache:(c = true) t =
    stats_of (fun stats ->
        Cache.query t ~cache:c ~stats ~jobs:1 strategy gen_catalog src)
  in
  let off, off_stats = run ~cache:false cache in
  let miss, miss_stats = run cache in
  let hit, hit_stats =
    (* A cache without results: its second run re-executes through the
       plan its first run cached. *)
    let plans_only = Cache.create ~plan_capacity:8 ~result_capacity:0 () in
    ignore (run plans_only);
    run plans_only
  in
  let replay, _ = run cache in
  match (off, miss, hit, replay) with
  | Ok off, Ok miss, Ok hit, Ok replay ->
    let bytes = off.Cache.result_json in
    String.equal (decoded off) (uncached gen_catalog src)
    && List.for_all
         (fun r -> String.equal r.Cache.result_json bytes)
         [ miss; hit; replay ]
    && off_stats = miss_stats && off_stats = hit_stats
    && off.Cache.plan = Cache.Bypass
    && miss.Cache.plan = Cache.Miss
    && hit.Cache.plan = Cache.Hit
    && replay.Cache.result = Cache.Hit
  | Error a, Error b, Error c, Error d ->
    (* Failing queries must fail identically with and without caching. *)
    a = b && a = c && a = d
  | _ -> false

let test_cache_outcomes () =
  let cache = Cache.create ~plan_capacity:8 ~result_capacity:4096 () in
  let q =
    "SELECT x.id FROM X x WHERE x.id IN (SELECT y.id FROM Y y WHERE y.b = \
     x.b)"
  in
  let run () =
    Result.get_ok
      (Cache.query cache Core.Pipeline.Decorrelated gen_catalog q)
  in
  let first = run () in
  Alcotest.(check string) "first is a double miss" "miss/miss"
    (Cache.outcome_name first.Cache.plan ^ "/"
    ^ Cache.outcome_name first.Cache.result);
  let second = run () in
  Alcotest.(check string) "second is a double hit" "hit/hit"
    (Cache.outcome_name second.Cache.plan ^ "/"
    ^ Cache.outcome_name second.Cache.result);
  Alcotest.(check string) "decodes to the uncached rendering"
    (uncached gen_catalog q) (decoded first);
  check_bytes "same bytes" ~expected:first.Cache.result_json second;
  (* Whitespace and comments normalize into the same plan key. *)
  let third =
    Result.get_ok
      (Cache.query cache Core.Pipeline.Decorrelated gen_catalog
         ("SELECT   x.id FROM X x\n  WHERE x.id IN (SELECT y.id FROM Y y \
           WHERE y.b = x.b)"))
  in
  Alcotest.(check bool) "normalized plan key hits" true
    (third.Cache.plan = Cache.Hit);
  Alcotest.(check int) "result entries" 1 (Cache.result_entries cache);
  Alcotest.(check bool) "result bytes accounted" true
    (Cache.result_bytes cache > 0)

let test_result_admission_policy () =
  (* The admission policy: a result costing more than admit_fraction
     (default 1/4) of the byte budget is served but never cached — the
     second identical query re-executes (result miss through a plan
     hit) instead of replaying, and each denial is counted. *)
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  let cache = Cache.create ~plan_capacity:8 ~result_capacity:4096 () in
  let big = "SELECT x FROM X x" in
  let small = "SELECT x.id FROM X x WHERE x.id = 1" in
  let run q =
    Result.get_ok (Cache.query cache Core.Pipeline.Decorrelated gen_catalog q)
  in
  let first = run big in
  Alcotest.(check int) "oversized result not admitted" 0
    (Cache.result_entries cache);
  let second = run big in
  Alcotest.(check string) "re-executes: plan hit, result miss" "hit/miss"
    (Cache.outcome_name second.Cache.plan ^ "/"
    ^ Cache.outcome_name second.Cache.result);
  check_bytes "served identically" ~expected:first.Cache.result_json second;
  Alcotest.(check string) "as the uncached rendering"
    (uncached gen_catalog big) (decoded second);
  Alcotest.(check int) "denials counted" 2
    (Obs.Metrics.counter "server.result_cache.skipped_large");
  let s1 = run small in
  let s2 = run small in
  Alcotest.(check int) "small result admitted" 1 (Cache.result_entries cache);
  Alcotest.(check bool) "and replayed" true (s2.Cache.result = Cache.Hit);
  check_bytes "replay agrees" ~expected:s1.Cache.result_json s2;
  Alcotest.(check string) "with the uncached rendering"
    (uncached gen_catalog small) (decoded s2);
  Alcotest.(check int) "no further denials" 2
    (Obs.Metrics.counter "server.result_cache.skipped_large");
  Obs.Metrics.disable ();
  Obs.Metrics.reset ()

let test_stats_version_invalidation () =
  let cache = Cache.create ~plan_capacity:8 ~result_capacity:(1 lsl 20) () in
  let q = "SELECT x.id FROM X x WHERE x.a > 0" in
  let run catalog =
    Result.get_ok (Cache.query cache Core.Pipeline.Decorrelated catalog q)
  in
  ignore (run gen_catalog);
  let again = run gen_catalog in
  Alcotest.(check bool) "same catalog hits" true
    (again.Cache.plan = Cache.Hit && again.Cache.result = Cache.Hit);
  (* A new catalog value — even with identical content — carries a new
     statistics version, so it reaches none of the old keys. *)
  let rebuilt = Workload.Gen.xy Workload.Gen.default_xy in
  Alcotest.(check bool) "fresh stats version" true
    (Cobj.Stats.version rebuilt <> Cobj.Stats.version gen_catalog);
  let after = run rebuilt in
  Alcotest.(check bool) "catalog change misses" true
    (after.Cache.plan = Cache.Miss && after.Cache.result = Cache.Miss);
  check_bytes "but agrees" ~expected:again.Cache.result_json after;
  Alcotest.(check string) "with the uncached rendering"
    (uncached rebuilt q) (decoded after);
  (* Nothing is flushed: a reader still on the old catalog keeps its
     result. *)
  let old = run gen_catalog in
  Alcotest.(check bool) "old catalog still hits" true
    (old.Cache.result = Cache.Hit);
  check_bytes "old result agrees" ~expected:after.Cache.result_json old;
  Alcotest.(check int) "one result per catalog" 2 (Cache.result_entries cache)

let test_strategy_cache_keying () =
  (* The plan key includes the strategy, so the same query text under the
     nest-join and shredding backends must occupy distinct slots — a hit
     must never replay a plan compiled for the other backend. *)
  let cache = Cache.create ~plan_capacity:8 ~result_capacity:(1 lsl 20) () in
  let q =
    "SELECT (i = x.id, zs = (SELECT y.a FROM Y y WHERE y.b = x.b)) FROM X x"
  in
  let run strategy =
    Result.get_ok (Cache.query cache strategy gen_catalog q)
  in
  let nest = run Core.Pipeline.Decorrelated in
  Alcotest.(check string) "nest-join first run misses" "miss"
    (Cache.outcome_name nest.Cache.plan);
  let shred = run Core.Pipeline.Shredded in
  Alcotest.(check string) "shredding misses despite the warm cache" "miss"
    (Cache.outcome_name shred.Cache.plan);
  Alcotest.(check int) "one plan slot per backend" 2
    (Cache.plan_entries cache);
  check_bytes "backends agree" ~expected:nest.Cache.result_json shred;
  Alcotest.(check string) "with the uncached rendering"
    (uncached gen_catalog q) (decoded nest);
  let nest2 = run Core.Pipeline.Decorrelated in
  let shred2 = run Core.Pipeline.Shredded in
  Alcotest.(check string) "nest-join replays its own plan" "hit"
    (Cache.outcome_name nest2.Cache.plan);
  Alcotest.(check string) "shredding replays its own plan" "hit"
    (Cache.outcome_name shred2.Cache.plan);
  Alcotest.(check int) "no extra slots on replay" 2
    (Cache.plan_entries cache);
  check_bytes "replayed bytes agree" ~expected:nest2.Cache.result_json shred2

let test_cache_cross_domain () =
  (* Concurrent sessions share one cache; hammer it from four domains
     with queries on two catalogs, as when one session has reloaded. *)
  let cache = Cache.create ~plan_capacity:4 ~result_capacity:8192 () in
  let reloaded = Workload.Gen.xy { Workload.Gen.default_xy with seed = 7 } in
  let queries =
    [|
      "SELECT x.id FROM X x WHERE x.a > 0";
      "SELECT y.id FROM Y y WHERE y.b = 1";
      "SELECT x.id FROM X x WHERE x.id IN (SELECT y.id FROM Y y WHERE y.b \
       = x.b)";
      "SELECT x.a FROM X x";
      "SELECT x.id FROM X x WHERE COUNT(SELECT y.id FROM Y y WHERE y.b = \
       x.b) = 0";
    |]
  in
  let expected catalog =
    Array.map
      (fun q ->
        (Result.get_ok
           (Cache.query cache ~cache:false Core.Pipeline.Decorrelated catalog
              q))
          .Cache.result_json)
      queries
  in
  let expected_gen = expected gen_catalog in
  let expected_reloaded = expected reloaded in
  Alcotest.(check bool) "the catalogs answer differently" false
    (Array.for_all2 String.equal expected_gen expected_reloaded);
  let failures = Atomic.make 0 in
  let worker seed () =
    let st = Random.State.make [| seed |] in
    for _ = 1 to 200 do
      let i = Random.State.int st (Array.length queries) in
      let catalog, expected =
        if Random.State.int st 20 = 0 then (reloaded, expected_reloaded)
        else (gen_catalog, expected_gen)
      in
      match
        Cache.query cache Core.Pipeline.Decorrelated catalog queries.(i)
      with
      | Ok r when String.equal r.Cache.result_json expected.(i) -> ()
      | _ -> Atomic.incr failures
    done
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker (77 + i))) in
  List.iter Domain.join domains;
  Alcotest.(check int) "all racing lookups agree" 0 (Atomic.get failures);
  Alcotest.(check bool) "plan cache bounded" true
    (Cache.plan_entries cache <= 4)

(* A result entry is charged its heap: at least the words reachable from
   its key and its entry record, and never more than twice that. *)
let test_result_entry_cost () =
  let strategy = Core.Pipeline.Decorrelated in
  List.iter
    (fun q ->
      let cache =
        Cache.create ~plan_capacity:8 ~result_capacity:(1 lsl 22) ()
      in
      let r = Result.get_ok (Cache.query cache strategy gen_catalog q) in
      Alcotest.(check int) (q ^ ": admitted") 1 (Cache.result_entries cache);
      let key =
        Result.get_ok (Core.Pipeline.plan_key_string strategy gen_catalog q)
      in
      (* The entry record's shape: literal, rows, stamp. *)
      let entry = (r.Cache.result_json, r.Cache.rows, 0) in
      let heap =
        (Sys.word_size / 8)
        * (Obj.reachable_words (Obj.repr key)
          + Obj.reachable_words (Obj.repr entry))
      in
      let charged = Cache.result_bytes cache in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d bytes charged for %d of heap" q charged heap)
        true
        (charged >= heap && charged <= 2 * heap))
    [
      "SELECT x.id FROM X x WHERE x.id = 1";
      "SELECT x.id FROM X x WHERE x.a > 0";
      "SELECT (i = x.id, zs = (SELECT y.a FROM Y y WHERE y.b = x.b)) FROM X x";
    ]

(* A session that reloads its catalog 50 times leaves one plan and one
   result per reload; once those catalogs are collected, the next query
   purges them all, and only the live catalog's entries remain. *)
let test_dead_catalogs_purged () =
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  let cache = Cache.create ~plan_capacity:128 ~result_capacity:(1 lsl 22) () in
  let q = "SELECT x.id FROM X x WHERE x.a > 0" in
  let ask catalog =
    match Cache.query cache Core.Pipeline.Decorrelated catalog q with
    | Ok r -> r
    | Error _ -> Alcotest.fail "query failed"
  in
  let[@inline never] session () =
    for seed = 1 to 50 do
      ignore (ask (Workload.Gen.xy { Workload.Gen.default_xy with seed }))
    done
  in
  session ();
  Gc.full_major ();
  let live = ask gen_catalog in
  Alcotest.(check string) "live catalog served" "miss"
    (Cache.outcome_name live.Cache.result);
  Alcotest.(check int) "one plan left" 1 (Cache.plan_entries cache);
  Alcotest.(check int) "one result left" 1 (Cache.result_entries cache);
  Alcotest.(check int) "plans purged" 50
    (Obs.Metrics.counter "server.cache.plan.purged");
  Alcotest.(check int) "results purged" 50
    (Obs.Metrics.counter "server.cache.result.purged");
  Alcotest.(check int) "no evictions" 0
    (Cache.plan_evictions cache + Cache.result_evictions cache);
  Alcotest.(check string) "the live entry still hits" "hit"
    (Cache.outcome_name (ask gen_catalog).Cache.result);
  Obs.Metrics.disable ();
  Obs.Metrics.reset ()

(* --- daemon round trip --------------------------------------------------- *)

let test_daemon_round_trip () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nestql-test-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let config =
    {
      Server.Daemon.default_config with
      Server.Daemon.bind = Server.Daemon.Unix_socket path;
      catalog = gen_catalog;
      quiet = true;
    }
  in
  let exit_code = ref (-1) in
  let server = Thread.create (fun () -> exit_code := Server.Daemon.serve config) () in
  match
    Server.Client.connect ~wait_ms:5000 (Server.Daemon.Unix_socket path)
  with
  | Error msg -> Alcotest.failf "connect: %s" msg
  | Ok conn ->
    let ask line = Result.get_ok (Server.Client.request conn line) in
    let field name reply =
      match Protocol.member name reply with
      | Some v -> v
      | None -> Alcotest.failf "reply lacks %s" name
    in
    let pong = ask (Server.Client.obj ~op:"ping" []) in
    Alcotest.(check bool) "pong" true
      (field "result" pong = Json.String "pong");
    let q = "SELECT x.id FROM X x WHERE x.a > 0" in
    let r1 = ask (Server.Client.obj ~op:"query" [ ("q", Json.String q) ]) in
    let r2 = ask (Server.Client.obj ~op:"query" [ ("q", Json.String q) ]) in
    Alcotest.(check bool) "same result" true
      (field "result" r1 = field "result" r2);
    (match field "cache" r2 with
    | Json.Obj c ->
      Alcotest.(check bool) "second query hits" true
        (List.assoc_opt "plan" c = Some (Json.String "hit"))
    | _ -> Alcotest.fail "cache field");
    let bye = ask (Server.Client.obj ~op:"shutdown" []) in
    Alcotest.(check bool) "bye" true (field "result" bye = Json.String "bye");
    Server.Client.close conn;
    Thread.join server;
    Alcotest.(check int) "graceful exit" 0 !exit_code;
    Alcotest.(check bool) "socket removed" true (not (Sys.file_exists path));
    (* The daemon enabled the global metrics registry; put it back so
       later suites see the default-off state. *)
    Obs.Metrics.disable ();
    Obs.Metrics.reset ()

(* --- instrumented replies ------------------------------------------------ *)

(* instrument:true must change only the observability payload of the
   reply (tree, misest, digest), never the result. *)
let test_instrument_identity () =
  let cache = Cache.create ~plan_capacity:8 ~result_capacity:0 () in
  let q = "SELECT x.id FROM X x WHERE x.a IN (SELECT y.a FROM Y y)" in
  let ask instrument =
    match
      Cache.query cache ~instrument Core.Pipeline.Decorrelated gen_catalog q
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail "query failed"
  in
  let plain = ask false and instrumented = ask true in
  Alcotest.(check string) "rendered results byte-identical"
    plain.Cache.result_json instrumented.Cache.result_json;
  Alcotest.(check int) "row counts equal" plain.Cache.rows
    instrumented.Cache.rows;
  Alcotest.(check bool) "plain run has no tree" true
    (plain.Cache.tree = None);
  Alcotest.(check bool) "instrumented run has a tree" true
    (instrumented.Cache.tree <> None);
  Alcotest.(check bool) "digest is stable" true
    (String.length plain.Cache.digest = 32
    && plain.Cache.digest = instrumented.Cache.digest)

(* --- slow-query accounting ----------------------------------------------- *)

(* One daemon with slow_ms = Some 0 (every query is slow) and one with a
   huge threshold: slow.query lines and the server.slow_queries counter
   appear iff duration >= threshold. The qlog sink is routed to a temp
   file through the environment, as in production. *)
let daemon_qlog ~slow_ms ~queries =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nestql-slow-%d-%d.sock" (Unix.getpid ())
         (Option.value slow_ms ~default:(-1)))
  in
  if Sys.file_exists sock then Sys.remove sock;
  let qlog = Filename.temp_file "nestql" ".qlog.jsonl" in
  let saved = Sys.getenv_opt "NESTQL_QUERY_LOG" in
  Unix.putenv "NESTQL_QUERY_LOG" qlog;
  let config =
    {
      Server.Daemon.default_config with
      Server.Daemon.bind = Server.Daemon.Unix_socket sock;
      catalog = gen_catalog;
      slow_ms;
      quiet = true;
    }
  in
  let server = Thread.create (fun () -> ignore (Server.Daemon.serve config)) () in
  let lines =
    match
      Server.Client.connect ~wait_ms:5000 (Server.Daemon.Unix_socket sock)
    with
    | Error msg -> Alcotest.failf "connect: %s" msg
    | Ok conn ->
      List.iter
        (fun q ->
          ignore
            (Result.get_ok
               (Server.Client.request conn
                  (Server.Client.obj ~op:"query" [ ("q", Json.String q) ]))))
        queries;
      let slow_counter = Obs.Metrics.counter "server.slow_queries" in
      ignore
        (Result.get_ok
           (Server.Client.request conn (Server.Client.obj ~op:"shutdown" [])));
      Server.Client.close conn;
      Thread.join server;
      let ic = open_in qlog in
      let rec read acc =
        match input_line ic with
        | line -> read (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      let lines = read [] in
      close_in ic;
      (lines, slow_counter)
  in
  Sys.remove qlog;
  (* There is no unsetenv; /dev/null keeps a stray later emit harmless
     when the variable was not set before the test. *)
  Unix.putenv "NESTQL_QUERY_LOG" (Option.value saved ~default:"/dev/null");
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  lines

let test_slow_query_log () =
  let q = "SELECT x.id FROM X x WHERE x.a IN (SELECT y.a FROM Y y)" in
  let has affix line = Astring.String.is_infix ~affix line in
  (* threshold 0: every query is slow *)
  let lines, slow_counter = daemon_qlog ~slow_ms:(Some 0) ~queries:[ q; q ] in
  let serve_lines = List.filter (has "\"event\":\"serve.query\"") lines in
  let slow_lines = List.filter (has "\"event\":\"slow.query\"") lines in
  Alcotest.(check int) "one serve.query per query" 2
    (List.length serve_lines);
  Alcotest.(check int) "every query over a 0ms threshold is slow" 2
    (List.length slow_lines);
  Alcotest.(check int) "server.slow_queries counts them" 2 slow_counter;
  List.iter
    (fun line ->
      Alcotest.(check bool) "serve.query carries cache outcomes" true
        (has "\"plan_cache\":" line && has "\"result_cache\":" line))
    serve_lines;
  (match slow_lines with
  | first :: _ ->
    Alcotest.(check bool) "slow line carries the plan digest" true
      (has "\"plan_digest\":" first);
    Alcotest.(check bool) "slow line carries the threshold" true
      (has "\"threshold_ms\":0" first);
    Alcotest.(check bool) "slow line carries cache outcomes" true
      (has "\"plan_cache\":" first);
    (* the first execution is uncached and instrumented: hot operators
       and misestimates are populated *)
    Alcotest.(check bool) "slow line names hot operators" true
      (has "\"hot\":\"" first && not (has "\"hot\":\"\"" first))
  | [] -> Alcotest.fail "no slow line");
  (* a threshold no real query reaches: nothing is slow *)
  let lines, slow_counter =
    daemon_qlog ~slow_ms:(Some 3_600_000) ~queries:[ q ]
  in
  Alcotest.(check int) "serve.query still logged" 1
    (List.length (List.filter (has "\"event\":\"serve.query\"") lines));
  Alcotest.(check int) "no slow lines under threshold" 0
    (List.length (List.filter (has "\"event\":\"slow.query\"") lines));
  Alcotest.(check int) "counter untouched" 0 slow_counter

(* --- prometheus endpoint ------------------------------------------------- *)

let http_get port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      drain ();
      Buffer.contents buf)

let test_http_metrics_endpoint () =
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Obs.Metrics.incr ~by:7 "http.test.counter";
  let healthy = Atomic.make true in
  match Server.Http.start ~port:0 ~healthy:(fun () -> Atomic.get healthy) with
  | Error msg -> Alcotest.failf "http start: %s" msg
  | Ok listener ->
    let port = Server.Http.port listener in
    let page = http_get port "/metrics" in
    Alcotest.(check bool) "200 with prometheus content type" true
      (Astring.String.is_prefix ~affix:"HTTP/1.0 200 OK" page
      && Astring.String.is_infix ~affix:Obs.Prom.content_type page);
    Alcotest.(check bool) "registry rendered" true
      (Astring.String.is_infix
         ~affix:"# TYPE nestql_http_test_counter counter" page
      && Astring.String.is_infix ~affix:"nestql_http_test_counter 7" page);
    Alcotest.(check bool) "healthz ok" true
      (Astring.String.is_prefix ~affix:"HTTP/1.0 200 OK"
         (http_get port "/healthz"));
    Atomic.set healthy false;
    Alcotest.(check bool) "healthz 503 once draining" true
      (Astring.String.is_prefix ~affix:"HTTP/1.0 503"
         (http_get port "/healthz"));
    Alcotest.(check bool) "unknown path 404" true
      (Astring.String.is_prefix ~affix:"HTTP/1.0 404"
         (http_get port "/nope"));
    Server.Http.stop listener;
    Obs.Metrics.reset ();
    Obs.Metrics.disable ();
    (* the listener socket is closed: a fresh connect must fail *)
    Alcotest.(check bool) "listener closed after stop" true
      (match http_get port "/metrics" with
      | _ -> false
      | exception Unix.Unix_error _ -> true)

(* --- metrics_prom protocol op -------------------------------------------- *)

let test_metrics_prom_op () =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nestql-prom-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists sock then Sys.remove sock;
  let config =
    {
      Server.Daemon.default_config with
      Server.Daemon.bind = Server.Daemon.Unix_socket sock;
      catalog = gen_catalog;
      quiet = true;
    }
  in
  let server =
    Thread.create (fun () -> ignore (Server.Daemon.serve config)) ()
  in
  (match
     Server.Client.connect ~wait_ms:5000 (Server.Daemon.Unix_socket sock)
   with
  | Error msg -> Alcotest.failf "connect: %s" msg
  | Ok conn ->
    let ask line = Result.get_ok (Server.Client.request conn line) in
    ignore
      (ask
         (Server.Client.obj ~op:"query"
            [ ("q", Json.String "SELECT x.id FROM X x WHERE x.a > 0") ]));
    let reply = ask (Server.Client.obj ~op:"metrics_prom" []) in
    (match Protocol.member "prom" reply with
    | Some (Json.String page) ->
      Alcotest.(check bool) "page has the requests family" true
        (Astring.String.is_infix
           ~affix:"# TYPE nestql_server_requests counter" page);
      Alcotest.(check bool) "page has the latency histogram" true
        (Astring.String.is_infix
           ~affix:"# TYPE nestql_server_request_us histogram" page);
      Alcotest.(check bool) "labeled duration histogram present" true
        (Astring.String.is_infix ~affix:"nestql_server_query_duration_us"
           page)
    | _ -> Alcotest.fail "metrics_prom reply lacks prom text");
    ignore (ask (Server.Client.obj ~op:"shutdown" []));
    Server.Client.close conn);
  Thread.join server;
  Obs.Metrics.disable ();
  Obs.Metrics.reset ()

let suite =
  [
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru cost bound" `Quick test_lru_cost_bound;
    Alcotest.test_case "lru replace" `Quick test_lru_replace;
    Alcotest.test_case "lru on_evict" `Quick test_lru_on_evict;
    Alcotest.test_case "lru remove_if" `Quick test_lru_remove_if;
    Alcotest.test_case "lru cross-domain races" `Quick test_lru_cross_domain;
    Alcotest.test_case "protocol json parser" `Quick test_protocol_parse;
    Alcotest.test_case "protocol requests" `Quick test_protocol_requests;
    Alcotest.test_case "json escaping golden cases" `Quick
      test_json_escape_golden;
    qcheck ~count:500 "json escaping matches the reference" gen_bytes
      escape_prop;
    qcheck ~count:120 "cache differential oracle"
      QCheck2.Gen.(int_range 0 (Array.length corpus - 1))
      oracle_prop;
    Alcotest.test_case "cache outcomes" `Quick test_cache_outcomes;
    Alcotest.test_case "result-cache admission policy" `Quick
      test_result_admission_policy;
    Alcotest.test_case "stats-version invalidation" `Quick
      test_stats_version_invalidation;
    Alcotest.test_case "strategy-keyed plan cache" `Quick
      test_strategy_cache_keying;
    Alcotest.test_case "cache cross-domain races" `Quick
      test_cache_cross_domain;
    Alcotest.test_case "result entry cost is its heap" `Quick
      test_result_entry_cost;
    Alcotest.test_case "dead catalogs are purged" `Quick
      test_dead_catalogs_purged;
    Alcotest.test_case "daemon round trip" `Quick test_daemon_round_trip;
    Alcotest.test_case "instrumented replies are identical" `Quick
      test_instrument_identity;
    Alcotest.test_case "slow-query log iff threshold" `Quick
      test_slow_query_log;
    Alcotest.test_case "http metrics endpoint" `Quick
      test_http_metrics_endpoint;
    Alcotest.test_case "metrics_prom protocol op" `Quick test_metrics_prom_op;
  ]
