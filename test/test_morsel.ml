(* Morsel-driven parallelism: the pool's region discipline and first-error
   rule, the row-count gate, and the composite-key kernels the probe loop
   runs on. *)

open Helpers
module Env = Cobj.Env
module P = Engine.Physical
module Exec = Engine.Exec
module Pool = Engine.Pool
module Stats = Engine.Stats
module Trace = Obs.Trace

let parse = Lang.Parser.expr

(* --- the pool ------------------------------------------------------- *)

(* Two items fail with different messages; the later-indexed one fails
   first in time (the other waits), yet the caller sees the exception a
   serial loop would raise: the lowest failing item's. *)
let lowest_failure_wins () =
  List.iter
    (fun jobs ->
      let ran_late = Atomic.make false in
      let raised =
        match
          Pool.run ~jobs 8 (fun i ->
              if i = 1 then begin
                Unix.sleepf 0.02;
                Atomic.set ran_late true;
                failwith "item 1"
              end
              else if i = 2 then failwith "item 2")
        with
        | () -> None
        | exception Failure m -> Some m
      in
      Alcotest.(check (option string))
        (Printf.sprintf "jobs=%d: lowest item's error" jobs)
        (Some "item 1") raised;
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: item 1 ran to its raise" jobs)
        true (Atomic.get ran_late);
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: no worker left" jobs)
        0 (Pool.size ()))
    [ 2; 4 ]

let no_idle_worker () =
  let seen = Atomic.make 0 in
  Pool.run ~jobs:2 4 (fun _ ->
      let s = Pool.size () in
      if s > Atomic.get seen then Atomic.set seen s);
  Alcotest.(check int) "one worker inside the region" 1 (Atomic.get seen);
  Alcotest.(check int) "none after it" 0 (Pool.size ())

(* --- the gate ------------------------------------------------------- *)

let catalog ?(ny = 0) ?(key_dom = 10) n =
  let ny = if ny = 0 then n else ny in
  Workload.Gen.xy
    { Workload.Gen.default_xy with nx = n; ny; key_dom; seed = 5 }

let nest_join =
  keyed_join P.Hash (P.Nest { func = parse "y.a"; label = "g" }) (parse "x.b")
    (parse "y.b") (P.Scan { table = "X"; var = "x" })
    (P.Scan { table = "Y"; var = "y" })

let morsel_spans () =
  List.length
    (List.filter
       (fun (e : Trace.view) -> e.Trace.cat = "morsel")
       (Trace.events ()))

(* [f ()] and the morsel spans it emitted. *)
let traced f =
  let path = Filename.temp_file "nestql" ".trace.json" in
  Trace.start ~path;
  let v =
    Fun.protect ~finally:Trace.stop (fun () ->
        let v = f () in
        (v, morsel_spans ()))
  in
  Sys.remove path;
  v

let run_join ?gate ~jobs cat =
  let stats = Stats.create () in
  let rows = Exec.rows ~stats ~jobs ?gate cat Env.empty nest_join in
  (rows, stats)

(* A 40-row join at jobs 4 stays under the gate: no morsel span, no
   morsel counted. The same join with the gate lowered takes the morsel
   path, returns the same rows and counters, and leaves no worker. *)
let small_join_stays_serial () =
  let cat = catalog 40 in
  let serial, s1 = run_join ~jobs:1 cat in
  let (rows, st), spans = traced (fun () -> run_join ~jobs:4 cat) in
  Alcotest.(check int) "no morsel spans" 0 spans;
  Alcotest.(check int) "no morsels" 0 st.Stats.partitions;
  Alcotest.(check bool) "same rows" true (List.equal Env.equal serial rows);
  let (rows, st), spans = traced (fun () -> run_join ~gate:1 ~jobs:4 cat) in
  Alcotest.(check bool) "morsel spans when gated down" true (spans > 0);
  Alcotest.(check int) "one span per morsel" st.Stats.partitions spans;
  Alcotest.(check bool) "same rows at gate 1" true
    (List.equal Env.equal serial rows);
  Alcotest.(check bool) "same counters at gate 1" true
    ({ st with Stats.partitions = 0; partition_max_rows = 0 } = s1);
  Alcotest.(check int) "no worker after a parallel query" 0 (Pool.size ())

(* The gate is on actual probe rows: a join whose probe side reaches
   [Exec.parallel_rows] runs as morsels with the default gate. *)
let gate_on_probe_rows () =
  let n = Exec.parallel_rows in
  let big n = catalog ~ny:20 ~key_dom:1000 n in
  let _, below = run_join ~jobs:2 (big (n - 1)) in
  Alcotest.(check int) "below the gate: serial" 0 below.Stats.partitions;
  let _, at = run_join ~jobs:2 (big n) in
  Alcotest.(check bool) "at the gate: morsels" true (at.Stats.partitions > 0);
  Alcotest.(check int) "no worker left" 0 (Pool.size ())

(* --- composite keys ------------------------------------------------- *)

(* The row path: every expression through the [Compile] closures. *)
let without_kernels f =
  Engine.Compile.enabled := false;
  Fun.protect ~finally:(fun () -> Engine.Compile.enabled := true) f

let outcome f =
  let stats = Stats.create () in
  let r =
    match f stats with
    | v -> Ok v
    | exception Cobj.Value.Type_error m -> Error m
    | exception Lang.Interp.Undefined m -> Error m
  in
  (r, stats)

let same_outcome what (a, sa) (b, sb) =
  (match (a, b) with
  | Ok x, Ok y -> Alcotest.check value (what ^ ": value") x y
  | Error x, Error y -> Alcotest.(check string) (what ^ ": error") x y
  | Ok _, Error m | Error m, Ok _ ->
    Alcotest.failf "%s: only one side failed (%s)" what m);
  Alcotest.(check bool) (what ^ ": stats") true (sa = sb)

(* Decorrelated IN and NOT IN join on [(k0 = x.b, k1 = x.a)]: kernels, the
   row path and morsels (gate 1, jobs 4) agree on the value and on every
   counter, including when a component kernel raises (10 / y.a meets a
   zero) — the error and the counters at it are the row path's. *)
let composite_kernels_match_rows () =
  let cat = catalog 200 in
  List.iter
    (fun src ->
      match
        Core.Pipeline.compile_string Core.Pipeline.Decorrelated cat src
      with
      | Error m -> Alcotest.failf "compile failed on %s: %s" src m
      | Ok { Core.Pipeline.physical = None; _ } ->
        Alcotest.failf "no physical plan for %s" src
      | Ok { Core.Pipeline.physical = Some pq; _ } ->
        let run ?gate ~jobs () =
          outcome (fun stats ->
              Exec.run_under ~stats ~jobs ?gate ~batch:64 cat Env.empty pq)
        in
        let kern = run ~jobs:1 () in
        let rows = without_kernels (run ~jobs:1) in
        same_outcome ("kernels vs rows on " ^ src) kern rows;
        let r, s = run ~gate:1 ~jobs:4 () in
        same_outcome ("morsels vs serial on " ^ src) kern
          (r, { s with Stats.partitions = 0; partition_max_rows = 0 }))
    [
      "SELECT x.id FROM X x WHERE x.a IN (SELECT y.a FROM Y y WHERE x.b = y.b)";
      "SELECT x.id FROM X x WHERE x.a NOT IN (SELECT y.a FROM Y y \
       WHERE x.b = y.b)";
      "SELECT x.id FROM X x WHERE x.a IN (SELECT 10 / y.a FROM Y y \
       WHERE x.b = y.b)";
      "SELECT x.id FROM X x WHERE 10 / x.a IN (SELECT y.a FROM Y y \
       WHERE x.b = y.b)";
    ]

(* Component vectors compare in label order whatever each side's source
   order: the hash semijoin agrees with a nested loop on tuple equality. *)
let composite_label_order () =
  let cat = catalog 60 in
  let lkey = parse "(b = x.a, a = x.b)"
  and rkey = parse "(a = y.b, b = y.a)" in
  let left = P.Scan { table = "X"; var = "x" }
  and right = P.Scan { table = "Y"; var = "y" } in
  let hash =
    keyed_join P.Hash (P.Semi { anti = false }) lkey rkey left right
  in
  let nl =
    loop_join (P.Semi { anti = false })
      (Lang.Ast.Binop (Lang.Ast.Eq, lkey, rkey)) left right
  in
  let rows plan = Exec.rows cat Env.empty plan in
  Alcotest.(check bool) "hash = nested loop" true
    (List.equal Env.equal (rows nl) (rows hash));
  Alcotest.(check bool) "some rows match" true (rows hash <> [])

let suite =
  [
    Alcotest.test_case "pool: lowest failing item wins" `Quick
      lowest_failure_wins;
    Alcotest.test_case "pool: no worker outlives its region" `Quick
      no_idle_worker;
    Alcotest.test_case "40-row join at jobs 4 never calls the pool" `Quick
      small_join_stays_serial;
    Alcotest.test_case "gate on probe rows" `Quick gate_on_probe_rows;
    Alcotest.test_case "composite keys: kernels = row path" `Quick
      composite_kernels_match_rows;
    Alcotest.test_case "composite keys: label order" `Quick
      composite_label_order;
  ]
