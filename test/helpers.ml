(* Shared fixtures and checkers for the test suites. *)

module Value = Cobj.Value
module Ctype = Cobj.Ctype
module Env = Cobj.Env
module Table = Cobj.Table
module Catalog = Cobj.Catalog
module Ast = Lang.Ast
module Plan = Algebra.Plan

let value : Value.t Alcotest.testable =
  Alcotest.testable Value.pp Value.equal

let ctype : Ctype.t Alcotest.testable =
  Alcotest.testable Ctype.pp Ctype.equal

let expr : Ast.expr Alcotest.testable =
  Alcotest.testable Lang.Pretty.pp Ast.equal

let vi i = Value.Int i
let vs s = Value.String s
let tup fields = Value.tuple fields
let vset xs = Value.set xs

(* The running example: X has a dangling row (b = 5 unmatched in Y) and a
   row with a = 0 — the COUNT-bug witnesses. *)
let xy_catalog () =
  let x_elt =
    Ctype.ttuple
      [ ("a", Ctype.TInt); ("b", Ctype.TInt); ("s", Ctype.TSet Ctype.TInt) ]
  in
  let xrow a b s =
    tup [ ("a", vi a); ("b", vi b); ("s", vset (List.map vi s)) ]
  in
  let y_elt = Ctype.ttuple [ ("c", Ctype.TInt); ("d", Ctype.TInt) ] in
  let yrow c d = tup [ ("c", vi c); ("d", vi d) ] in
  Catalog.of_tables
    [
      Table.create ~name:"X" ~elt:x_elt
        [
          xrow 1 1 [ 1; 2 ];
          xrow 2 1 [ 1 ];
          xrow 0 5 [];
          xrow 3 3 [ 3 ];
          xrow 2 3 [ 2; 3 ];
        ];
      Table.create ~name:"Y" ~elt:y_elt
        [ yrow 1 1; yrow 2 1; yrow 3 3; yrow 2 3; yrow 9 9 ];
    ]

let parse = Lang.Parser.expr

let run_strategy strategy catalog src =
  match Core.Pipeline.run strategy catalog src with
  | Ok v -> v
  | Error msg -> Alcotest.failf "strategy %s failed on %s: %s"
                   (Core.Pipeline.strategy_name strategy) src msg

(* Assert that every sound strategy computes the same value as the
   reference interpreter on [src]. *)
let strategies_agree ?(catalog = xy_catalog ()) src =
  let reference = run_strategy Core.Pipeline.Interp catalog src in
  List.iter
    (fun strategy ->
      let got = run_strategy strategy catalog src in
      Alcotest.check value
        (Printf.sprintf "%s on %s" (Core.Pipeline.strategy_name strategy) src)
        reference got)
    Core.Pipeline.
      [ Naive; Decorrelated; Decorrelated_outerjoin; Ganski_wong;
        Muralikrishna; Shredded ]

(* qcheck plumbing: a deterministic generator for small complex values. *)
let value_gen =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [
            map (fun i -> Value.Int i) (int_range (-20) 20);
            map (fun b -> Value.Bool b) bool;
            map (fun s -> Value.String s)
              (string_size ~gen:(char_range 'a' 'e') (int_range 0 3));
          ]
      in
      if n <= 1 then leaf
      else
        oneof
          [
            leaf;
            map Value.set (list_size (int_range 0 4) (self (n / 2)));
            map
              (fun (a, b) -> Value.tuple [ ("f", a); ("g", b) ])
              (pair (self (n / 2)) (self (n / 2)));
            map2
              (fun tag v -> Value.Variant (tag, v))
              (oneofl [ "ta"; "tb" ])
              (self (n / 2));
          ])

let qcheck ?(count = 200) name gen prop =
  (* Deterministic by default so CI failures reproduce locally; set
     QCHECK_SEED to explore other seeds. *)
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( try int_of_string s with Failure _ -> 0x5eed)
    | None -> 0x5eed
  in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed |])
    (QCheck2.Test.make ~count ~name gen prop)

(* Physical joins: a keyed method or a nested loop, and a join kind. *)
let keyed_join ?residual by kind lkey rkey left right =
  let how = Engine.Physical.Keyed { by; lkey; rkey; residual } in
  Engine.Physical.Join { kind; how; left; right }

let loop_join kind pred left right =
  let how = Engine.Physical.Loop { pred } in
  Engine.Physical.Join { kind; how; left; right }
