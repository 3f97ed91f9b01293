module Value = Cobj.Value
module Env = Cobj.Env
module Ast = Lang.Ast
module Interp = Lang.Interp

let enabled = ref true

(* The compiled form: environment to value. Construction happens before any
   row flows; every [fun env -> …] below closes over already-compiled
   children. *)
type t = Env.t -> Value.t

let member x = function
  | Value.Set _ as s -> Value.set_mem x s
  | Value.List elems -> List.exists (Value.equal x) elems
  | v -> Value.type_error "IN expects a collection, got %s" (Value.to_string v)

let set_test_of = function
  | Ast.Subseteq -> Value.set_subseteq
  | Ast.Subset -> Value.set_subset
  | Ast.Supseteq -> fun x y -> Value.set_subseteq y x
  | Ast.Supset -> fun x y -> Value.set_subset y x
  | Ast.Mem -> member
  | _ -> invalid_arg "Compile.set_test_of"

let cmp_op op : Value.t -> Value.t -> bool =
  match op with
  | Ast.Eq -> fun a b -> Value.compare a b = 0
  | Ast.Ne -> fun a b -> Value.compare a b <> 0
  | Ast.Lt -> fun a b -> Value.compare a b < 0
  | Ast.Le -> fun a b -> Value.compare a b <= 0
  | Ast.Gt -> fun a b -> Value.compare a b > 0
  | Ast.Ge -> fun a b -> Value.compare a b >= 0
  | _ -> invalid_arg "Compile.cmp_op"

let rec compile catalog e : t =
  match e with
  | Ast.Const v -> fun _ -> v
  | Ast.Var x -> fun env -> Env.find x env
  | Ast.TableRef name -> (
    (* Resolved eagerly: [Table.to_value] is O(1) and [Lazy.force] is not
       safe to race from worker domains. Unknown names still fail at
       evaluation time, matching the interpreter. *)
    match Cobj.Catalog.find name catalog with
    | Some table ->
      let v = Cobj.Table.to_value table in
      fun _ -> v
    | None -> fun _ -> Value.type_error "unknown extension %s" name)
  | Ast.Field (e1, l) ->
    let f = compile catalog e1 in
    fun env -> Value.field l (f env)
  | Ast.TupleE fields ->
    let compiled =
      List.map (fun (l, e1) -> (l, compile catalog e1)) fields
    in
    fun env -> Value.tuple (List.map (fun (l, f) -> (l, f env)) compiled)
  | Ast.SetE es ->
    let compiled = List.map (compile catalog) es in
    fun env -> Value.set (List.map (fun f -> f env) compiled)
  | Ast.ListE es ->
    let compiled = List.map (compile catalog) es in
    fun env -> Value.List (List.map (fun f -> f env) compiled)
  | Ast.Unop (Ast.Not, e1) ->
    let f = compile catalog e1 in
    fun env -> Value.Bool (not (Value.as_bool (f env)))
  | Ast.Unop (Ast.Neg, e1) ->
    let f = compile catalog e1 in
    fun env -> (
      match f env with
      | Value.Int n -> Value.Int (-n)
      | Value.Float x -> Value.Float (-.x)
      | v -> Value.type_error "cannot negate %s" (Value.to_string v))
  | Ast.Binop (Ast.And, a, b) ->
    let fa = compile catalog a and fb = compile catalog b in
    fun env -> if Value.as_bool (fa env) then fb env else Value.Bool false
  | Ast.Binop (Ast.Or, a, b) ->
    let fa = compile catalog a and fb = compile catalog b in
    fun env -> if Value.as_bool (fa env) then Value.Bool true else fb env
  | Ast.Binop (((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b)
    ->
    let fa = compile catalog a and fb = compile catalog b in
    let c = cmp_op op in
    fun env -> Value.Bool (c (fa env) (fb env))
  | Ast.Binop (Ast.Mem, a, b) ->
    let fa = compile catalog a and fb = compile catalog b in
    fun env ->
      let x = fa env in
      Value.Bool (member x (fb env))
  | Ast.Binop (Ast.Union, a, b) -> set_binop catalog Value.set_union a b
  | Ast.Binop (Ast.Inter, a, b) -> set_binop catalog Value.set_inter a b
  | Ast.Binop (Ast.Diff, a, b) -> set_binop catalog Value.set_diff a b
  | Ast.Binop
      (((Ast.Subseteq | Ast.Subset | Ast.Supseteq | Ast.Supset) as op), a, b)
    ->
    set_test catalog (set_test_of op) a b
  | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod) as op), a, b)
    ->
    let fa = compile catalog a and fb = compile catalog b in
    let prim =
      match op with
      | Ast.Add -> Interp.Prim.add
      | Ast.Sub -> Interp.Prim.sub
      | Ast.Mul -> Interp.Prim.mul
      | Ast.Div -> Interp.Prim.div
      | Ast.Mod -> Interp.Prim.modulo
      | _ -> assert false
    in
    fun env -> prim (fa env) (fb env)
  | Ast.Agg (agg, e1) ->
    let f = compile catalog e1 in
    fun env -> Interp.Prim.aggregate agg (f env)
  | Ast.Quant (q, v, s, p) ->
    let fs = compile catalog s in
    let fp = compile catalog p in
    let holds env x = Value.as_bool (fp (Env.bind v x env)) in
    (match q with
    | Ast.Exists ->
      fun env -> Value.Bool (List.exists (holds env) (Value.elements (fs env)))
    | Ast.Forall ->
      fun env ->
        Value.Bool (List.for_all (holds env) (Value.elements (fs env))))
  | Ast.Let (v, def, body) ->
    let fd = compile catalog def in
    let fb = compile catalog body in
    fun env -> fb (Env.bind v (fd env) env)
  | Ast.UnnestE e1 ->
    let f = compile catalog e1 in
    fun env ->
      List.fold_left Value.set_union (Value.Set [])
        (Value.elements (f env))
  | Ast.If (c, a, b) ->
    let fc = compile catalog c in
    let fa = compile catalog a in
    let fb = compile catalog b in
    fun env -> if Value.as_bool (fc env) then fa env else fb env
  | Ast.VariantE (tag, e1) ->
    let f = compile catalog e1 in
    fun env -> Value.Variant (tag, f env)
  | Ast.IsTag (e1, tag) ->
    let f = compile catalog e1 in
    fun env -> Value.Bool (String.equal (Value.variant_tag (f env)) tag)
  | Ast.AsTag (e1, tag) ->
    let f = compile catalog e1 in
    fun env -> Value.variant_payload tag (f env)
  | Ast.Sfw _ ->
    (* inline subquery: nested-loop evaluation via the interpreter *)
    fun env -> Interp.eval catalog env e

and set_binop catalog op a b =
  let fa = compile catalog a and fb = compile catalog b in
  fun env -> op (fa env) (fb env)

and set_test catalog test a b =
  let fa = compile catalog a and fb = compile catalog b in
  fun env -> Value.Bool (test (fa env) (fb env))

let expr catalog e =
  if !enabled then compile catalog e else fun env -> Interp.eval catalog env e

let pred catalog e =
  if !enabled then begin
    let f = compile catalog e in
    fun env ->
      match Value.as_bool (f env) with
      | b -> b
      | exception Interp.Undefined _ -> false
  end
  else fun env -> Interp.truth catalog env e
