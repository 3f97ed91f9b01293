module Ast = Lang.Ast
module Sset = Ast.String_set
module Plan = Algebra.Plan
module Typing = Algebra.Typing
module Ctype = Cobj.Ctype
module P = Engine.Physical

type violation = {
  phase : string;
  rule : string;
  detail : string;
  subplan : string;
}

let pp_violation ppf v =
  Fmt.pf ppf
    "@[<v>plan verification failed [phase %s, rule %s]:@,%s@,offending \
     subplan:@,%s@]"
    v.phase v.rule v.detail v.subplan

let to_string v = Fmt.str "%a" pp_violation v

exception Violation of violation

(* [render] prints an offending subplan: as logical text when the plan
   under check is the nested-loop embedding of a logical plan. *)
type ctx = { phase : string; catalog : Cobj.Catalog.t; render : P.t -> string }

let logical phase catalog =
  { phase; catalog; render = (fun p -> Plan.to_string (P.to_logical p)) }

let physical phase catalog = { phase; catalog; render = P.to_string }

let viol ctx rule sub fmt =
  Format.kasprintf
    (fun detail ->
      raise (Violation { phase = ctx.phase; rule; detail; subplan = sub () }))
    fmt

(* Schema plumbing mirrors [Algebra.Typing]: additions shadow ambient
   bindings; [added] is what an independently-walked operand contributed on
   top of the shared ambient. *)
let extend ambient additions =
  additions
  @ List.filter (fun (v, _) -> not (List.mem_assoc v additions)) ambient

let added ambient inner =
  List.filter
    (fun (v, t) ->
      match List.assoc_opt v ambient with
      | Some t' -> not (Ctype.equal t t')
      | None -> true)
    inner

let scope_of schema = Sset.of_list (List.map fst schema)

let pp_scope ppf schema =
  Fmt.(list ~sep:(any ", ") string) ppf (List.map fst schema)

(* [what] names the expression's role in the violation message. Inline [Sfw]
   blocks are legal operator arguments (non-hoistable subqueries stay
   inline), so no plan-freeness is enforced — [Lang.Types.infer] types them
   structurally. *)
let infer_under ctx sub schema what e =
  let unbound = Sset.diff (Ast.free_vars e) (scope_of schema) in
  (match Sset.min_elt_opt unbound with
  | Some v ->
    viol ctx "unbound-var" sub
      "%s references %s, which no operand binds (in scope: %a): %s" what v
      pp_scope schema
      (Lang.Pretty.to_string e)
  | None -> ());
  match Lang.Types.infer ctx.catalog schema e with
  | Ok t -> t
  | Error err ->
    viol ctx "ill-typed" sub "%s does not typecheck: %a" what
      Lang.Types.pp_error err

let check_pred ctx sub schema what e =
  match infer_under ctx sub schema what e with
  | Ctype.TBool | Ctype.TAny -> ()
  | t ->
    viol ctx "predicate-not-boolean" sub "%s must be boolean, got %a: %s"
      what Ctype.pp t
      (Lang.Pretty.to_string e)

let bind ctx sub local what v =
  if Sset.mem v local then
    viol ctx "shadowed-binding" sub
      "%s rebinds %s, which its input already binds" what v
  else Sset.add v local

let disjoint ctx sub ll rl =
  match Sset.min_elt_opt (Sset.inter ll rl) with
  | Some v -> viol ctx "duplicate-binding" sub "both join operands bind %s" v
  | None -> ()

let check_label ctx sub what ll label =
  if Sset.mem label ll then
    viol ctx "shadowed-label" sub
      "%s label %s shadows a variable bound by the left operand (labels \
       must be fresh — a shadowed label silently overwrites a live \
       attribute)"
      what label

(* --- the plan walk ------------------------------------------------------- *)

(* Returns the schema of output rows plus the set of variables this plan
   itself binds (plan-local: an Apply subquery is a fresh scope, so outer
   names may legitimately reappear inside it). A logical plan is walked as
   its nested-loop embedding ([Core.Planner.nested_loops]), which has the
   same operators, predicates and binders. *)
let rec go ctx ambient plan : Typing.schema * Sset.t =
  let sub () = ctx.render plan in
  let check_keys rule ls rs lkey rkey =
    let lt = infer_under ctx sub ls "left key" lkey in
    let rt = infer_under ctx sub rs "right key" rkey in
    match Ctype.join lt rt with
    | Some _ -> ()
    | None ->
      viol ctx rule sub
        "join keys have incomparable types: %s : %a vs %s : %a"
        (Lang.Pretty.to_string lkey)
        Ctype.pp lt
        (Lang.Pretty.to_string rkey)
        Ctype.pp rt
  in
  let check_residual merged = function
    | None -> ()
    | Some r -> check_pred ctx sub merged "residual predicate" r
  in
  let binary left right =
    let ls, ll = go ctx ambient left in
    let rs, rl = go ctx ambient right in
    disjoint ctx sub ll rl;
    (ls, ll, rs, rl, extend ls (added ambient rs))
  in
  match plan with
  | P.Unit_row -> (ambient, Sset.empty)
  | P.Scan { table; var } -> begin
    match Cobj.Catalog.find table ctx.catalog with
    | Some t ->
      (extend ambient [ (var, Cobj.Table.elt t) ], Sset.singleton var)
    | None ->
      viol ctx "unknown-table" sub
        "extension %s is not in the catalog (extensions: %s)" table
        (String.concat ", " (Cobj.Catalog.names ctx.catalog))
  end
  | P.Filter { pred; input } ->
    let s, l = go ctx ambient input in
    check_pred ctx sub s "filter predicate" pred;
    (s, l)
  | P.Join { kind; how; left; right } ->
    let ls, ll, rs, rl, merged = binary left right in
    (match how with
    | P.Loop { pred } ->
      let what =
        match kind with
        | P.Inner -> "join predicate"
        | P.Semi _ -> "semijoin predicate"
        | P.Outer -> "outerjoin predicate"
        | P.Nest _ -> "nest join predicate"
      in
      check_pred ctx sub merged what pred
    | P.Keyed { by; lkey; rkey; residual } ->
      let rule =
        match by with
        | P.Hash -> "hash-key-type"
        | P.Sort _ -> "merge-key-type"
      in
      check_keys rule ls rs lkey rkey;
      check_residual merged residual);
    (match kind with
    | P.Inner | P.Outer -> (merged, Sset.union ll rl)
    (* right bindings must not escape a semijoin *)
    | P.Semi _ -> (ls, ll)
    | P.Nest { func; label } ->
      let tf = infer_under ctx sub merged "nest join function" func in
      check_label ctx sub "nest join" ll label;
      (extend ls [ (label, Ctype.TSet tf) ], Sset.add label ll))
  | P.Unnest_op { expr; var; input } ->
    let s, l = go ctx ambient input in
    let elt =
      match infer_under ctx sub s "unnest operand" expr with
      | Ctype.TSet elt | Ctype.TList elt -> elt
      | Ctype.TAny -> Ctype.TAny
      | t ->
        viol ctx "unnest-not-collection" sub
          "unnest operand must be a set or list, got %a: %s" Ctype.pp t
          (Lang.Pretty.to_string expr)
    in
    let l = bind ctx sub l "unnest" var in
    (extend s [ (var, elt) ], l)
  | P.Nest_op { by; label; func; nulls; input } ->
    let s, _l = go ctx ambient input in
    let grouped what v =
      if not (List.mem_assoc v s) then
        viol ctx "nest-unbound" sub
          "nest %s %s, which the input does not bind (schema %a)" what v
          Typing.pp_schema s
    in
    List.iter (grouped "groups by") by;
    List.iter (grouped "null-tests (ν*)") nulls;
    let tf = infer_under ctx sub s "nest function" func in
    if List.mem label by then
      viol ctx "shadowed-label" sub
        "nest label %s collides with a grouping variable" label;
    let kept = List.filter (fun (v, _) -> List.mem v by) s in
    ( extend ambient (kept @ [ (label, Ctype.TSet tf) ]),
      Sset.add label (Sset.of_list by) )
  | P.Extend_op { var; expr; input } ->
    let s, l = go ctx ambient input in
    let t = infer_under ctx sub s "extend expression" expr in
    let l = bind ctx sub l "extend" var in
    (extend s [ (var, t) ], l)
  | P.Project_op { vars; input } ->
    let s, _l = go ctx ambient input in
    let kept =
      List.map
        (fun v ->
          match List.assoc_opt v s with
          | Some t -> (v, t)
          | None ->
            viol ctx "project-unbound" sub
              "project keeps %s, which the input does not bind (schema %a)"
              v Typing.pp_schema s)
        vars
    in
    (extend ambient kept, Sset.of_list vars)
  | P.Apply_op { var; subquery; memo = _; input } ->
    let s, l = go ctx ambient input in
    let unbound =
      Sset.diff (P.query_free_vars subquery) (scope_of s)
    in
    (match Sset.min_elt_opt unbound with
    | Some v ->
      viol ctx "apply-free-vars" sub
        "apply subquery references %s, which the outer plan does not bind \
         (in scope: %a)"
        v pp_scope s
    | None -> ());
    (* the subquery is its own scope: the current schema is its ambient *)
    let ss, _sl = go ctx s subquery.P.plan in
    let tr = infer_under ctx sub ss "apply subquery result" subquery.P.result in
    let l = bind ctx sub l "apply" var in
    (extend s [ (var, Ctype.TSet tr) ], l)
  | P.Union_op { left; right } ->
    let ls, ll = go ctx ambient left in
    let rs, rl = go ctx ambient right in
    if not (Sset.equal ll rl) then begin
      let d = Sset.union (Sset.diff ll rl) (Sset.diff rl ll) in
      viol ctx "union-mismatch" sub
        "union operands bind different variables (%s only on one side)"
        (String.concat ", " (Sset.elements d))
    end;
    let joined =
      List.map
        (fun (v, lt) ->
          match List.assoc_opt v rs with
          | None -> viol ctx "union-mismatch" sub "%s bound only on the left" v
          | Some rt -> (
            match Ctype.join lt rt with
            | Some t -> (v, t)
            | None ->
              viol ctx "union-mismatch" sub
                "union binds %s at incompatible types %a and %a" v Ctype.pp
                lt Ctype.pp rt))
        ls
    in
    (joined, ll)

(* --- the flat fragment (query shredding) --------------------------------- *)

(* Rule [shred-flat]: the flat queries a shredded program executes must not
   contain any nesting operator — no nest join, no ν, no Apply. Nesting is
   reintroduced only by the stitch phase, outside the algebra. Checked for
   every plan verified under a phase named ["shred"] or ["shred-plan"]. *)
let shred_phase phase =
  String.length phase >= 5 && String.sub phase 0 5 = "shred"

let rec check_flat ctx plan =
  let flat fmt = viol ctx "shred-flat" (fun () -> ctx.render plan) fmt in
  (match plan with
  | P.Join { kind = P.Nest { label; _ }; _ } ->
    flat "nest join (label %s) inside a shredded flat plan" label
  | P.Nest_op { label; _ } ->
    flat "nest operator (label %s) inside a shredded flat plan" label
  | P.Apply_op { var; _ } ->
    flat "apply (variable %s) inside a shredded flat plan" var
  | _ -> ());
  List.iter (check_flat ctx) (Engine.Analyze.children plan)

(* --- entry points -------------------------------------------------------- *)

let run f = match f () with x -> Ok x | exception Violation v -> Error v

let walk_query ctx ambient (pq : P.query) =
  if shred_phase ctx.phase then check_flat ctx pq.P.plan;
  let s, _ = go ctx ambient pq.P.plan in
  ignore
    (infer_under ctx
       (fun () -> ctx.render pq.P.plan)
       s "result expression" pq.P.result)

(* The independent schema inference must agree with the walk. *)
let backstop ctx plan = function
  | Ok _ -> ()
  | Error detail ->
    raise
      (Violation
         {
           phase = ctx.phase;
           rule = "schema";
           detail;
           subplan = Plan.to_string plan;
         })

let check_plan ~phase ?(ambient = []) catalog plan =
  let ctx = logical phase catalog in
  run (fun () ->
      let schema, _ = go ctx ambient (Core.Planner.nested_loops_plan plan) in
      backstop ctx plan (Typing.schema_of catalog ambient plan);
      schema)

let check_query ~phase ?(ambient = []) catalog (q : Plan.query) =
  let ctx = logical phase catalog in
  run (fun () ->
      walk_query ctx ambient (Core.Planner.nested_loops q);
      backstop ctx q.Plan.plan (Typing.query_type catalog ambient q))

let check_physical ~phase ?(ambient = []) catalog plan =
  run (fun () -> fst (go (physical phase catalog) ambient plan))

let check_physical_query ~phase ?(ambient = []) catalog pq =
  run (fun () -> walk_query (physical phase catalog) ambient pq)

let verifier : Core.Pipeline.verifier =
 fun ~phase catalog plan ->
  Result.map_error to_string
    (match plan with
    | Core.Pipeline.Logical q -> check_query ~phase catalog q
    | Core.Pipeline.Physical pq -> check_physical_query ~phase catalog pq)

let install () = Core.Pipeline.set_verifier (Some verifier)
