module Ast = Lang.Ast
module Value = Cobj.Value
module Plan = Algebra.Plan
module P = Engine.Physical
module Sset = Ast.String_set
module Steps = Core.Steps

type violation = {
  phase : string;
  rule : string;
  step : int option;
  detail : string;
  subplan : string;
}

let pp_violation ppf v =
  Fmt.pf ppf "certification failed [phase %s, rule %s%a]: %s@,%s" v.phase
    v.rule
    (fun ppf -> function
      | None -> ()
      | Some i -> Fmt.pf ppf ", step %d" i)
    v.step v.detail v.subplan

let to_string v = Fmt.str "@[<v>%a@]" pp_violation v

exception Violation of violation

type ctx = { phase : string; catalog : Cobj.Catalog.t; step : int option }

let viol ctx rule subplan fmt =
  Format.kasprintf
    (fun detail ->
      raise
        (Violation
           {
             phase = ctx.phase;
             rule;
             step = ctx.step;
             detail;
             subplan = subplan ();
           }))
    fmt

(* --- small plan algebra -------------------------------------------------- *)

let plan_equal (a : Plan.plan) (b : Plan.plan) = a == b || a = b

let rec conjuncts = function
  | Ast.Binop (Ast.And, a, b) -> conjuncts a @ conjuncts b
  | Ast.Const (Value.Bool true) -> []
  | e -> [ e ]

(* Conjunct-set equality, order-insensitive (pushdown reorders but never
   invents or drops conjuncts). *)
let union_is pieces whole =
  let sort = List.sort Stdlib.compare in
  sort (List.concat_map conjuncts pieces) = sort (conjuncts whole)

let vset p = Sset.of_list (Plan.vars_of p)

let one_sided pred operand =
  Sset.subset (Ast.free_vars pred) (vset operand)

(* Peel an optional selection: [Select {pred; input}] → [(pred, input)],
   anything else → [(true, plan)]. The rewriter's [select] smart
   constructor emits either form depending on the conjunct split. *)
let peel_select = function
  | Plan.Select { pred; input } -> (pred, input)
  | p -> (Ast.Const (Value.Bool true), p)

(* The left operand of a dangling-preserving binary operator, and the
   operator rebuilt over a replacement left operand (for field-wise
   comparison in the pushdown obligations). *)
let left_of = function
  | Plan.Semijoin { left; _ }
  | Plan.Antijoin { left; _ }
  | Plan.Outerjoin { left; _ }
  | Plan.Nestjoin { left; _ } ->
    Some left
  | _ -> None

let with_left plan left =
  match plan with
  | Plan.Semijoin r -> Some (Plan.Semijoin { r with left })
  | Plan.Antijoin r -> Some (Plan.Antijoin { r with left })
  | Plan.Outerjoin r -> Some (Plan.Outerjoin { r with left })
  | Plan.Nestjoin r -> Some (Plan.Nestjoin { r with left })
  | _ -> None

(* --- per-rule obligations ------------------------------------------------ *)

(* Each recorded step carries the (before, after) pair of the rewrite rule
   it claims to have applied; the obligation re-derives the rule's side
   conditions from the pair. For the structural rules the pair is an exact
   local equivalence; for the decorrelation rules the [after] embeds
   recursively-rewritten operands, so the obligation checks the
   classification side conditions (the COUNT-bug proof) and the binding
   discipline instead of structural identity — the phase obligations and
   the phase verifier cover the rest. *)
let check_step ctx (s : Steps.step) =
  let err fmt = viol ctx s.Steps.rule (fun () -> Plan.to_string s.Steps.after) fmt in
  let meta_label () =
    match List.assoc_opt "label" s.Steps.meta with
    | Some l -> l
    | None -> err "step is missing its label metadata"
  in
  match s.Steps.rule with
  | "select-fuse" -> begin
    (* σ_p(σ_q(E)) = σ_{q ∧ p}(E) *)
    match s.Steps.before, s.Steps.after with
    | ( Plan.Select { pred = p; input = Plan.Select { pred = q; input } },
        Plan.Select { pred = fused; input = input' } ) ->
      if not (plan_equal input input') then
        err "fused selection changed the underlying operand";
      if not (union_is [ q; p ] fused) then
        err "fused predicate is not the conjunction of the two selections"
    | _ -> err "step shape is not a selection over a selection"
  end
  | "select-true-elim" -> begin
    (* σ_true(E) = E; the predicate must provably simplify to true *)
    match s.Steps.before with
    | Plan.Select { pred; input } ->
      if not (plan_equal s.Steps.after input) then
        err "eliminated selection changed the underlying operand";
      let provably_true =
        conjuncts pred = []
        ||
        match Core.Simplify.expr ctx.catalog pred with
        | Ast.Const (Value.Bool true) -> true
        | _ -> false
      in
      if not provably_true then
        err "eliminated predicate %s does not simplify to true"
          (Lang.Pretty.to_string pred)
    | _ -> err "step shape is not a selection"
  end
  | "select-merge-into-join" -> begin
    (* σ_p(A ⋈_j B) = A ⋈_{j ∧ p} B *)
    match s.Steps.before, s.Steps.after with
    | ( Plan.Select { pred; input = Plan.Join { pred = jp; left; right } },
        Plan.Join { pred = jp'; left = left'; right = right' } ) ->
      if not (plan_equal left left' && plan_equal right right') then
        err "merge changed a join operand";
      if not (union_is [ jp; pred ] jp') then
        err "merged join predicate lost or invented a conjunct"
    | _ -> err "step shape is not a selection over a join"
  end
  | "select-pushdown-join" -> begin
    (* σ_p(A ⋈_j B) = σ_rest(σ_ls(A) ⋈_j σ_rs(B)), fv(ls) ⊆ A, fv(rs) ⊆ B *)
    match s.Steps.before with
    | Plan.Select { pred; input = Plan.Join { pred = jp; left; right } } -> begin
      let rest, joined = peel_select s.Steps.after in
      match joined with
      | Plan.Join { pred = jp'; left = pl; right = pr } ->
        let ls, left' = peel_select pl in
        let rs, right' = peel_select pr in
        if not (plan_equal left left' && plan_equal right right') then
          err "pushdown changed a join operand";
        if jp' <> jp then err "pushdown altered the join predicate";
        if not (union_is [ rest; ls; rs ] pred) then
          err "pushed conjuncts do not repartition the original predicate";
        if not (one_sided ls left) then
          err "conjunct pushed into the left operand references other \
               variables";
        if not (one_sided rs right) then
          err "conjunct pushed into the right operand references other \
               variables"
      | _ -> err "pushdown result is not a join"
    end
    | _ -> err "step shape is not a selection over a join"
  end
  | "select-pushdown-left" -> begin
    (* σ_p(A ⋉ B) = σ_rest(σ_ls(A) ⋉ B) for the dangling-preserving
       operators (semi/anti/outer/nest join): left rows pass through, so a
       left-only conjunct commutes with the operator. *)
    match s.Steps.before with
    | Plan.Select { pred; input = op } -> begin
      match left_of op with
      | None -> err "step shape is not a selection over a join-like operator"
      | Some left ->
        let rest, op' = peel_select s.Steps.after in
        let ls, left' = peel_select (Option.value (left_of op') ~default:op') in
        if not (plan_equal left left') then
          err "pushdown changed the left operand";
        (match with_left op' left with
        | Some rebuilt when plan_equal rebuilt op -> ()
        | _ -> err "pushdown altered the operator above the left operand");
        if not (union_is [ rest; ls ] pred) then
          err "pushed conjuncts do not repartition the original predicate";
        if not (one_sided ls left) then
          err "conjunct pushed below the operator references non-left \
               variables"
    end
    | _ -> err "step shape is not a selection"
  end
  | "dead-nestjoin-elim" -> begin
    (* π-style: X Δ Y = X when the grouped label is dead above. Liveness
       is a context property; here we check the structural half (the
       result is exactly the left operand and only the label binding is
       dropped) — a live label would fail the phase verifier's
       unbound-variable check on the phase output. *)
    let label = meta_label () in
    match s.Steps.before with
    | Plan.Nestjoin { label = l; left; _ } ->
      if l <> label then err "label metadata disagrees with the plan";
      if not (plan_equal s.Steps.after left) then
        err "elimination did not return the left operand";
      if not
           (Sset.equal
              (Sset.add label (vset s.Steps.after))
              (vset s.Steps.before))
      then err "elimination dropped more than the %s binding" label
    | _ -> err "step shape is not a nest join"
  end
  | "unit-elim" -> begin
    (* A ⋈_true 1 = A = 1 ⋈_true A *)
    match s.Steps.before with
    | Plan.Join { pred; left = Plan.Unit; right = other }
    | Plan.Join { pred; left = other; right = Plan.Unit } ->
      if conjuncts pred <> [] then
        err "unit elimination under a non-trivial join predicate";
      if not (plan_equal s.Steps.after other) then
        err "elimination did not return the non-unit operand"
    | _ -> err "step shape is not a join against Unit"
  end
  | "sink-below-join" -> begin
    (* (A ⋈_j B) op Z = (A op Z) ⋈_j B when op's expressions touch only
       A (symmetrically B) — op dangling-preserving, so it commutes with
       the join on the side it actually reads. *)
    match s.Steps.before, s.Steps.after with
    | ( (Plan.Nestjoin { left = Plan.Join { pred = jp; left = a; right = b }; _ }
        | Plan.Semijoin { left = Plan.Join { pred = jp; left = a; right = b }; _ }
        | Plan.Antijoin { left = Plan.Join { pred = jp; left = a; right = b }; _ }),
        Plan.Join { pred = jp'; left = a'; right = b' } ) ->
      if jp' <> jp then err "sink altered the join predicate";
      let check_sunk sunk ~into ~kept_orig ~kept_now =
        (* [sunk] must be the original operator re-rooted over [into] *)
        if not (plan_equal kept_orig kept_now) then
          err "sink changed the operand it did not sink into";
        match with_left s.Steps.before into with
        | Some rebuilt when plan_equal rebuilt sunk -> ()
        | _ -> err "sunk operator differs from the original"
      in
      let op_free op =
        match op with
        | Plan.Nestjoin { pred; func; right; _ } ->
          Sset.diff
            (Sset.union (Ast.free_vars pred) (Ast.free_vars func))
            (vset right)
        | Plan.Semijoin { pred; right; _ } | Plan.Antijoin { pred; right; _ }
          ->
          Sset.diff (Ast.free_vars pred) (vset right)
        | _ -> Sset.empty
      in
      let label_ok op other =
        match op with
        | Plan.Nestjoin { label; _ } ->
          (not (Sset.mem label (vset other)))
          && not (Sset.mem label (Ast.free_vars jp))
        | _ -> true
      in
      (match left_of a', left_of b' with
      | Some al, _ when plan_equal al a ->
        check_sunk a' ~into:a ~kept_orig:b ~kept_now:b';
        if not (Sset.subset (op_free a') (vset a)) then
          err "sunk operator reads variables of the operand it left behind";
        if not (label_ok a' b') then
          err "sunk nest-join label collides with the other operand"
      | _, Some bl when plan_equal bl b ->
        check_sunk b' ~into:b ~kept_orig:a ~kept_now:a';
        if not (Sset.subset (op_free b') (vset b)) then
          err "sunk operator reads variables of the operand it left behind";
        if not (label_ok b' a') then
          err "sunk nest-join label collides with the other operand"
      | _ -> err "neither join operand embeds the sunk operator")
    | _ -> err "step shape is not a join-like operator over a join"
  end
  | "apply-to-semijoin" | "apply-to-antijoin" -> begin
    (* Theorem 1, no-grouping cases. The recorded [before] is the local
       redex σ_zpred(Apply_z(E)); legality is exactly the classifier's
       verdict on zpred, which proves the predicate is (¬)∃-rewritable —
       the property-backed COUNT-bug safety proof (a Needs_grouping
       predicate flattened to a (anti)semijoin would drop dangling rows:
       the COUNT bug). *)
    let z = meta_label () in
    match s.Steps.before with
    | Plan.Select { pred = zpred; input = Plan.Apply { var; _ } } ->
      if var <> z then err "label metadata disagrees with the Apply binder";
      (let verdict = Core.Classify.classify ~z zpred in
       let expected =
         match verdict, s.Steps.rule with
         | Core.Classify.Exists _, "apply-to-semijoin" -> true
         | Core.Classify.Not_exists _, "apply-to-antijoin" -> true
         | _ -> false
       in
       if not expected then
         viol ctx "count-bug-safety"
           (fun () -> Plan.to_string s.Steps.before)
           "predicate %s classifies as %a, which does not justify %s — \
            flattening would exhibit the COUNT bug on dangling rows"
           (Lang.Pretty.to_string zpred)
           Core.Classify.pp_verdict verdict s.Steps.rule);
      (match s.Steps.rule, s.Steps.after with
      | "apply-to-semijoin", Plan.Semijoin _
      | "apply-to-antijoin", Plan.Antijoin _ ->
        ()
      | _ -> err "flattening produced the wrong operator");
      if Sset.mem z (vset s.Steps.after) then
        err "flattening was supposed to drop the %s binding" z
    | _ -> err "step shape is not a selection over Apply"
  end
  | "apply-to-nestjoin" -> begin
    (* Theorem 1, grouping case: Apply_z(E) = E Δ_z Q. The nest join keeps
       [z] bound to the whole grouped set, so it is COUNT-safe by
       construction; the obligation checks the binding discipline. *)
    let z = meta_label () in
    match s.Steps.before, s.Steps.after with
    | Plan.Apply { var; _ }, Plan.Nestjoin { label; _ } ->
      if var <> z then err "label metadata disagrees with the Apply binder";
      if label <> z then
        err "nest join rebinds %s instead of the subquery variable %s" label
          z
    | Plan.Apply _, _ -> err "grouping form is not a nest join"
    | _ -> err "step shape is not an Apply"
  end
  | "unnest-apply-to-join" -> begin
    (* §5 collapsible case: μ_v(z)(Apply_z(E)) = ε_v(E ⋈_corr Q). The
       subquery value is consumed whole-set by the unnest, so no grouping
       is needed and dangling rows are dropped on both sides alike. *)
    let z = meta_label () in
    match s.Steps.before, s.Steps.after with
    | ( Plan.Unnest { expr = Ast.Var zv; var = v;
                      input = Plan.Apply { var; input; _ } },
        Plan.Extend { var = v'; input = Plan.Join { left; _ }; _ } ) ->
      if not (zv = z && var = z) then
        err "label metadata disagrees with the Apply binder";
      if v' <> v then err "collapse rebinds %s instead of %s" v' v;
      if not (plan_equal left input) then
        err "collapse changed the outer operand";
      if Sset.mem z (vset s.Steps.after) then
        err "collapse was supposed to drop the %s binding" z
    | _ -> err "step shape is not an unnest over Apply"
  end
  | rule ->
    viol ctx rule
      (fun () -> Plan.to_string s.Steps.after)
      "unknown rewrite rule — no certification obligation registered"

(* --- whole-phase obligations --------------------------------------------- *)

let query_type ctx q =
  match Algebra.Typing.query_type ctx.catalog [] q with
  | Ok t -> t
  | Error e ->
    viol ctx "phase-type"
      (fun () -> Plan.to_string q.Plan.plan)
      "phase output does not typecheck: %s" e

let check_phase ctx (before : Plan.query) (after : Plan.query) =
  (* result-type preservation *)
  let tb = query_type ctx before and ta = query_type ctx after in
  if not (Cobj.Ctype.equal tb ta) then
    viol ctx "phase-type"
      (fun () -> Plan.to_string after.Plan.plan)
      "phase changed the query type from %a to %a" Cobj.Ctype.pp tb
      Cobj.Ctype.pp ta;
  (* no new correlation requirements *)
  let fvb = Plan.query_free_vars before and fva = Plan.query_free_vars after in
  if not (Sset.subset fva fvb) then
    viol ctx "phase-free-vars"
      (fun () -> Plan.to_string after.Plan.plan)
      "phase introduced free variables {%s}"
      (String.concat ", " (Sset.elements (Sset.diff fva fvb)));
  (* property preservation: both plans enumerate the same rows (modulo
     dropped bindings), so their proven cardinality intervals must
     intersect *)
  let pb = Props.of_plan ctx.catalog before.Plan.plan in
  let pa = Props.of_plan ctx.catalog after.Plan.plan in
  if not (Props.compatible pb pa) then
    viol ctx "phase-bounds"
      (fun () -> Plan.to_string after.Plan.plan)
      "phase moved the proven cardinality bounds from %a to a disjoint %a"
      Props.pp pb Props.pp pa

(* --- entry points -------------------------------------------------------- *)

let check_steps ~phase catalog steps =
  let run i s =
    match check_step { phase; catalog; step = Some i } s with
    | () -> None
    | exception Violation v -> Some v
  in
  let rec go i = function
    | [] -> Ok ()
    | s :: rest -> (
      match run i s with Some v -> Error v | None -> go (i + 1) rest)
  in
  go 0 steps

let check_logical ~phase catalog ~before ~after steps =
  let ( let* ) = Result.bind in
  let* () = check_steps ~phase catalog steps in
  match check_phase { phase; catalog; step = None } before after with
  | () -> Ok ()
  | exception Violation v -> Error v

let certifier : Core.Pipeline.certifier =
 fun ~phase catalog { before; after; steps } ->
  Result.map_error to_string (check_logical ~phase catalog ~before ~after steps)

let annotator : Core.Pipeline.annotator =
 fun catalog pq tree -> Props.annotate catalog pq.P.plan tree

let install () =
  Core.Pipeline.set_certifier (Some certifier);
  Core.Pipeline.set_annotator (Some annotator);
  Core.Cost.set_key_hint (Some Props.key_of)
