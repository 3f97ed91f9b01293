module Ast = Lang.Ast
module Plan = Algebra.Plan
module P = Engine.Physical
module Sset = Ast.String_set

type impl_force =
  | Auto
  | Force_nl
  | Force_hash
  | Force_merge

type options = {
  force : impl_force;
  memo_applies : bool;
}

let default_options = { force = Auto; memo_applies = false }

(* Combine equi pairs into single key expressions: one pair stays as-is,
   several become parallel tuples with positional labels. *)
let keys_of_pairs pairs =
  match pairs with
  | [ (l, r) ] -> (l, r)
  | _ ->
    let label i = Printf.sprintf "k%d" i in
    ( Ast.TupleE (List.mapi (fun i (l, _) -> (label i, l)) pairs),
      Ast.TupleE (List.mapi (fun i (_, r) -> (label i, r)) pairs) )

let residual_of = function
  | [] -> None
  | conjs -> Some (Ast.conj conjs)

(* Is [rkey] a declared key of the right operand? Only the simple base-table
   single-field case is recognized — enough for the §6 build-side rule. *)
let rkey_is_key_of catalog right rkey =
  match right with
  | P.Scan { table; var } -> begin
    match Cobj.Catalog.find table catalog with
    | Some t -> begin
      match Cobj.Table.key t, rkey with
      | Some [ field ], Ast.Field (Ast.Var v, f) ->
        String.equal v var && String.equal f field
      | _, _ -> false
    end
    | None -> false
  end
  | _ -> false

let cheapest catalog candidates =
  match candidates with
  | [] -> invalid_arg "Planner.cheapest: no candidates"
  | first :: rest ->
    List.fold_left
      (fun best cand ->
        if Cost.cost catalog cand < Cost.cost catalog best then cand else best)
      first rest

let allowed force candidates ~nl =
  match force with
  | Auto -> candidates
  | Force_nl -> [ nl ]
  | Force_hash ->
    let hash_only =
      List.filter
        (fun c ->
          match c with
          | P.Hash_join _ | P.Hash_semijoin _ | P.Hash_outerjoin _
          | P.Hash_nestjoin _ | P.Hash_nestjoin_left _ ->
            true
          | _ -> false)
        candidates
    in
    if hash_only = [] then [ nl ] else hash_only
  | Force_merge ->
    let merge_only =
      List.filter
        (fun c ->
          match c with
          | P.Merge_join _ | P.Merge_nestjoin _ | P.Merge_semijoin _
          | P.Merge_outerjoin _ ->
            true
          | _ -> false)
        candidates
    in
    if merge_only = [] then [ nl ] else merge_only

let rec plan_aux options catalog lp =
  let recur = plan_aux options catalog in
  let pick candidates ~nl =
    cheapest catalog (allowed options.force candidates ~nl)
  in
  match lp with
  | Plan.Unit -> P.Unit_row
  | Plan.Table { name; var } -> P.Scan { table = name; var }
  | Plan.Select { pred; input } -> P.Filter { pred; input = recur input }
  | Plan.Join { pred; left; right } -> begin
    let l = recur left and r = recur right in
    let nl = P.Nl_join { pred; left = l; right = r } in
    match
      Kim.equi_split ~left_vars:(Plan.vars_of left)
        ~right_vars:(Plan.vars_of right) pred
    with
    | None -> nl
    | Some (pairs, residual) ->
      let lkey, rkey = keys_of_pairs pairs in
      let residual = residual_of residual in
      let candidates =
        [
          nl;
          P.Hash_join { lkey; rkey; residual; left = l; right = r };
          (* The join is commutative, so both build orientations are
             candidates: the statistics-driven cost model weights the build
             (right) side heavier, so the cheaper orientation builds on the
             estimated-smaller operand. The unswapped form comes first —
             ties keep the source orientation. *)
          P.Hash_join
            { lkey = rkey; rkey = lkey; residual; left = r; right = l };
          P.Merge_join { lkey; rkey; residual; left = l; right = r };
        ]
      in
      pick ~nl candidates
  end
  | Plan.Semijoin { pred; left; right } ->
    plan_semi options catalog ~anti:false pred left right
  | Plan.Antijoin { pred; left; right } ->
    plan_semi options catalog ~anti:true pred left right
  | Plan.Outerjoin { pred; left; right } -> begin
    let l = recur left and r = recur right in
    let nl = P.Nl_outerjoin { pred; left = l; right = r } in
    match
      Kim.equi_split ~left_vars:(Plan.vars_of left)
        ~right_vars:(Plan.vars_of right) pred
    with
    | None -> nl
    | Some (pairs, residual) ->
      let lkey, rkey = keys_of_pairs pairs in
      let residual = residual_of residual in
      pick ~nl
        [
          nl;
          P.Hash_outerjoin { lkey; rkey; residual; left = l; right = r };
          P.Merge_outerjoin { lkey; rkey; residual; left = l; right = r };
        ]
  end
  | Plan.Nestjoin { pred; func; label; left; right } -> begin
    let l = recur left and r = recur right in
    let nl = P.Nl_nestjoin { pred; func; label; left = l; right = r } in
    match
      Kim.equi_split ~left_vars:(Plan.vars_of left)
        ~right_vars:(Plan.vars_of right) pred
    with
    | None -> nl
    | Some (pairs, residual) ->
      let lkey, rkey = keys_of_pairs pairs in
      let residual = residual_of residual in
      let candidates =
        [
          nl;
          P.Hash_nestjoin
            { lkey; rkey; residual; func; label; left = l; right = r };
          P.Merge_nestjoin
            { lkey; rkey; residual; func; label; left = l; right = r };
        ]
      in
      let candidates =
        (* Left-build streaming variant is only legal when the right key is
           unique on the right operand (§6). *)
        if rkey_is_key_of catalog r rkey then
          P.Hash_nestjoin_left
            { lkey; rkey; residual; func; label; left = l; right = r }
          :: candidates
        else candidates
      in
      (* §7: the nest join's left operand is preserved (every left row
         survives, extended with its grouped set), so it must stay on the
         probe side — unlike the commutative join, no swapped orientation
         may ever be generated for Δ. Asserted so a future "swap
         everywhere" refactor trips loudly. *)
      List.iter
        (function
          | P.Hash_nestjoin { left; _ }
          | P.Hash_nestjoin_left { left; _ }
          | P.Merge_nestjoin { left; _ }
          | P.Nl_nestjoin { left; _ } ->
            assert (left == l)
          | _ -> ())
        candidates;
      pick ~nl candidates
  end
  | Plan.Unnest { expr; var; input } ->
    P.Unnest_op { expr; var; input = recur input }
  | Plan.Nest { by; label; func; nulls; input } ->
    P.Nest_op { by; label; func; nulls; input = recur input }
  | Plan.Extend { var; expr; input } ->
    P.Extend_op { var; expr; input = recur input }
  | Plan.Project { vars; input } -> P.Project_op { vars; input = recur input }
  | Plan.Union { left; right } ->
    P.Union_op { left = recur left; right = recur right }
  | Plan.Apply { var; subquery; input } ->
    let input = recur input in
    let subquery = query_aux options catalog subquery in
    let uncorrelated =
      Sset.is_empty
        (Sset.inter
           (Engine.Exec.query_free_vars subquery)
           (Sset.of_list (P.vars_of input)))
    in
    let memo = uncorrelated || options.memo_applies in
    P.Apply_op { var; subquery; memo; input }

and plan_semi options catalog ~anti pred left right =
  let recur = plan_aux options catalog in
  let l = recur left and r = recur right in
  let nl = P.Nl_semijoin { pred; anti; left = l; right = r } in
  match
    Kim.equi_split ~left_vars:(Plan.vars_of left)
      ~right_vars:(Plan.vars_of right) pred
  with
  | None -> nl
  | Some (pairs, residual) ->
    let lkey, rkey = keys_of_pairs pairs in
    let residual = residual_of residual in
    let candidates =
      [
        nl;
        P.Hash_semijoin { lkey; rkey; residual; anti; left = l; right = r };
        P.Merge_semijoin { lkey; rkey; residual; anti; left = l; right = r };
      ]
    in
    cheapest catalog (allowed options.force ~nl candidates)

and query_aux options catalog { Plan.plan = lp; result } =
  { P.plan = plan_aux options catalog lp; result }

let plan ?(options = default_options) catalog lp = plan_aux options catalog lp

let query ?(options = default_options) catalog q = query_aux options catalog q
