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

let cheapest catalog candidates =
  match candidates with
  | [] -> invalid_arg "Planner.cheapest: no candidates"
  | first :: rest ->
    List.fold_left
      (fun best cand ->
        if Cost.cost catalog cand < Cost.cost catalog best then cand else best)
      first rest

let allowed force candidates ~nl =
  let only keep =
    match
      List.filter
        (function
          | P.Join { how = P.Keyed { by; _ }; _ } -> keep by | _ -> false)
        candidates
    with
    | [] -> [ nl ]
    | kept -> kept
  in
  match force with
  | Auto -> candidates
  | Force_nl -> [ nl ]
  | Force_hash -> only (function P.Hash -> true | _ -> false)
  | Force_merge -> only (function P.Sort _ -> true | _ -> false)

(* The physical join of kind [kind] with predicate [pred] over the logical
   operands [left] and [right]: the cheapest of its candidates, which are,
   in the order cost ties resolve, the nested loop, the hash join, the
   inner join's swapped hash join, and the sort-merge join. A predicate
   with no equi-key pair has the nested loop and, when a conjunct is a
   one-sided band ([Kim.band_split]), the band join of the sort family;
   otherwise only the nested loop, as has every join under [Force_nl]. *)
let rec plan_join options catalog kind pred left right =
  let recur = plan_aux options catalog in
  let l = recur left and r = recur right in
  let join how ~left ~right = P.Join { kind; how; left; right } in
  let nl = join (P.Loop { pred }) ~left:l ~right:r in
  let left_vars = Plan.vars_of left and right_vars = Plan.vars_of right in
  let keyed by (lkey, rkey) residual =
    join
      (P.Keyed { by; lkey; rkey; residual = residual_of residual })
      ~left:l ~right:r
  in
  let pick candidates = cheapest catalog (allowed options.force candidates ~nl) in
  match options.force with
  | Force_nl -> nl
  | Auto | Force_hash | Force_merge -> (
    match Kim.equi_split ~left_vars ~right_vars pred with
    | Some (pairs, residual) ->
      let lkey, rkey = keys_of_pairs pairs in
      (* The join is commutative, so both build orientations are
         candidates: the statistics-driven cost model weights the build
         (right) side heavier, so the cheaper orientation builds on the
         estimated-smaller operand. §7: every other kind preserves its
         left operand, which must stay on the probe side, so only the
         inner join is swapped. *)
      let swapped =
        match kind with
        | P.Inner ->
          [
            join
              (P.Keyed
                 { by = P.Hash; lkey = rkey; rkey = lkey;
                   residual = residual_of residual })
              ~left:r ~right:l;
          ]
        | P.Semi _ | P.Outer | P.Nest _ -> []
      in
      pick
        ((nl :: keyed P.Hash (lkey, rkey) residual :: swapped)
        @ [ keyed (P.Sort P.Eq) (lkey, rkey) residual ])
    | None -> (
      match Kim.band_split ~left_vars ~right_vars pred with
      | Some ((lkey, cmp, rkey), residual) ->
        pick [ nl; keyed (P.Sort cmp) (lkey, rkey) residual ]
      | None -> nl))

and plan_aux options catalog lp =
  let recur = plan_aux options catalog in
  let join = plan_join options catalog in
  match lp with
  | Plan.Unit -> P.Unit_row
  | Plan.Table { name; var } -> P.Scan { table = name; var }
  | Plan.Select { pred; input } -> P.Filter { pred; input = recur input }
  | Plan.Join { pred; left; right } -> join P.Inner pred left right
  | Plan.Semijoin { pred; left; right } ->
    join (P.Semi { anti = false }) pred left right
  | Plan.Antijoin { pred; left; right } ->
    join (P.Semi { anti = true }) pred left right
  | Plan.Outerjoin { pred; left; right } -> join P.Outer pred left right
  | Plan.Nestjoin { pred; func; label; left; right } ->
    join (P.Nest { func; label }) pred left right
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
    let uncorrelated =
      Sset.is_empty
        (Sset.inter
           (Plan.query_free_vars subquery)
           (Sset.of_list (Plan.vars_of input)))
    in
    let memo = uncorrelated || options.memo_applies in
    P.Apply_op
      {
        var;
        subquery = query_aux options catalog subquery;
        memo;
        input = recur input;
      }

and query_aux options catalog { Plan.plan = lp; result } =
  { P.plan = plan_aux options catalog lp; result }

let plan ?(options = default_options) catalog lp = plan_aux options catalog lp

let query ?(options = default_options) catalog q = query_aux options catalog q

(* Under [Force_nl] no join is priced, so the catalog is never read. *)
let nested_loops_options = { force = Force_nl; memo_applies = false }

let nested_loops_plan lp =
  plan ~options:nested_loops_options Cobj.Catalog.empty lp

let nested_loops q = query ~options:nested_loops_options Cobj.Catalog.empty q
