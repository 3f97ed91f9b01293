module Ast = Lang.Ast
module Plan = Algebra.Plan
module Sset = Ast.String_set

let split_conjuncts pred =
  let rec go acc = function
    | Ast.Binop (Ast.And, a, b) -> go (go acc b) a
    | p -> p :: acc
  in
  match pred with
  | Ast.Const (Cobj.Value.Bool true) -> []
  | _ -> go [] pred

(* Which operands an expression reads. *)
let sides ~left_vars ~right_vars =
  let lset = Sset.of_list left_vars and rset = Sset.of_list right_vars in
  fun e ->
    let fv = Ast.free_vars e in
    let uses_l = not (Sset.is_empty (Sset.inter fv lset)) in
    let uses_r = not (Sset.is_empty (Sset.inter fv rset)) in
    match uses_l, uses_r with
    | true, false -> `Left
    | false, true -> `Right
    | false, false -> `Neither
    | true, true -> `Both

let equi_split ~left_vars ~right_vars pred =
  let side = sides ~left_vars ~right_vars in
  let classify_conjunct c =
    match c with
    | Ast.Binop (Ast.Eq, a, b) -> begin
      match side a, side b with
      | `Left, (`Right | `Neither) | `Neither, `Right -> `Equi (a, b)
      | `Right, (`Left | `Neither) | `Neither, `Left -> `Equi (b, a)
      | _, _ -> `Residual
    end
    | _ -> `Residual
  in
  let pairs, residual =
    List.fold_left
      (fun (pairs, residual) c ->
        match classify_conjunct c with
        | `Equi (l, r) -> ((l, r) :: pairs, residual)
        | `Residual -> (pairs, c :: residual))
      ([], []) (split_conjuncts pred)
  in
  match pairs with
  | [] -> None
  | _ :: _ -> Some (List.rev pairs, List.rev residual)

let band_split ~left_vars ~right_vars pred =
  let side = sides ~left_vars ~right_vars in
  let cmp = function
    | Ast.Lt -> Some Engine.Physical.Lt
    | Ast.Le -> Some Engine.Physical.Le
    | Ast.Gt -> Some Engine.Physical.Gt
    | Ast.Ge -> Some Engine.Physical.Ge
    | _ -> None
  in
  (* [b op a] is [a (flip op) b] *)
  let flip : Engine.Physical.cmp -> Engine.Physical.cmp = function
    | Lt -> Gt
    | Le -> Ge
    | Gt -> Lt
    | Ge -> Le
    | Eq -> Eq
  in
  let band = function
    | Ast.Binop (op, a, b) -> (
      match cmp op, side a, side b with
      | Some c, `Left, `Right -> Some (a, c, b)
      | Some c, `Right, `Left -> Some (b, flip c, a)
      | _ -> None)
    | _ -> None
  in
  let rec go before = function
    | [] -> None
    | c :: rest -> (
      match band c with
      | Some key -> Some (key, List.rev_append before rest)
      | None -> go (c :: before) rest)
  in
  go [] (split_conjuncts pred)

(* Recognize the two-block pattern [Select (pred) ∘ Apply (z = sub) over X]
   and split the subquery, reusing the decorrelator's machinery. *)
let two_block_pattern query =
  match query.Plan.plan with
  | Plan.Select { pred; input = Plan.Apply { var = z; subquery; input } }
    when Ast.occurs_free z pred -> (
    let outer = Sset.of_list (Plan.vars_of input) in
    match Decorrelate.split_subquery_for_baselines outer subquery with
    | Some (base, corr, result) -> Ok (pred, z, input, base, corr, result)
    | None -> Error "subquery does not split into base + correlation")
  | _ -> Error "not a two-block Select-over-Apply query"

let fresh_names used n base =
  let rec go used acc i =
    if i = 0 then (used, List.rev acc)
    else begin
      let v = Ast.fresh used base in
      go (Sset.add v used) (v :: acc) (i - 1)
    end
  in
  go used [] n

let used_of query =
  Sset.union
    (Sset.of_list
       (Plan.fold
          (fun acc node ->
            match node with
            | Plan.Table { var; _ }
            | Plan.Unnest { var; _ }
            | Plan.Extend { var; _ }
            | Plan.Apply { var; _ } ->
              var :: acc
            | Plan.Nestjoin { label; _ } | Plan.Nest { label; _ } ->
              label :: acc
            | Plan.Unit | Plan.Select _ | Plan.Join _ | Plan.Semijoin _
            | Plan.Antijoin _ | Plan.Outerjoin _ | Plan.Project _
            | Plan.Union _ ->
              acc)
          [] query.Plan.plan))
    (Classify.all_vars_of query.Plan.result)

let kim query =
  match two_block_pattern query with
  | Error _ as e -> e
  | Ok (pred, z, x_plan, base, corr, result) -> (
    let left_vars = Plan.vars_of x_plan in
    let right_vars = Plan.vars_of base in
    match equi_split ~left_vars ~right_vars corr with
    | None -> Error "correlation predicate is not an equi-join"
    | Some (pairs, residual) ->
      if residual <> [] then
        Error "correlation predicate has non-equi conjuncts"
      else begin
        (* T = ν_{keys}(Y): extend Y with the key value(s), nest the G
           values per key; then join X with T on its key expressions. *)
        let used = used_of query in
        let used, keys = fresh_names used (List.length pairs) "k" in
        ignore used;
        let extended =
          List.fold_left2
            (fun plan k (_, re) -> Plan.Extend { var = k; expr = re; input = plan })
            base keys pairs
        in
        let grouped =
          Plan.Nest
            { by = keys; label = z; func = result; nulls = []; input = extended }
        in
        let join_pred =
          Ast.conj
            (List.map2
               (fun k (le, _) -> Ast.Binop (Ast.Eq, le, Ast.Var k))
               keys pairs)
        in
        let plan =
          Plan.Select
            {
              pred;
              input = Plan.Join { pred = join_pred; left = x_plan; right = grouped };
            }
        in
        Ok { query with Plan.plan }
      end)

(* Kim's variant (2): join, then group by the outer variables (the paper's
   GROUP BY form). The join drops dangling X rows before grouping can see
   them — the bug again, by a different route. *)
let kim_join_first query =
  match two_block_pattern query with
  | Error _ as e -> e
  | Ok (pred, z, x_plan, base, corr, result) ->
    let left_vars = Plan.vars_of x_plan in
    let plan =
      Plan.Select
        {
          pred;
          input =
            Plan.Nest
              {
                by = left_vars;
                label = z;
                func = result;
                nulls = [];
                input = Plan.Join { pred = corr; left = x_plan; right = base };
              };
        }
    in
    Ok { query with Plan.plan }

(* Shared between [kim] and [muralikrishna]: the grouped inner relation
   ν_keys(Y) and the equi-join predicate against it. *)
let grouped_inner query base corr ~left_vars ~right_vars =
  match equi_split ~left_vars ~right_vars corr with
  | None -> Error "correlation predicate is not an equi-join"
  | Some (pairs, residual) ->
    if residual <> [] then Error "correlation predicate has non-equi conjuncts"
    else begin
      let used = used_of query in
      let _, keys = fresh_names used (List.length pairs) "k" in
      let extended =
        List.fold_left2
          (fun plan k (_, re) -> Plan.Extend { var = k; expr = re; input = plan })
          base keys pairs
      in
      Ok (keys, pairs, extended)
    end

let muralikrishna query =
  match two_block_pattern query with
  | Error _ as e -> e
  | Ok (pred, z, x_plan, base, corr, result) -> (
    let left_vars = Plan.vars_of x_plan in
    let right_vars = Plan.vars_of base in
    match grouped_inner query base corr ~left_vars ~right_vars with
    | Error _ as e -> e
    | Ok (keys, pairs, extended) ->
      let grouped =
        Plan.Nest
          { by = keys; label = z; func = result; nulls = []; input = extended }
      in
      let join_pred =
        Ast.conj
          (List.map2
             (fun k (le, _) -> Ast.Binop (Ast.Eq, le, Ast.Var k))
             keys pairs)
      in
      (* matched branch: Kim's plan, projected back to the outer variables *)
      let matched =
        Plan.Project
          {
            vars = left_vars;
            input =
              Plan.Select
                {
                  pred;
                  input =
                    Plan.Join { pred = join_pred; left = x_plan; right = grouped };
                };
          }
      in
      (* dangling branch: the antijoin predicate P[z := ∅] *)
      let dangling =
        Plan.Select
          {
            pred = Ast.subst z (Ast.Const (Cobj.Value.Set [])) pred;
            input =
              Plan.Antijoin
                { pred = join_pred; left = x_plan; right = grouped };
          }
      in
      Ok { query with Plan.plan = Plan.Union { left = matched; right = dangling } })

let ganski_wong query =
  match two_block_pattern query with
  | Error _ as e -> e
  | Ok (pred, z, x_plan, base, corr, result) ->
    let left_vars = Plan.vars_of x_plan in
    let right_vars = Plan.vars_of base in
    let plan =
      Plan.Select
        {
          pred;
          input =
            Plan.Nest
              {
                by = left_vars;
                label = z;
                func = result;
                nulls = right_vars;
                input =
                  Plan.Outerjoin { pred = corr; left = x_plan; right = base };
              };
        }
    in
    Ok { query with Plan.plan }

let rec nestjoin_as_outerjoin plan =
  let plan = Plan.map_children nestjoin_as_outerjoin plan in
  match plan with
  | Plan.Nestjoin { pred; func; label; left; right } ->
    Plan.Nest
      {
        by = Plan.vars_of left;
        label;
        func;
        nulls = Plan.vars_of right;
        input = Plan.Outerjoin { pred; left; right };
      }
  | _ -> plan
