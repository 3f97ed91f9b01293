type expr = Lang.Ast.expr

type t =
  | Unit_row
  | Scan of { table : string; var : string }
  | Filter of { pred : expr; input : t }
  | Nl_join of { pred : expr; left : t; right : t }
  | Hash_join of {
      lkey : expr;
      rkey : expr;
      residual : expr option;
      left : t;
      right : t;
    }
  | Merge_join of {
      lkey : expr;
      rkey : expr;
      residual : expr option;
      left : t;
      right : t;
    }
  | Nl_semijoin of { pred : expr; anti : bool; left : t; right : t }
  | Hash_semijoin of {
      lkey : expr;
      rkey : expr;
      residual : expr option;
      anti : bool;
      left : t;
      right : t;
    }
  | Merge_semijoin of {
      lkey : expr;
      rkey : expr;
      residual : expr option;
      anti : bool;
      left : t;
      right : t;
    }
  | Nl_outerjoin of { pred : expr; left : t; right : t }
  | Hash_outerjoin of {
      lkey : expr;
      rkey : expr;
      residual : expr option;
      left : t;
      right : t;
    }
  | Merge_outerjoin of {
      lkey : expr;
      rkey : expr;
      residual : expr option;
      left : t;
      right : t;
    }
  | Nl_nestjoin of {
      pred : expr;
      func : expr;
      label : string;
      left : t;
      right : t;
    }
  | Hash_nestjoin of {
      lkey : expr;
      rkey : expr;
      residual : expr option;
      func : expr;
      label : string;
      left : t;
      right : t;
    }
  | Hash_nestjoin_left of {
      lkey : expr;
      rkey : expr;
      residual : expr option;
      func : expr;
      label : string;
      left : t;
      right : t;
    }
  | Merge_nestjoin of {
      lkey : expr;
      rkey : expr;
      residual : expr option;
      func : expr;
      label : string;
      left : t;
      right : t;
    }
  | Unnest_op of { expr : expr; var : string; input : t }
  | Nest_op of {
      by : string list;
      label : string;
      func : expr;
      nulls : string list;
      input : t;
    }
  | Extend_op of { var : string; expr : expr; input : t }
  | Project_op of { vars : string list; input : t }
  | Apply_op of { var : string; subquery : query; memo : bool; input : t }
  | Union_op of { left : t; right : t }

and query = { plan : t; result : expr }

let cached_build = function
  | Hash_join { rkey; right; _ }
  | Hash_semijoin { rkey; right; _ }
  | Hash_outerjoin { rkey; right; _ }
  | Hash_nestjoin { rkey; right; _ } -> (
    match right, rkey with
    | Scan { table; var }, Lang.Ast.Field (Lang.Ast.Var v, field)
      when String.equal var v ->
      Some (table, var, field)
    | _, _ -> None)
  | _ -> None

let rec vars_of = function
  | Unit_row -> []
  | Scan { var; _ } -> [ var ]
  | Filter { input; _ } -> vars_of input
  | Nl_join { left; right; _ }
  | Hash_join { left; right; _ }
  | Merge_join { left; right; _ }
  | Nl_outerjoin { left; right; _ }
  | Hash_outerjoin { left; right; _ }
  | Merge_outerjoin { left; right; _ } ->
    vars_of left @ vars_of right
  | Nl_semijoin { left; _ } | Hash_semijoin { left; _ }
  | Merge_semijoin { left; _ } ->
    vars_of left
  | Nl_nestjoin { left; label; _ }
  | Hash_nestjoin { left; label; _ }
  | Hash_nestjoin_left { left; label; _ }
  | Merge_nestjoin { left; label; _ } ->
    vars_of left @ [ label ]
  | Unnest_op { var; input; _ } -> vars_of input @ [ var ]
  | Nest_op { by; label; _ } -> by @ [ label ]
  | Extend_op { var; input; _ } -> vars_of input @ [ var ]
  | Project_op { vars; _ } -> vars
  | Apply_op { var; input; _ } -> vars_of input @ [ var ]
  | Union_op { left; _ } -> vars_of left

let rec size = function
  | Unit_row | Scan _ -> 1
  | Filter { input; _ }
  | Unnest_op { input; _ }
  | Nest_op { input; _ }
  | Extend_op { input; _ }
  | Project_op { input; _ } ->
    1 + size input
  | Nl_join { left; right; _ }
  | Hash_join { left; right; _ }
  | Merge_join { left; right; _ }
  | Nl_semijoin { left; right; _ }
  | Hash_semijoin { left; right; _ }
  | Merge_semijoin { left; right; _ }
  | Nl_outerjoin { left; right; _ }
  | Hash_outerjoin { left; right; _ }
  | Merge_outerjoin { left; right; _ }
  | Nl_nestjoin { left; right; _ }
  | Hash_nestjoin { left; right; _ }
  | Hash_nestjoin_left { left; right; _ }
  | Merge_nestjoin { left; right; _ } ->
    1 + size left + size right
  | Apply_op { subquery; input; _ } -> 1 + size subquery.plan + size input
  | Union_op { left; right } -> 1 + size left + size right

let e = Lang.Pretty.pp

let pp_keys ppf (lkey, rkey, residual) =
  Fmt.pf ppf "[%a = %a]" e lkey e rkey;
  match residual with
  | None -> ()
  | Some r -> Fmt.pf ppf " residual=[%a]" e r

let rec pp ppf plan =
  let unary name args input =
    Fmt.pf ppf "@[<v>%s%t@,└─ @[<v>%a@]@]" name args pp input
  in
  (* A cached build never runs its scan: show the table it probes
     instead, as EXPLAIN ANALYZE does. *)
  let binary name args left right =
    match cached_build plan with
    | Some (table, _, field) ->
      unary name
        (fun ppf -> Fmt.pf ppf "%t build=cached %s.%s" args table field)
        left
    | None ->
      Fmt.pf ppf "@[<v>%s%t@,├─ @[<v>%a@]@,└─ @[<v>%a@]@]" name args pp left
        pp right
  in
  match plan with
  | Unit_row -> Fmt.pf ppf "unit"
  | Scan { table; var } -> Fmt.pf ppf "scan %s %s" table var
  | Filter { pred; input } ->
    unary "filter" (fun ppf -> Fmt.pf ppf " [%a]" e pred) input
  | Nl_join { pred; left; right } ->
    binary "nl-join" (fun ppf -> Fmt.pf ppf " [%a]" e pred) left right
  | Hash_join { lkey; rkey; residual; left; right } ->
    binary "hash-join" (fun ppf -> Fmt.pf ppf " %a" pp_keys (lkey, rkey, residual)) left right
  | Merge_join { lkey; rkey; residual; left; right } ->
    binary "merge-join" (fun ppf -> Fmt.pf ppf " %a" pp_keys (lkey, rkey, residual)) left right
  | Nl_semijoin { pred; anti; left; right } ->
    binary
      (if anti then "nl-antijoin" else "nl-semijoin")
      (fun ppf -> Fmt.pf ppf " [%a]" e pred)
      left right
  | Hash_semijoin { lkey; rkey; residual; anti; left; right } ->
    binary
      (if anti then "hash-antijoin" else "hash-semijoin")
      (fun ppf -> Fmt.pf ppf " %a" pp_keys (lkey, rkey, residual))
      left right
  | Merge_semijoin { lkey; rkey; residual; anti; left; right } ->
    binary
      (if anti then "merge-antijoin" else "merge-semijoin")
      (fun ppf -> Fmt.pf ppf " %a" pp_keys (lkey, rkey, residual))
      left right
  | Nl_outerjoin { pred; left; right } ->
    binary "nl-outerjoin" (fun ppf -> Fmt.pf ppf " [%a]" e pred) left right
  | Hash_outerjoin { lkey; rkey; residual; left; right } ->
    binary "hash-outerjoin"
      (fun ppf -> Fmt.pf ppf " %a" pp_keys (lkey, rkey, residual))
      left right
  | Merge_outerjoin { lkey; rkey; residual; left; right } ->
    binary "merge-outerjoin"
      (fun ppf -> Fmt.pf ppf " %a" pp_keys (lkey, rkey, residual))
      left right
  | Nl_nestjoin { pred; func; label; left; right } ->
    binary "nl-nestjoin"
      (fun ppf -> Fmt.pf ppf " [%a] func=%a label=%s" e pred e func label)
      left right
  | Hash_nestjoin { lkey; rkey; residual; func; label; left; right } ->
    binary "hash-nestjoin"
      (fun ppf ->
        Fmt.pf ppf " %a func=%a label=%s" pp_keys (lkey, rkey, residual) e
          func label)
      left right
  | Hash_nestjoin_left { lkey; rkey; residual; func; label; left; right } ->
    binary "hash-nestjoin(build=left)"
      (fun ppf ->
        Fmt.pf ppf " %a func=%a label=%s" pp_keys (lkey, rkey, residual) e
          func label)
      left right
  | Merge_nestjoin { lkey; rkey; residual; func; label; left; right } ->
    binary "merge-nestjoin"
      (fun ppf ->
        Fmt.pf ppf " %a func=%a label=%s" pp_keys (lkey, rkey, residual) e
          func label)
      left right
  | Unnest_op { expr; var; input } ->
    unary "unnest" (fun ppf -> Fmt.pf ppf " %s in %a" var e expr) input
  | Nest_op { by; label; func; nulls; input } ->
    unary
      (if nulls = [] then "nest" else "nest*")
      (fun ppf ->
        Fmt.pf ppf " by=[%s] label=%s func=%a" (String.concat ", " by) label e
          func)
      input
  | Extend_op { var; expr; input } ->
    unary "extend" (fun ppf -> Fmt.pf ppf " %s = %a" var e expr) input
  | Project_op { vars; input } ->
    unary "project" (fun ppf -> Fmt.pf ppf " [%s]" (String.concat ", " vars)) input
  | Apply_op { var; subquery; memo; input } ->
    Fmt.pf ppf "@[<v>apply%s %s = (result %a)@,├─ @[<v>%a@]@,└─ @[<v>%a@]@]"
      (if memo then "(memo)" else "")
      var e subquery.result pp subquery.plan pp input
  | Union_op { left; right } ->
    binary "union" (fun _ -> ()) left right

let pp_query ppf { plan; result } =
  Fmt.pf ppf "@[<v>result %a@,└─ @[<v>%a@]@]" e result pp plan

let to_string plan = Fmt.str "%a" pp plan
