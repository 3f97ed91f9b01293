module Plan = Algebra.Plan

type expr = Lang.Ast.expr

type kind =
  | Inner
  | Semi of { anti : bool }
  | Outer
  | Nest of { func : expr; label : string }

type cmp = Eq | Lt | Le | Gt | Ge
type keyed = Hash | Sort of cmp | Hash_left

type how =
  | Loop of { pred : expr }
  | Keyed of { by : keyed; lkey : expr; rkey : expr; residual : expr option }

let binop_of_cmp = function
  | Eq -> Lang.Ast.Eq
  | Lt -> Lang.Ast.Lt
  | Le -> Lang.Ast.Le
  | Gt -> Lang.Ast.Gt
  | Ge -> Lang.Ast.Ge

let join_pred = function
  | Loop { pred } -> pred
  | Keyed { by; lkey; rkey; residual } ->
    let cmp = match by with Sort cmp -> cmp | Hash | Hash_left -> Eq in
    Lang.Ast.conj
      (Lang.Ast.Binop (binop_of_cmp cmp, lkey, rkey) :: Option.to_list residual)

let equi_keys = function
  | Keyed { by = Hash | Hash_left | Sort Eq; lkey; rkey; _ } -> Some (lkey, rkey)
  | Keyed { by = Sort (Lt | Le | Gt | Ge); _ } | Loop _ -> None

type t =
  | Unit_row
  | Scan of { table : string; var : string }
  | Filter of { pred : expr; input : t }
  | Join of { kind : kind; how : how; left : t; right : t }
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
  | Join { how = Keyed { by = Hash; rkey; _ }; right; _ } -> (
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
  | Join { kind = Inner | Outer; left; right; _ } ->
    vars_of left @ vars_of right
  | Join { kind = Semi _; left; _ } -> vars_of left
  | Join { kind = Nest { label; _ }; left; _ } -> vars_of left @ [ label ]
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
  | Join { left; right; _ } | Union_op { left; right } ->
    1 + size left + size right
  | Apply_op { subquery; input; _ } -> 1 + size subquery.plan + size input

(* A keyed method finds exactly the pairs where its key comparison and
   the residual hold; the memo flag of an apply changes no row. *)
let rec to_logical = function
  | Unit_row -> Plan.Unit
  | Scan { table; var } -> Plan.Table { name = table; var }
  | Filter { pred; input } -> Plan.Select { pred; input = to_logical input }
  | Join { kind; how; left; right } -> (
    let pred = join_pred how in
    let left = to_logical left and right = to_logical right in
    match kind with
    | Inner -> Plan.Join { pred; left; right }
    | Semi { anti = false } -> Plan.Semijoin { pred; left; right }
    | Semi { anti = true } -> Plan.Antijoin { pred; left; right }
    | Outer -> Plan.Outerjoin { pred; left; right }
    | Nest { func; label } -> Plan.Nestjoin { pred; func; label; left; right })
  | Unnest_op { expr; var; input } ->
    Plan.Unnest { expr; var; input = to_logical input }
  | Nest_op { by; label; func; nulls; input } ->
    Plan.Nest { by; label; func; nulls; input = to_logical input }
  | Extend_op { var; expr; input } ->
    Plan.Extend { var; expr; input = to_logical input }
  | Project_op { vars; input } ->
    Plan.Project { vars; input = to_logical input }
  | Apply_op { var; subquery; memo = _; input } ->
    Plan.Apply
      { var; subquery = to_logical_query subquery; input = to_logical input }
  | Union_op { left; right } ->
    Plan.Union { left = to_logical left; right = to_logical right }

and to_logical_query { plan; result } = { Plan.plan = to_logical plan; result }

let query_free_vars q = Plan.query_free_vars (to_logical_query q)

let e = Lang.Pretty.pp

let join_name kind how =
  let family =
    match how with
    | Loop _ -> "nl"
    | Keyed { by = Hash | Hash_left; _ } -> "hash"
    | Keyed { by = Sort _; _ } -> "merge"
  in
  let op =
    match kind with
    | Inner -> "join"
    | Semi { anti = false } -> "semijoin"
    | Semi { anti = true } -> "antijoin"
    | Outer -> "outerjoin"
    | Nest _ -> "nestjoin"
  in
  let side =
    match how with Keyed { by = Hash_left; _ } -> "(build=left)" | _ -> ""
  in
  family ^ "-" ^ op ^ side

let join_detail kind how ppf =
  (match how with
  | Loop { pred } -> Fmt.pf ppf "[%a]" e pred
  | Keyed { by; lkey; rkey; residual } ->
    let op =
      match by with
      | Hash | Hash_left | Sort Eq -> "="
      | Sort Lt -> "<"
      | Sort Le -> "<="
      | Sort Gt -> ">"
      | Sort Ge -> ">="
    in
    Fmt.pf ppf "[%a %s %a]" e lkey op e rkey;
    Option.iter (Fmt.pf ppf " residual=[%a]" e) residual);
  match kind with
  | Nest { func; label } -> Fmt.pf ppf " func=%a label=%s" e func label
  | Inner | Semi _ | Outer -> ()

let describe plan =
  let name, detail =
    match plan with
    | Unit_row -> ("unit", None)
    | Scan { table; var } ->
      ("scan", Some (fun ppf -> Fmt.pf ppf "%s %s" table var))
    | Filter { pred; _ } ->
      ("filter", Some (fun ppf -> Fmt.pf ppf "[%a]" e pred))
    | Join { kind; how; _ } -> (join_name kind how, Some (join_detail kind how))
    | Unnest_op { expr; var; _ } ->
      ("unnest", Some (fun ppf -> Fmt.pf ppf "%s in %a" var e expr))
    | Nest_op { by; label; func; nulls; _ } ->
      ( (if nulls = [] then "nest" else "nest*"),
        Some
          (fun ppf ->
            Fmt.pf ppf "by=[%s] label=%s func=%a" (String.concat ", " by) label
              e func) )
    | Extend_op { var; expr; _ } ->
      ("extend", Some (fun ppf -> Fmt.pf ppf "%s = %a" var e expr))
    | Project_op { vars; _ } ->
      ("project", Some (fun ppf -> Fmt.pf ppf "[%s]" (String.concat ", " vars)))
    | Apply_op { var; subquery; memo; _ } ->
      ( (if memo then "apply(memo)" else "apply"),
        Some (fun ppf -> Fmt.pf ppf "%s = (result %a)" var e subquery.result) )
    | Union_op _ -> ("union", None)
  in
  (* A cached build never runs its scan: name the table it probes. *)
  match cached_build plan, detail with
  | Some (table, _, field), Some d ->
    (name, Some (fun ppf -> Fmt.pf ppf "%t build=cached %s.%s" d table field))
  | _ -> (name, detail)

let rec pp ppf plan =
  let head ppf =
    match describe plan with
    | name, None -> Fmt.string ppf name
    | name, Some d -> Fmt.pf ppf "%s %t" name d
  in
  let unary input = Fmt.pf ppf "@[<v>%t@,└─ @[<v>%a@]@]" head pp input in
  let binary left right =
    Fmt.pf ppf "@[<v>%t@,├─ @[<v>%a@]@,└─ @[<v>%a@]@]" head pp left pp
      right
  in
  match plan with
  | Unit_row | Scan _ -> head ppf
  | Filter { input; _ }
  | Unnest_op { input; _ }
  | Nest_op { input; _ }
  | Extend_op { input; _ }
  | Project_op { input; _ } ->
    unary input
  (* a cached build side shows as the table it probes, not as a scan *)
  | Join { left; _ } when Option.is_some (cached_build plan) -> unary left
  | Join { left; right; _ } | Union_op { left; right } -> binary left right
  | Apply_op { subquery; input; _ } -> binary subquery.plan input

let pp_query ppf { plan; result } =
  Fmt.pf ppf "@[<v>result %a@,└─ @[<v>%a@]@]" e result pp plan

let to_string plan = Fmt.str "%a" pp plan
