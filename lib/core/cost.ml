module Plan = Algebra.Plan
module P = Engine.Physical
module Ast = Lang.Ast
module Cstats = Cobj.Stats

(* Fallback selectivity constants, used when catalog statistics cannot
   resolve a key (computed keys, intermediate operands): coarse but stable
   across benches. *)
let sel_filter = 0.33
let sel_equi = 0.1
let sel_semi = 0.5
let avg_set = 4.0

(* Hash builds are costlier than probes (allocation, bucket chaining), and
   the build table has to be resident — weighting the build side steers the
   planner toward building on the smaller operand when the statistics can
   tell the operands apart (the inner hash join's orientation candidates
   in [Planner]). *)
let build_weight = 2.0

let table_card catalog name =
  match Cstats.row_count catalog name with
  | Some n -> float_of_int n
  | None -> 1000.0

(* --- resolving key expressions to base-table statistics ------------------ *)

(* The base table whose scan binds [v] somewhere in the subtree. Variable
   names are unique per query (the translator generates fresh ones), so a
   loose subtree search is sound for estimation. A cached build side binds
   its scan variable without appearing among the operator's children. *)
let rec pvar_table plan v =
  let here =
    match plan, P.cached_build plan with
    | P.Scan { table; var }, _ | _, Some (table, var, _) ->
      if String.equal var v then Some table else None
    | _, None -> None
  in
  match here with
  | Some _ -> here
  | None ->
    List.find_map (fun c -> pvar_table c v) (Engine.Analyze.children plan)

let rec lvar_table plan v =
  match plan with
  | Plan.Unit -> None
  | Plan.Table { name; var } -> if String.equal var v then Some name else None
  | Plan.Select { input; _ }
  | Plan.Unnest { input; _ }
  | Plan.Nest { input; _ }
  | Plan.Extend { input; _ }
  | Plan.Project { input; _ } ->
    lvar_table input v
  | Plan.Join { left; right; _ }
  | Plan.Semijoin { left; right; _ }
  | Plan.Antijoin { left; right; _ }
  | Plan.Outerjoin { left; right; _ }
  | Plan.Nestjoin { left; right; _ }
  | Plan.Union { left; right } -> (
    match lvar_table left v with
    | Some _ as r -> r
    | None -> lvar_table right v)
  | Plan.Apply { subquery; input; _ } -> (
    match lvar_table input v with
    | Some _ as r -> r
    | None -> lvar_table subquery.Plan.plan v)

(* NDV of a key expression over an operand, via catalog statistics:
   [x.f] resolves to the field's NDV, a bare [x] to the table's row count,
   and a parallel tuple of resolvable keys to the product (independence).
   [None] when any component is opaque. [var_table] abstracts over
   logical/physical operands. *)
let rec key_ndv catalog var_table key =
  match key with
  | Ast.Field (Ast.Var v, f) -> (
    match var_table v with
    | Some table ->
      Option.map float_of_int (Cstats.ndv catalog ~table ~field:f)
    | None -> None)
  | Ast.Var v ->
    Option.map float_of_int
      (Option.bind (var_table v) (fun t -> Cstats.row_count catalog t))
  | Ast.TupleE fields ->
    List.fold_left
      (fun acc (_, e) ->
        match acc, key_ndv catalog var_table e with
        | Some a, Some b -> Some (a *. b)
        | _ -> None)
      (Some 1.0) fields
  | _ -> None

(* NDV capped by the operand's own cardinality (a side cannot carry more
   distinct keys than rows). *)
let capped_ndv ndv side_card =
  Option.map (fun d -> Float.max 1.0 (Float.min d (Float.max 1.0 side_card))) ndv

(* Equi-join selectivity 1/max(ndv_l, ndv_r) — the classic System-R
   estimate, generalized to take whichever side resolves. *)
let equi_sel dl dr =
  match dl, dr with
  | Some dl, Some dr -> Some (1.0 /. Float.max dl dr)
  | Some d, None | None, Some d -> Some (1.0 /. d)
  | None, None -> None

(* Fraction of left rows with at least one right match, under key-domain
   containment: min(dl, dr) left key values find partners. Dangling-heavy
   workloads show up as dl >> dr, which is exactly when the estimate
   drops. *)
let semi_frac dl dr =
  match dl, dr with
  | Some dl, Some dr when dl > 0.0 -> Some (Float.min 1.0 (dr /. dl))
  | _ -> None

let avg_card_of catalog var_table expr =
  match expr with
  | Ast.Field (Ast.Var v, f) ->
    Option.bind (var_table v) (fun table ->
        Cstats.avg_set_card catalog ~table ~field:f)
  | _ -> None

(* --- logical cardinalities ----------------------------------------------- *)

let split_keys left right pred =
  Kim.equi_split ~left_vars:(Plan.vars_of left)
    ~right_vars:(Plan.vars_of right) pred

(* Combined per-side NDV over all equi pairs (independence product),
   [None] when any pair fails to resolve on that side. *)
let pairs_ndv catalog var_table side pairs =
  List.fold_left
    (fun acc pair ->
      let e = side pair in
      match acc, key_ndv catalog var_table e with
      | Some a, Some b -> Some (a *. b)
      | _ -> None)
    (Some 1.0) pairs

let rec card catalog plan =
  match plan with
  | Plan.Unit -> 1.0
  | Plan.Table { name; _ } -> table_card catalog name
  | Plan.Select { input; _ } -> sel_filter *. card catalog input
  | Plan.Join { pred; left; right } ->
    let l = card catalog left and r = card catalog right in
    let sel =
      match pred with
      | Ast.Const (Cobj.Value.Bool true) -> 1.0
      | _ -> (
        match split_keys left right pred with
        | Some (pairs, _) -> (
          let dl =
            capped_ndv (pairs_ndv catalog (lvar_table left) fst pairs) l
          in
          let dr =
            capped_ndv (pairs_ndv catalog (lvar_table right) snd pairs) r
          in
          match equi_sel dl dr with Some s -> s | None -> sel_equi)
        | None -> sel_equi)
    in
    l *. r *. sel
  | Plan.Semijoin { pred; left; right } ->
    lsemi_frac catalog pred left right *. card catalog left
  | Plan.Antijoin { pred; left; right } ->
    (1.0 -. lsemi_frac catalog pred left right) *. card catalog left
  | Plan.Outerjoin { left; right; _ } ->
    Float.max (card catalog left)
      (card catalog left *. card catalog right *. sel_equi)
  | Plan.Nestjoin { left; _ } -> card catalog left
  | Plan.Unnest { expr; input; _ } ->
    let per_row =
      match avg_card_of catalog (lvar_table input) expr with
      | Some c -> Float.max 1.0 c
      | None -> avg_set
    in
    per_row *. card catalog input
  | Plan.Nest { input; _ } -> 0.5 *. card catalog input
  | Plan.Extend { input; _ } | Plan.Apply { input; _ } -> card catalog input
  | Plan.Project { input; _ } -> 0.8 *. card catalog input
  | Plan.Union { left; right } -> card catalog left +. card catalog right

and lsemi_frac catalog pred left right =
  match split_keys left right pred with
  | Some (pairs, _) -> (
    let dl =
      capped_ndv
        (pairs_ndv catalog (lvar_table left) fst pairs)
        (card catalog left)
    in
    let dr =
      capped_ndv
        (pairs_ndv catalog (lvar_table right) snd pairs)
        (card catalog right)
    in
    match semi_frac dl dr with Some f -> f | None -> sel_semi)
  | None -> sel_semi

let log2 x = if x < 2.0 then 1.0 else Float.log x /. Float.log 2.0

(* --- proven-key oracle --------------------------------------------------- *)

(* When catalog statistics cannot resolve a key expression (computed keys,
   intermediate operands), a proven candidate key of the operand still gives
   an exact answer: a key has one row per distinct value, so
   ndv(key) = |operand|. The oracle lives in the [analysis] library
   ([Analysis.Certify.install] registers [Analysis.Props.key_of]); the hook
   keeps the dependency one-way, like the pipeline's verifier hook. *)
let key_hint : (Cobj.Catalog.t -> P.t -> Ast.expr -> bool) option ref =
  ref None

let set_key_hint h = key_hint := h

let proven_key catalog side key =
  match !key_hint with Some f -> f catalog side key | None -> false

(* --- physical cardinalities (mirrors [card]) ----------------------------- *)

let rec pcard catalog plan =
  let side_ndv side key =
    let ndv =
      match key_ndv catalog (pvar_table side) key with
      | Some _ as d -> d
      | None ->
        (* statistics failed — fall back to the proven-key oracle, which
           turns the estimate exact instead of the [sel_*] constants *)
        if proven_key catalog side key then Some (pcard catalog side)
        else None
    in
    capped_ndv ndv (pcard catalog side)
  in
  let equi left right lkey rkey =
    match equi_sel (side_ndv left lkey) (side_ndv right rkey) with
    | Some s -> s
    | None -> sel_equi
  in
  let semi left right lkey rkey =
    match semi_frac (side_ndv left lkey) (side_ndv right rkey) with
    | Some f -> f
    | None -> sel_semi
  in
  match plan with
  | P.Unit_row -> 1.0
  | P.Scan { table; _ } -> table_card catalog table
  | P.Filter { input; _ } -> sel_filter *. pcard catalog input
  (* A band, like a nested loop, is estimated with the fixed fractions:
     only equal keys have an NDV-based selectivity. *)
  | P.Join { kind = P.Inner; how; left; right } ->
    let sel =
      match P.equi_keys how with
      | None -> sel_equi
      | Some (lkey, rkey) -> equi left right lkey rkey
    in
    pcard catalog left *. pcard catalog right *. sel
  | P.Join { kind = P.Semi { anti }; how; left; right } ->
    let f =
      match P.equi_keys how with
      | None -> sel_semi
      | Some (lkey, rkey) -> semi left right lkey rkey
    in
    (if anti then 1.0 -. f else f) *. pcard catalog left
  | P.Join { kind = P.Outer; left; right; _ } ->
    Float.max (pcard catalog left)
      (pcard catalog left *. pcard catalog right *. sel_equi)
  | P.Join { kind = P.Nest _; left; _ } -> pcard catalog left
  | P.Unnest_op { expr; input; _ } ->
    let per_row =
      match avg_card_of catalog (pvar_table input) expr with
      | Some c -> Float.max 1.0 c
      | None -> avg_set
    in
    per_row *. pcard catalog input
  | P.Nest_op { input; _ } -> 0.5 *. pcard catalog input
  | P.Extend_op { input; _ } | P.Apply_op { input; _ } -> pcard catalog input
  | P.Project_op { input; _ } -> 0.8 *. pcard catalog input
  | P.Union_op { left; right } -> pcard catalog left +. pcard catalog right

(* A one-sided band selects, for each left row, a prefix or a suffix of
   the sorted right rows: half of them on average. *)
let band_frac = 0.5

(* A band's sort and bisections compare keys, which costs about a tenth
   of what the nested loop pays per pair (an environment and a predicate
   closure): on 100 × 100 xy rows, a band antijoin without a residual
   sorts, bisects and tests every range in 29 µs, while the loop takes
   about 140 ns per pair. *)
let compare_weight = 0.1

let rec cost catalog plan =
  let c = cost catalog and n = pcard catalog in
  (* probe side + weighted build side: what every hash join pays on top
     of producing its operands *)
  let hash_work ~probe ~build = n probe +. (build_weight *. n build) in
  (* A right-build hash join: a cached build runs no scan and costs one
     pass over its table when cold, nothing when warm. *)
  let right_build left right =
    match P.cached_build plan with
    | Some (table, _, field) ->
      let build =
        match Cobj.Catalog.find table catalog with
        | Some t when Engine.Exec.is_cached t field -> 0.0
        | _ -> table_card catalog table
      in
      c left +. n left +. build
    | None -> c left +. c right +. hash_work ~probe:left ~build:right
  in
  match plan with
  | P.Unit_row -> 1.0
  | P.Scan { table; _ } -> table_card catalog table
  | P.Filter { pred = _; input } -> c input +. n input
  | P.Join { kind; how = P.Loop _; left; right } ->
    let pairs =
      match kind with
      | P.Semi _ -> 0.5 *. n left *. n right
      | P.Inner | P.Outer | P.Nest _ -> n left *. n right
    in
    c left +. c right +. pairs
  | P.Join { kind; how = P.Keyed { by; residual; _ }; left; right } -> (
    let work =
      match by with
      | P.Hash -> right_build left right
      | P.Hash_left ->
        (* §6 variant: the build side is the left operand *)
        c left +. c right +. hash_work ~probe:right ~build:left
      | P.Sort P.Eq ->
        c left +. c right
        +. (n left *. log2 (n left))
        +. (n right *. log2 (n right))
      | P.Sort (P.Lt | P.Le | P.Gt | P.Ge) ->
        (* Sort the right operand, bisect it once per left row, then
           work inside the ranges: a semijoin or antijoin without a
           residual only tests a range for emptiness, and with one
           searches it to its first match, as the loop searches every
           right row; a nest join whose function reads only the right
           operand walks the sorted right rows once and reads each group
           off the walk; every other band evaluates its residual or
           function, or gathers its output, over each candidate pair. *)
        let reads_left e =
          not
            (Ast.String_set.disjoint (Ast.free_vars e)
               (Ast.String_set.of_list (P.vars_of left)))
        in
        let range =
          match kind, residual with
          | P.Semi _, None -> 0.0
          | P.Semi _, Some _ -> band_frac *. 0.5 *. n left *. n right
          | P.Nest { func; _ }, None when not (reads_left func) -> n right
          | (P.Inner | P.Outer | P.Nest _), _ ->
            band_frac *. n left *. n right
        in
        c left +. c right
        +. compare_weight
           *. ((n right *. log2 (n right)) +. (n left *. log2 (n right)))
        +. range
    in
    (* a semijoin emits probe rows it already has *)
    match kind with
    | P.Semi _ -> work
    | P.Inner | P.Outer | P.Nest _ -> work +. n plan)
  | P.Unnest_op { input; _ } -> c input +. n plan
  | P.Nest_op { input; _ } -> c input +. n input
  | P.Extend_op { input; _ } | P.Project_op { input; _ } -> c input +. n input
  | P.Apply_op { subquery; memo; input; _ } ->
    let per = query_cost_aux catalog subquery in
    let evaluations = if memo then Float.min (n input) 64.0 else n input in
    c input +. (evaluations *. per)
  | P.Union_op { left; right } ->
    c left +. c right +. n plan

and query_cost_aux catalog { P.plan; _ } = cost catalog plan +. pcard catalog plan

let query_cost = query_cost_aux

let query_card catalog { P.plan; _ } = pcard catalog plan

let card_physical = pcard

(* Fill a [Stats.node] annotation tree with estimated cardinalities. The
   tree shape comes from [Engine.Analyze.tree_of_plan], so operands line up
   with [Engine.Analyze.children]. *)
let rec annotate catalog plan (node : Engine.Stats.node) =
  node.Engine.Stats.est_rows <- pcard catalog plan;
  let operands = Engine.Analyze.children plan in
  if List.length operands = List.length node.Engine.Stats.children then
    List.iter2 (annotate catalog) operands node.Engine.Stats.children

(* --- naming the inputs behind an estimate -------------------------------- *)

let pp_e = Lang.Pretty.pp

(* Which statistic a key expression resolved to — [ndv(T.f)=13],
   [rows(T)=40] — or why it fell back to a constant. This is the
   "responsible input" line of the misestimation report: when an operator's
   estimate is off, it says which [Cobj.Stats] number (or which fallback)
   produced it. *)
let rec describe_key catalog side key =
  match key with
  | Ast.Field (Ast.Var v, f) -> (
    match pvar_table side v with
    | Some table -> (
      match Cstats.ndv catalog ~table ~field:f with
      | Some d -> Printf.sprintf "ndv(%s.%s)=%d" table f d
      | None -> Printf.sprintf "ndv(%s.%s) unknown" table f)
    | None -> Fmt.str "[%a] not bound to a base table" pp_e key)
  | Ast.Var v -> (
    match pvar_table side v with
    | Some table ->
      Printf.sprintf "rows(%s)=%.0f" table (table_card catalog table)
    | None -> Fmt.str "[%a] not bound to a base table" pp_e key)
  | Ast.TupleE fields ->
    String.concat " × "
      (List.map (fun (_, e) -> describe_key catalog side e) fields)
  | _ -> Fmt.str "[%a] opaque, fallback constants" pp_e key

let explain catalog plan =
  let key = describe_key catalog in
  match plan with
  | P.Unit_row -> "constant single row"
  | P.Scan { table; _ } ->
    Printf.sprintf "rows(%s)=%.0f from catalog statistics" table
      (table_card catalog table)
  | P.Filter _ ->
    Printf.sprintf
      "|input| × fixed filter selectivity %.2f (predicates are not analyzed)"
      sel_filter
  | P.Join { kind = P.Inner; how; left; right } -> (
    match how, P.equi_keys how with
    | _, Some (lkey, rkey) ->
      Printf.sprintf "|left| × |right| / max ndv: %s, %s" (key left lkey)
        (key right rkey)
    | P.Loop _, None ->
      Printf.sprintf
        "|left| × |right| × fixed selectivity %.2f (nl-join keys are not \
         analyzed)"
        sel_equi
    | P.Keyed _, None ->
      Printf.sprintf
        "|left| × |right| × fixed selectivity %.2f (band keys are not \
         analyzed)"
        sel_equi)
  | P.Join { kind = P.Semi { anti }; how; left; right } -> (
    match how, P.equi_keys how with
    | _, Some (lkey, rkey) ->
      Printf.sprintf "%smatch fraction min(1, ndv ratio): probe %s vs build %s"
        (if anti then "1 − " else "")
        (key left lkey) (key right rkey)
    | _, None ->
      Printf.sprintf "|left| × fixed %s fraction (%s predicate not analyzed), \
                      sel=%.2f"
        (if anti then "antijoin" else "semijoin")
        (match how with P.Loop _ -> "nl" | P.Keyed _ -> "band")
        (if anti then 1.0 -. sel_semi else sel_semi))
  | P.Join { kind = P.Outer; _ } ->
    Printf.sprintf
      "max(|left|, |left| × |right| × fixed selectivity %.2f)" sel_equi
  | P.Join { kind = P.Nest _; _ } ->
    "nest join preserves |left| (one output row per left row)"
  | P.Unnest_op { expr; input; _ } -> (
    match avg_card_of catalog (pvar_table input) expr with
    | Some c ->
      Fmt.str "|input| × avg set card %.1f measured for [%a]" (Float.max 1.0 c)
        pp_e expr
    | None ->
      Fmt.str "|input| × fixed avg set card %.1f ([%a] unresolved)" avg_set
        pp_e expr)
  | P.Nest_op _ ->
    "0.5 × |input| (fixed grouping factor; group keys are not analyzed)"
  | P.Extend_op _ | P.Apply_op _ -> "|input| (one output row per input row)"
  | P.Project_op _ -> "0.8 × |input| (fixed dedup factor)"
  | P.Union_op _ -> "|left| + |right|"
