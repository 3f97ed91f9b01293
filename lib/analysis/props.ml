module Ast = Lang.Ast
module P = Engine.Physical
module Sset = Ast.String_set
module Cstats = Cobj.Stats

type bounds = { lo : float; hi : float }

type t = {
  keys : Sset.t list;
  null_free : Sset.t;
  non_empty : Sset.t;
  distinct : bool;
  bounds : bounds;
}

let inf = Float.infinity

(* Everything unknown: the lattice top. Sound for any operator. *)
let top = {
  keys = [];
  null_free = Sset.empty;
  non_empty = Sset.empty;
  distinct = false;
  bounds = { lo = 0.0; hi = inf };
}

(* --- paths --------------------------------------------------------------- *)

let path v = v
let field_path v f = v ^ "." ^ f
let root p = match String.index_opt p '.' with
  | None -> p
  | Some i -> String.sub p 0 i

(* The paths a key expression denotes, when every component resolves to a
   variable or a field of one. [None] for opaque (computed) keys. *)
let rec paths_of_key_expr e =
  match e with
  | Ast.Var v -> Some [ path v ]
  | Ast.Field (Ast.Var v, f) -> Some [ field_path v f ]
  | Ast.TupleE fields ->
    List.fold_left
      (fun acc (_, e1) ->
        match acc, paths_of_key_expr e1 with
        | Some ps, Some qs -> Some (ps @ qs)
        | _ -> None)
      (Some []) fields
  | _ -> None

(* --- lattice operations -------------------------------------------------- *)

let key_mem k keys = List.exists (Sset.equal k) keys
let add_key k keys = if key_mem k keys then keys else keys @ [ k ]

let join a b = {
  keys = List.filter (fun k -> key_mem k b.keys) a.keys;
  null_free = Sset.inter a.null_free b.null_free;
  non_empty = Sset.inter a.non_empty b.non_empty;
  distinct = a.distinct && b.distinct;
  bounds = { lo = Float.min a.bounds.lo b.bounds.lo;
             hi = Float.max a.bounds.hi b.bounds.hi };
}

let meet a b = {
  keys = List.fold_left (fun acc k -> add_key k acc) a.keys b.keys;
  null_free = Sset.union a.null_free b.null_free;
  non_empty = Sset.union a.non_empty b.non_empty;
  distinct = a.distinct || b.distinct;
  bounds = { lo = Float.max a.bounds.lo b.bounds.lo;
             hi = Float.min a.bounds.hi b.bounds.hi };
}

let compatible a b =
  a.bounds.lo <= b.bounds.hi && b.bounds.lo <= a.bounds.hi

(* Keep only facts about paths rooted in [vars] (Project, Nest). *)
let restrict vars p =
  let keep s = Sset.filter (fun q -> Sset.mem (root q) vars) s in
  {
    p with
    keys = List.filter (fun k -> Sset.for_all (fun q -> Sset.mem (root q) vars) k) p.keys;
    null_free = keep p.null_free;
    non_empty = keep p.non_empty;
  }

(* --- per-operator transfer functions ------------------------------------- *)

let unit_props = {
  keys = [ Sset.empty ];  (* the empty column set: at most one row *)
  null_free = Sset.empty;
  non_empty = Sset.empty;
  distinct = true;
  bounds = { lo = 1.0; hi = 1.0 };
}

(* Catalog facts are exact: tables are immutable and the one-pass statistics
   ([Cobj.Stats.scan]) cover every row — so a scan's row count is an exact
   bound and null_frac = 0 / empty_frac = 0 are proofs, not estimates. *)
let scan_props catalog table var =
  let stats = Cstats.of_catalog catalog in
  let bounds =
    match Cstats.row_count catalog table with
    | Some n -> { lo = float_of_int n; hi = float_of_int n }
    | None -> { lo = 0.0; hi = inf }
  in
  (* rows are deduplicated sets, so the whole row is always a key *)
  let keys = [ Sset.singleton (path var) ] in
  let keys =
    match Option.bind (Cobj.Catalog.find table catalog) Cobj.Table.key with
    | Some fields ->
      add_key (Sset.of_list (List.map (field_path var) fields)) keys
    | None -> keys
  in
  let null_free, non_empty =
    match Cstats.table stats table with
    | None -> (Sset.singleton (path var), Sset.empty)
    | Some t ->
      List.fold_left
        (fun (nf, ne) (f, (a : Cstats.attr)) ->
          if String.equal f "" then (nf, ne)
          else
            let nf =
              if a.Cstats.null_frac = 0.0 then
                Sset.add (field_path var f) nf
              else nf
            in
            let ne =
              match a.Cstats.empty_frac with
              | Some 0.0 when a.Cstats.null_frac = 0.0 ->
                Sset.add (field_path var f) ne
              | _ -> ne
            in
            (nf, ne))
        (Sset.singleton (path var), Sset.empty)
        t.Cstats.attrs
  in
  { keys; null_free; non_empty; distinct = true; bounds }

let select_props p = { p with bounds = { p.bounds with lo = 0.0 } }

(* Does some key of [p] resolve through the equi-key expression [e]?  Then
   distinct values of [e] identify rows of the operand: at most one match
   per probe value. *)
let expr_is_key p e =
  match paths_of_key_expr e with
  | None -> false
  | Some paths ->
    let ps = Sset.of_list paths in
    List.exists (fun k -> Sset.subset k ps) p.keys

(* Unique-side detection over a list of equi pairs: the union of one side's
   key expressions covers a candidate key of that operand. *)
let pairs_unique side_of p pairs =
  match
    List.fold_left
      (fun acc pair ->
        match acc, paths_of_key_expr (side_of pair) with
        | Some ps, Some qs -> Some (ps @ qs)
        | _ -> None)
      (Some []) pairs
  with
  | None -> false
  | Some paths ->
    let ps = Sset.of_list paths in
    p.keys <> [] && List.exists (fun k -> Sset.subset k ps) p.keys

(* A join's equi-key pairs: an equi-keyed method's key pair, or those of
   any other method's predicate (a nested loop's, or a band's comparison
   and residual), split as the planner splits it — so every method proves
   what the logical join proves. *)
let equi_pairs left right how =
  match P.equi_keys how with
  | Some pair -> Some [ pair ]
  | None ->
    Option.map fst
      (Core.Kim.equi_split ~left_vars:(P.vars_of left)
         ~right_vars:(P.vars_of right) (P.join_pred how))

(* Inner-join combination: cross keys pairwise; a unique build side
   preserves the probe side's keys and caps the output at the probe side's
   cardinality. *)
let join_props ?(outer = false) ~runique ~lunique pl pr =
  let cross =
    List.concat_map (fun lk -> List.map (Sset.union lk) pr.keys) pl.keys
  in
  let keys = cross in
  let keys = if runique then List.fold_left (fun acc k -> add_key k acc) keys pl.keys else keys in
  let keys = if lunique && not outer then List.fold_left (fun acc k -> add_key k acc) keys pr.keys else keys in
  let hi =
    if runique then pl.bounds.hi
    else if lunique && not outer then pr.bounds.hi
    else if outer then pl.bounds.hi *. Float.max 1.0 pr.bounds.hi
    else pl.bounds.hi *. pr.bounds.hi
  in
  let lo = if outer then pl.bounds.lo else 0.0 in
  let null_free =
    if outer then pl.null_free
    else Sset.union pl.null_free pr.null_free
  in
  let non_empty =
    if outer then pl.non_empty else Sset.union pl.non_empty pr.non_empty
  in
  {
    keys;
    null_free;
    non_empty;
    distinct = pl.distinct && pr.distinct;
    bounds = { lo; hi };
  }

let semi_props pl = { pl with bounds = { pl.bounds with lo = 0.0 } }

let nestjoin_props label pl = {
  pl with
  null_free = Sset.add (path label) pl.null_free;
  (* one output row per left row: bounds preserved exactly *)
}

let unnest_props ~proven_non_empty pin = {
  keys = [];
  null_free = pin.null_free;
  non_empty = pin.non_empty;
  distinct = false;
  bounds =
    { lo = (if proven_non_empty then pin.bounds.lo else 0.0); hi = inf };
}

let nest_props ~by ~label ~nulls pin =
  let byset = Sset.of_list by in
  let kept = restrict byset pin in
  {
    keys = [ Sset.of_list (List.map path by) ];
    null_free = Sset.add (path label) kept.null_free;
    non_empty =
      (if nulls = [] then Sset.add (path label) kept.non_empty
       else kept.non_empty);
    distinct = true;
    bounds =
      { lo = (if pin.bounds.lo > 0.0 then 1.0 else 0.0); hi = pin.bounds.hi };
  }

let extend_props var pin =
  { pin with null_free = Sset.remove (path var) pin.null_free }

let project_props vars pin =
  let vset = Sset.of_list vars in
  let kept = restrict vset pin in
  {
    keys = add_key (Sset.of_list (List.map path vars)) kept.keys;
    null_free = kept.null_free;
    non_empty = kept.non_empty;
    distinct = true;
    bounds =
      { lo = (if pin.bounds.lo > 0.0 then 1.0 else 0.0); hi = pin.bounds.hi };
  }

let apply_props var pin =
  (* the subquery value is a set (possibly empty), never Null *)
  { pin with null_free = Sset.add (path var) pin.null_free }

let union_props pl pr = {
  keys = [];
  null_free = Sset.inter pl.null_free pr.null_free;
  non_empty = Sset.inter pl.non_empty pr.non_empty;
  distinct = pl.distinct && pr.distinct;
  bounds =
    {
      lo = Float.max pl.bounds.lo pr.bounds.lo;
      hi = pl.bounds.hi +. pr.bounds.hi;
    };
}

(* --- the plan walk -------------------------------------------------------- *)

let rec of_physical catalog plan =
  let go = of_physical catalog in
  match plan with
  | P.Unit_row -> unit_props
  | P.Scan { table; var } -> scan_props catalog table var
  | P.Filter { input; _ } -> select_props (go input)
  | P.Join { kind = (P.Inner | P.Outer) as kind; how; left; right } ->
    let pl = go left and pr = go right in
    let runique, lunique =
      match equi_pairs left right how with
      | Some pairs -> (pairs_unique snd pr pairs, pairs_unique fst pl pairs)
      | None -> (false, false)
    in
    (match kind with
    | P.Outer -> join_props ~outer:true ~runique ~lunique:false pl pr
    | _ ->
      let p = join_props ~runique ~lunique pl pr in
      (* any predicate can reject rows *)
      { p with bounds = { p.bounds with lo = 0.0 } })
  | P.Join { kind = P.Semi _; left; _ } -> semi_props (go left)
  | P.Join { kind = P.Nest { label; _ }; left; _ } ->
    nestjoin_props label (go left)
  | P.Unnest_op { expr; input; _ } ->
    let pin = go input in
    let proven =
      match expr with
      | Ast.Field (Ast.Var v, f) ->
        let p = field_path v f in
        Sset.mem p pin.non_empty && Sset.mem p pin.null_free
      | _ -> false
    in
    unnest_props ~proven_non_empty:proven pin
  | P.Nest_op { by; label; nulls; input; _ } ->
    nest_props ~by ~label ~nulls (go input)
  | P.Extend_op { var; input; _ } -> extend_props var (go input)
  | P.Project_op { vars; input } -> project_props vars (go input)
  | P.Apply_op { var; input; _ } -> apply_props var (go input)
  | P.Union_op { left; right } -> union_props (go left) (go right)

(* A logical plan has the properties of the nested-loop plan it denotes. *)
let of_plan catalog plan =
  of_physical catalog (Core.Planner.nested_loops_plan plan)

(* The §6 build-side obligation, generalized from "declared key of a bare
   scan" to "proven key of the whole right operand": a left-build hash
   nest join streams the right side, so output stays grouped by left rows
   only when each left row matches at most one right row — i.e. [rkey]
   covers a candidate key of the right operand. *)
let key_of catalog plan key_expr = expr_is_key (of_physical catalog plan) key_expr

(* --- rendering ----------------------------------------------------------- *)

let key_strings p =
  List.filter_map
    (fun k ->
      if Sset.is_empty k then None
      else Some (String.concat "," (Sset.elements k)))
    p.keys

let pp_bound ppf b =
  if Float.is_finite b then Fmt.pf ppf "%.0f" b else Fmt.string ppf "∞"

let pp ppf p =
  Fmt.pf ppf "bounds=[%a,%a]" pp_bound p.bounds.lo pp_bound p.bounds.hi;
  (match key_strings p with
  | [] -> ()
  | ks ->
    Fmt.pf ppf " keys=%s" (String.concat "|" (List.map (Printf.sprintf "{%s}") ks)));
  if not (Sset.is_empty p.null_free) then
    Fmt.pf ppf " null-free={%s}" (String.concat "," (Sset.elements p.null_free));
  if not (Sset.is_empty p.non_empty) then
    Fmt.pf ppf " non-empty={%s}" (String.concat "," (Sset.elements p.non_empty));
  if p.distinct then Fmt.string ppf " distinct"

let to_json p =
  let module J = Engine.Json in
  J.Obj
    [
      ("bounds_lo", J.Float p.bounds.lo);
      ( "bounds_hi",
        if Float.is_finite p.bounds.hi then J.Float p.bounds.hi else J.Null );
      ( "keys",
        J.List (List.map (fun k -> J.String k) (key_strings p)) );
      ( "null_free",
        J.List
          (List.map (fun v -> J.String v) (Sset.elements p.null_free)) );
      ( "non_empty",
        J.List
          (List.map (fun v -> J.String v) (Sset.elements p.non_empty)) );
      ("distinct", J.Bool p.distinct);
    ]

(* --- EXPLAIN ANALYZE annotation ------------------------------------------ *)

(* Stamp bounds and keys onto an annotation tree; shape and operand order
   from [Engine.Analyze.children], exactly like [Core.Cost.annotate]. The
   per-node recomputation is quadratic in plan size, which is irrelevant at
   EXPLAIN ANALYZE frequency. *)
let rec annotate catalog plan (node : Engine.Stats.node) =
  let p = of_physical catalog plan in
  node.Engine.Stats.bounds <- Some (p.bounds.lo, p.bounds.hi);
  node.Engine.Stats.keys <- key_strings p;
  let operands = Engine.Analyze.children plan in
  if List.length operands = List.length node.Engine.Stats.children then
    List.iter2 (annotate catalog) operands node.Engine.Stats.children
