module P = Physical

let e = Lang.Pretty.pp

(* Operands in the order the executor descends them (and the order of
   [Stats.node.children]): unary → [input]; binary → [left; right], or
   just [left] when the right operand is a cached build the executor never
   runs ({!Physical.cached_build}); apply → [input; subquery plan]. [Core]
   relies on this order to annotate estimated cardinalities. *)
let children plan =
  match plan with
  | P.Hash_join { left; _ }
  | P.Hash_semijoin { left; _ }
  | P.Hash_outerjoin { left; _ }
  | P.Hash_nestjoin { left; _ }
    when Option.is_some (P.cached_build plan) ->
    [ left ]
  | P.Unit_row | P.Scan _ -> []
  | P.Filter { input; _ }
  | P.Unnest_op { input; _ }
  | P.Nest_op { input; _ }
  | P.Extend_op { input; _ }
  | P.Project_op { input; _ } ->
    [ input ]
  | P.Nl_join { left; right; _ }
  | P.Hash_join { left; right; _ }
  | P.Merge_join { left; right; _ }
  | P.Nl_semijoin { left; right; _ }
  | P.Hash_semijoin { left; right; _ }
  | P.Merge_semijoin { left; right; _ }
  | P.Nl_outerjoin { left; right; _ }
  | P.Hash_outerjoin { left; right; _ }
  | P.Merge_outerjoin { left; right; _ }
  | P.Nl_nestjoin { left; right; _ }
  | P.Hash_nestjoin { left; right; _ }
  | P.Hash_nestjoin_left { left; right; _ }
  | P.Merge_nestjoin { left; right; _ }
  | P.Union_op { left; right } ->
    [ left; right ]
  | P.Apply_op { subquery; input; _ } -> [ input; subquery.P.plan ]

let keys_detail lkey rkey residual =
  Fmt.str "[%a = %a]%a" e lkey e rkey
    (fun ppf -> function
      | None -> ()
      | Some r -> Fmt.pf ppf " residual=[%a]" e r)
    residual

let label_of = function
  | P.Unit_row -> ("unit", "")
  | P.Scan { table; var } -> ("scan", Printf.sprintf "%s %s" table var)
  | P.Filter { pred; _ } -> ("filter", Fmt.str "[%a]" e pred)
  | P.Nl_join { pred; _ } -> ("nl-join", Fmt.str "[%a]" e pred)
  | P.Hash_join { lkey; rkey; residual; _ } ->
    ("hash-join", keys_detail lkey rkey residual)
  | P.Merge_join { lkey; rkey; residual; _ } ->
    ("merge-join", keys_detail lkey rkey residual)
  | P.Nl_semijoin { pred; anti; _ } ->
    ((if anti then "nl-antijoin" else "nl-semijoin"), Fmt.str "[%a]" e pred)
  | P.Hash_semijoin { lkey; rkey; residual; anti; _ } ->
    ( (if anti then "hash-antijoin" else "hash-semijoin"),
      keys_detail lkey rkey residual )
  | P.Merge_semijoin { lkey; rkey; residual; anti; _ } ->
    ( (if anti then "merge-antijoin" else "merge-semijoin"),
      keys_detail lkey rkey residual )
  | P.Nl_outerjoin { pred; _ } -> ("nl-outerjoin", Fmt.str "[%a]" e pred)
  | P.Hash_outerjoin { lkey; rkey; residual; _ } ->
    ("hash-outerjoin", keys_detail lkey rkey residual)
  | P.Merge_outerjoin { lkey; rkey; residual; _ } ->
    ("merge-outerjoin", keys_detail lkey rkey residual)
  | P.Nl_nestjoin { pred; func; label; _ } ->
    ("nl-nestjoin", Fmt.str "[%a] func=%a label=%s" e pred e func label)
  | P.Hash_nestjoin { lkey; rkey; residual; func; label; _ } ->
    ( "hash-nestjoin",
      Fmt.str "%s func=%a label=%s" (keys_detail lkey rkey residual) e func
        label )
  | P.Hash_nestjoin_left { lkey; rkey; residual; func; label; _ } ->
    ( "hash-nestjoin(build=left)",
      Fmt.str "%s func=%a label=%s" (keys_detail lkey rkey residual) e func
        label )
  | P.Merge_nestjoin { lkey; rkey; residual; func; label; _ } ->
    ( "merge-nestjoin",
      Fmt.str "%s func=%a label=%s" (keys_detail lkey rkey residual) e func
        label )
  | P.Unnest_op { expr; var; _ } ->
    ("unnest", Fmt.str "%s in %a" var e expr)
  | P.Nest_op { by; label; func; nulls; _ } ->
    ( (if nulls = [] then "nest" else "nest*"),
      Fmt.str "by=[%s] label=%s func=%a" (String.concat ", " by) label e func
    )
  | P.Extend_op { var; expr; _ } -> ("extend", Fmt.str "%s = %a" var e expr)
  | P.Project_op { vars; _ } ->
    ("project", Printf.sprintf "[%s]" (String.concat ", " vars))
  | P.Apply_op { var; subquery; memo; _ } ->
    ( (if memo then "apply(memo)" else "apply"),
      Fmt.str "%s = (result %a)" var e subquery.P.result )
  | P.Union_op _ -> ("union", "")

let label plan =
  let op, detail = label_of plan in
  match P.cached_build plan with
  | Some (table, _, field) ->
    (op, Printf.sprintf "%s build=cached %s.%s" detail table field)
  | None -> (op, detail)

let rec tree_of_plan plan =
  let op, detail = label plan in
  Stats.node ~op ~detail (List.map tree_of_plan (children plan))

let tree_of_query { P.plan; _ } = tree_of_plan plan

(* --- rendering ---------------------------------------------------------- *)

let pp_est ppf est =
  if Float.is_nan est then Fmt.string ppf "?"
  else Fmt.pf ppf "%.0f" est

let pp_counters ~timing ppf (c : Stats.t) =
  let field name v = if v > 0 then Some (name, v) else None in
  let fields =
    List.filter_map Fun.id
      [
        field "pred-evals" c.Stats.predicate_evals;
        field "builds" c.Stats.hash_builds;
        field "probes" c.Stats.hash_probes;
        field "sorts" c.Stats.sorts;
        field "applies" c.Stats.applies;
        field "apply-hits" c.Stats.apply_hits;
        field "bloom-checks" c.Stats.bloom_checks;
        field "bloom-prunes" c.Stats.bloom_prunes;
        field "swaps" c.Stats.build_side_swaps;
      ]
    (* morsel counters are jobs-dependent, so like wall-clock they hide
       behind --no-timing (which promises jobs-invariant output) *)
    @ (if timing then
         List.filter_map Fun.id
           [
             field "partitions" c.Stats.partitions;
             field "part-max" c.Stats.partition_max_rows;
           ]
       else [])
  in
  List.iter (fun (name, v) -> Fmt.pf ppf " %s=%d" name v) fields

let pp_bound ppf b =
  if Float.is_finite b then Fmt.pf ppf "%.0f" b else Fmt.string ppf "∞"

let pp_annot ~timing ppf (n : Stats.node) =
  Fmt.pf ppf "(est=%a actual=%d loops=%d" pp_est n.Stats.est_rows
    n.Stats.counters.Stats.rows_out n.Stats.loops;
  (* Property annotations appear only when an annotator stamped them
     ([Analysis.Certify]), so un-certified output is unchanged. *)
  (match n.Stats.bounds with
  | Some (lo, hi) -> Fmt.pf ppf " bounds=[%a,%a]" pp_bound lo pp_bound hi
  | None -> ());
  (match n.Stats.keys with
  | [] -> ()
  | keys ->
    Fmt.pf ppf " keys=%s"
      (String.concat "|" (List.map (Printf.sprintf "{%s}") keys)));
  if timing then begin
    Fmt.pf ppf " time=%.3fms" (Int64.to_float n.Stats.time_ns /. 1e6);
    (* Like the morsel counters, the engine marker hides behind
       --no-timing, whose output is promised identical between the row
       and vector engines. *)
    if n.Stats.vectorized then Fmt.string ppf " vectorized"
  end;
  Fmt.pf ppf "%a)" (pp_counters ~timing) n.Stats.counters

let rec pp_node ~timing ppf (n : Stats.node) =
  let header ppf n =
    match n.Stats.detail with
    | "" -> Fmt.pf ppf "%s  %a" n.Stats.op (pp_annot ~timing) n
    | d -> Fmt.pf ppf "%s %s  %a" n.Stats.op d (pp_annot ~timing) n
  in
  match n.Stats.children with
  | [] -> header ppf n
  | children ->
    Fmt.pf ppf "@[<v>%a" header n;
    List.iteri
      (fun i c ->
        let branch =
          if i = List.length children - 1 then "└─" else "├─"
        in
        Fmt.pf ppf "@,%s @[<v>%a@]" branch (pp_node ~timing) c)
      children;
    Fmt.pf ppf "@]"

let pp ?(timing = true) ppf n = Fmt.pf ppf "@[<v>%a@]" (pp_node ~timing) n

let to_string ?timing n = Fmt.str "%a" (pp ?timing) n

let rec to_json ?(timing = true) (n : Stats.node) =
  let c = n.Stats.counters in
  Json.Obj
    (List.concat
       [
         [
           ("op", Json.String n.Stats.op);
           ("detail", Json.String n.Stats.detail);
           ("est_rows", Json.Float n.Stats.est_rows);
           ("rows_out", Json.Int c.Stats.rows_out);
           ("loops", Json.Int n.Stats.loops);
         ];
         (* Property annotations, present only when a certifying annotator
            stamped the tree. An unbounded hi renders as null (valid JSON
            stands in for ∞ — see Json.float_repr). *)
         (match n.Stats.bounds with
         | Some (lo, hi) ->
           [
             ("bounds_lo", Json.Float lo);
             ("bounds_hi", if Float.is_finite hi then Json.Float hi else Json.Null);
           ]
         | None -> []);
         (match n.Stats.keys with
         | [] -> []
         | keys ->
           [ ("keys", Json.List (List.map (fun k -> Json.String k) keys)) ]);
         (* Partition and Gc fields ride under the [timing] flag: like
            wall-clock they are jobs/load-dependent, and --no-timing is the
            documented way to get jobs-invariant, diffable JSON. *)
         (if timing then
            [
              ("time_ns", Json.Int64 n.Stats.time_ns);
              ("vectorized", Json.Bool n.Stats.vectorized);
              ("partitions", Json.Int c.Stats.partitions);
              ("partition_max_rows", Json.Int c.Stats.partition_max_rows);
            ]
          else []);
         (match n.Stats.gc with
         | Some d when timing -> [ ("gc", Obs_json.gc d) ]
         | _ -> []);
         [
           ("predicate_evals", Json.Int c.Stats.predicate_evals);
           ("hash_builds", Json.Int c.Stats.hash_builds);
           ("hash_probes", Json.Int c.Stats.hash_probes);
           ("sorts", Json.Int c.Stats.sorts);
           ("applies", Json.Int c.Stats.applies);
           ("apply_hits", Json.Int c.Stats.apply_hits);
           ("bloom_checks", Json.Int c.Stats.bloom_checks);
           ("bloom_prunes", Json.Int c.Stats.bloom_prunes);
           ("build_side_swaps", Json.Int c.Stats.build_side_swaps);
           ("children", Json.List (List.map (to_json ~timing) n.Stats.children));
         ];
       ])
