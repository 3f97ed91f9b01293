module P = Physical

(* Operands in the order the executor descends them (and the order of
   [Stats.node.children]): unary → [input]; binary → [left; right], or
   just [left] when the right operand is a cached build the executor never
   runs ({!Physical.cached_build}); apply → [input; subquery plan]. [Core]
   relies on this order to annotate estimated cardinalities. *)
let children plan =
  match plan with
  | P.Join { left; _ } when Option.is_some (P.cached_build plan) -> [ left ]
  | P.Unit_row | P.Scan _ -> []
  | P.Filter { input; _ }
  | P.Unnest_op { input; _ }
  | P.Nest_op { input; _ }
  | P.Extend_op { input; _ }
  | P.Project_op { input; _ } ->
    [ input ]
  | P.Join { left; right; _ } | P.Union_op { left; right } -> [ left; right ]
  | P.Apply_op { subquery; input; _ } -> [ input; subquery.P.plan ]

let label plan =
  match P.describe plan with
  | op, None -> (op, "")
  | op, Some detail -> (op, Fmt.str "%t" detail)

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
