module Value = Cobj.Value
module Env = Cobj.Env
module Interp = Lang.Interp

let eval = Interp.eval
let truth = Interp.truth

let canonical envs = List.sort_uniq Env.compare envs

let rec rows catalog env plan =
  let result =
    match plan with
    | Plan.Unit -> [ env ]
    | Plan.Table { name; var } ->
      let table = Cobj.Catalog.find_exn name catalog in
      List.map (fun v -> Env.bind var v env) (Cobj.Table.rows table)
    | Plan.Select { pred; input } ->
      List.filter (fun r -> truth catalog r pred) (rows catalog env input)
    | Plan.Join { pred; left; right } ->
      product catalog env left right
      |> List.filter (fun r -> truth catalog r pred)
    | Plan.Semijoin { pred; left; right } ->
      let rrows = own_rows catalog env right in
      rows catalog env left
      |> List.filter (fun l ->
             List.exists (fun r -> truth catalog (Env.append r l) pred) rrows)
    | Plan.Antijoin { pred; left; right } ->
      let rrows = own_rows catalog env right in
      rows catalog env left
      |> List.filter (fun l ->
             not
               (List.exists
                  (fun r -> truth catalog (Env.append r l) pred)
                  rrows))
    | Plan.Outerjoin { pred; left; right } ->
      let rrows = own_rows catalog env right in
      let rvars = Plan.vars_of right in
      rows catalog env left
      |> List.concat_map (fun l ->
             let matches =
               List.filter_map
                 (fun r ->
                   let merged = Env.append r l in
                   if truth catalog merged pred then Some merged else None)
                 rrows
             in
             match matches with
             | [] ->
               [ List.fold_left (fun acc v -> Env.bind v Value.Null acc) l rvars ]
             | _ :: _ -> matches)
    | Plan.Nestjoin { pred; func; label; left; right } ->
      let rrows = own_rows catalog env right in
      rows catalog env left
      |> List.map (fun l ->
             let members =
               List.filter_map
                 (fun r ->
                   let merged = Env.append r l in
                   if truth catalog merged pred then
                     Some (eval catalog merged func)
                   else None)
                 rrows
             in
             Env.bind label (Value.set members) l)
    | Plan.Unnest { expr; var; input } ->
      rows catalog env input
      |> List.concat_map (fun r ->
             Value.elements (eval catalog r expr)
             |> List.map (fun x -> Env.bind var x r))
    | Plan.Nest { by; label; func; nulls; input } ->
      let input_rows = rows catalog env input in
      let key r = Env.to_value (Env.project by r) in
      let groups = Hashtbl.create 64 in
      let order = ref [] in
      List.iter
        (fun r ->
          let k = key r in
          match Hashtbl.find_opt groups k with
          | Some members -> Hashtbl.replace groups k (r :: members)
          | None ->
            order := (k, r) :: !order;
            Hashtbl.add groups k [ r ])
        input_rows;
      let padded r =
        nulls <> []
        && List.for_all
             (fun v -> Value.equal (Env.find v r) Value.Null)
             nulls
      in
      List.rev_map
        (fun (k, representative) ->
          let members = Hashtbl.find groups k in
          let set =
            Value.set
              (List.filter_map
                 (fun r ->
                   if padded r then None else Some (eval catalog r func))
                 members)
          in
          let base =
            List.fold_left
              (fun acc v -> Env.bind v (Env.find v representative) acc)
              env by
          in
          Env.bind label set base)
        !order
    | Plan.Extend { var; expr; input } ->
      rows catalog env input
      |> List.map (fun r -> Env.bind var (eval catalog r expr) r)
    | Plan.Project { vars; input } ->
      rows catalog env input
      |> List.map (fun r -> Env.append (Env.project vars r) env)
    | Plan.Apply { var; subquery; input } ->
      rows catalog env input
      |> List.map (fun r -> Env.bind var (run_under catalog r subquery) r)
    | Plan.Union { left; right } ->
      rows catalog env left @ rows catalog env right
  in
  canonical result

and product catalog env left right =
  let lrows = rows catalog env left in
  (* The right side of a product never references left variables (that
     would be a dependency, expressed by Apply/Unnest instead), so it is
     evaluated once, under the ambient env only. *)
  let rrows = own_rows catalog env right in
  List.concat_map (fun l -> List.map (fun r -> Env.append r l) rrows) lrows

(* The rows of a join's right operand as a pair binds them: only the
   operand's own variables, so that a pair binds the ambient env, then the
   left row's own variables, then the right's, each shadowing the one
   before. *)
and own_rows catalog env right =
  let vars = Plan.vars_of right in
  List.map (Env.project vars) (rows catalog env right)

and run_under catalog env { Plan.plan; result } =
  let produced = rows catalog env plan in
  Value.set (List.map (fun r -> eval catalog r result) produced)

let run catalog query = run_under catalog Env.empty query
