type t = (string * Value.t) list
(* Invariant: variable names are unique; most recent binding first. *)

let empty = []
let rec lookup x = function
  | [] -> None
  | (y, v) :: rest -> if String.equal x y then Some v else lookup x rest

let find x env =
  match lookup x env with
  | Some v -> v
  | None -> Value.type_error "unbound variable %s" x

let mem x env = List.exists (fun (y, _) -> String.equal x y) env
let unbind x env = List.filter (fun (y, _) -> not (String.equal x y)) env
let bind x v env = (x, v) :: unbind x env

(* [env] without the names bound in [bs], sharing its longest suffix that
   loses nothing. *)
let rec drop_shadowed bs env =
  match env with
  | [] -> []
  | ((y, _) as b) :: rest ->
    if List.exists (fun (x, _) -> String.equal x y) bs then
      drop_shadowed bs rest
    else
      let rest' = drop_shadowed bs rest in
      if rest' == rest then env else b :: rest'

let prepend bs env =
  let rec go seen = function
    | [] -> drop_shadowed bs env
    | ((x, _) as b) :: rest ->
      if List.exists (String.equal x) seen then go seen rest
      else b :: go (x :: seen) rest
  in
  match bs with [] -> env | _ -> go [] bs
let vars env = List.map fst env
let bindings env = env

let of_bindings bs =
  List.fold_left (fun env (x, v) -> bind x v env) empty (List.rev bs)

let project xs env = List.map (fun x -> (x, find x env)) xs

let append a b =
  List.fold_left (fun env (x, v) -> bind x v env) b (List.rev a)

let to_value env =
  Value.tuple (List.map (fun (x, v) -> (x, v)) env)

let compare a b = Value.compare (to_value a) (to_value b)
let equal a b = compare a b = 0

let pp ppf env =
  Fmt.pf ppf "{@[%a@]}"
    (Fmt.list ~sep:(Fmt.any ",@ ") (fun ppf (x, v) ->
         Fmt.pf ppf "%s ↦ %a" x Value.pp v))
    env
