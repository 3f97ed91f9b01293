module String_map = Map.Make (String)

type t = { id : int; tables : Table.t String_map.t }

let next_id = Atomic.make 0
let make tables = { id = Atomic.fetch_and_add next_id 1; tables }
let id cat = cat.id
let empty = make String_map.empty
let add table cat = make (String_map.add (Table.name table) table cat.tables)

let of_tables tables =
  make
    (List.fold_left
       (fun m t -> String_map.add (Table.name t) t m)
       String_map.empty tables)

let find name cat = String_map.find_opt name cat.tables
let find_exn name cat = String_map.find name cat.tables
let mem name cat = String_map.mem name cat.tables
let names cat = List.map fst (String_map.bindings cat.tables)
let tables cat = List.map snd (String_map.bindings cat.tables)

let pp ppf cat =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:(Fmt.any "@,@,") Table.pp)
    (tables cat)
