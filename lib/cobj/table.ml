type t = {
  name : string;
  elt : Ctype.t;
  rows : Value.t list;
  key : string list option;
}

let verify_key rows fields =
  let seen = Hashtbl.create 64 in
  List.for_all
    (fun row ->
      let k = Value.tuple (List.map (fun f -> (f, Value.field f row)) fields) in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    rows

let create ?key ~name ~elt values =
  List.iter
    (fun v ->
      if not (Ctype.conforms v elt) then
        invalid_arg
          (Fmt.str "Table.create %s: row %a does not conform to %a" name
             Value.pp v Ctype.pp elt))
    values;
  let rows = List.sort_uniq Value.compare values in
  (match key with
  | Some fields when not (verify_key rows fields) ->
    invalid_arg
      (Fmt.str "Table.create %s: declared key {%s} is not unique" name
         (String.concat ", " fields))
  | Some _ | None -> ());
  { name; elt; rows; key }

let name t = t.name
let elt t = t.elt
let rows t = t.rows
let cardinality t = List.length t.rows
let key t = t.key
let to_value t = Value.Set t.rows

(* Grid rendering for flat tuple rows; falls back to one value per line. *)
let pp ppf t =
  let flat_labels =
    match t.elt with
    | Ctype.TTuple fields -> Some (List.map fst fields)
    | Ctype.(TAny | TBool | TInt | TFloat | TString | TSet _ | TList _
             | TVariant _) ->
      None
  in
  match flat_labels with
  | None ->
    Fmt.pf ppf "@[<v>%s (%d rows)@,%a@]" t.name (cardinality t)
      (Fmt.list ~sep:Fmt.cut Value.pp)
      t.rows
  | Some labels ->
    let cell row l = Value.to_string (Value.field l row) in
    let widths =
      List.map
        (fun l ->
          List.fold_left
            (fun w row -> max w (String.length (cell row l)))
            (String.length l) t.rows)
        labels
    in
    let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
    let render_row cells =
      String.concat " | " (List.map2 pad cells widths)
    in
    let header = render_row labels in
    let rule = String.make (String.length header) '-' in
    Fmt.pf ppf "@[<v>%s (%d rows)@,%s@,%s" t.name (cardinality t) header rule;
    List.iter
      (fun row ->
        Fmt.pf ppf "@,%s" (render_row (List.map (cell row) labels)))
      t.rows;
    Fmt.pf ppf "@]"
