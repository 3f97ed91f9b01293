(* One-pass catalog statistics: per-table row counts and per-attribute
   NDV / null / empty-set summaries. See stats.mli. *)

type attr = {
  ndv : int option;
  null_frac : float;
  empty_frac : float option;
  avg_card : float option;
}

type table = { name : string; rows : int; attrs : (string * attr) list }
type t = table list

(* Attribute labels come from the declared element type when it is a tuple
   (the common case for base tables); a non-tuple element type yields a
   single anonymous attribute describing the whole element. *)
let labels_of_elt elt =
  match elt with
  | Ctype.TTuple fields -> List.map fst fields
  | _ -> [ "" ]

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let attr_value label row =
  match label, row with
  | "", v -> Some v
  | l, Value.Tuple _ -> Value.field_opt l row
  | _, _ -> None

let scan_table t =
  let rows = Table.rows t in
  let n = List.length rows in
  let attrs =
    List.map
      (fun label ->
        let nulls = ref 0 in
        let collections = ref 0 in
        let empties = ref 0 in
        let members = ref 0 in
        let distinct = Vtbl.create 64 in
        List.iter
          (fun row ->
            match attr_value label row with
            | None | Some Value.Null -> incr nulls
            | Some v ->
              Vtbl.replace distinct v ();
              (match v with
              | Value.Set elts | Value.List elts ->
                incr collections;
                members := !members + List.length elts;
                if elts = [] then incr empties
              | _ -> ()))
          rows;
        let frac num den =
          if den = 0 then 0.0 else float_of_int num /. float_of_int den
        in
        let attr =
          {
            ndv = (if n = 0 then None else Some (Vtbl.length distinct));
            null_frac = frac !nulls n;
            empty_frac =
              (if !collections = 0 then None
               else Some (frac !empties !collections));
            avg_card =
              (if !collections = 0 then None
               else Some (frac !members !collections));
          }
        in
        (label, attr))
      (labels_of_elt (Table.elt t))
  in
  { name = Table.name t; rows = n; attrs }

let scan catalog = List.map scan_table (Catalog.tables catalog)

(* One record per catalog, keyed on physical identity (catalogs are
   immutable, so a changed catalog is a different value): its version
   stamp and, once planned against, its statistics. The table's keys are
   ephemerons, so a record lives exactly as long as its catalog. Session
   threads and domains read it concurrently, hence the mutex. *)
type entry = { stamp : int; mutable stats : t option }

module Records = Ephemeron.K1.Make (struct
  type t = Catalog.t

  let equal = ( == )
  let hash = Catalog.id
end)

let lock = Mutex.create ()
let counter = ref 0
let records : entry Records.t = Records.create 16

(* Callers hold [lock]. *)
let entry catalog =
  match Records.find_opt records catalog with
  | Some e -> e
  | None ->
    incr counter;
    let e = { stamp = !counter; stats = None } in
    Records.add records catalog e;
    e

let version catalog = Mutex.protect lock (fun () -> (entry catalog).stamp)

let of_catalog catalog =
  Mutex.protect lock (fun () ->
      let e = entry catalog in
      match e.stats with
      | Some s -> s
      | None ->
        let s = scan catalog in
        e.stats <- Some s;
        s)

let table stats name = List.find_opt (fun t -> String.equal t.name name) stats

let attr stats tname aname =
  match table stats tname with
  | None -> None
  | Some t -> List.assoc_opt aname t.attrs

let row_count catalog name =
  Option.map (fun t -> t.rows) (table (of_catalog catalog) name)

let ndv catalog ~table:tname ~field =
  match attr (of_catalog catalog) tname field with
  | Some { ndv = Some d; _ } when d > 0 -> Some d
  | _ -> None

let avg_set_card catalog ~table:tname ~field =
  match attr (of_catalog catalog) tname field with
  | Some { avg_card; _ } -> avg_card
  | None -> None

let fopt = function None -> "-" | Some f -> Printf.sprintf "%.2f" f
let iopt = function None -> "-" | Some i -> string_of_int i

let pp ppf stats =
  Fmt.pf ppf "%-12s %8s  %-10s %6s %6s %7s %9s@." "table" "rows" "attribute"
    "ndv" "null" "empty" "avg-card";
  List.iter
    (fun t ->
      List.iter
        (fun (name, a) ->
          Fmt.pf ppf "%-12s %8d  %-10s %6s %6.2f %7s %9s@." t.name t.rows
            (if name = "" then "(elt)" else name)
            (iopt a.ndv) a.null_frac (fopt a.empty_frac) (fopt a.avg_card))
        t.attrs)
    stats
