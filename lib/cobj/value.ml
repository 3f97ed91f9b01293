type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Tuple of (string * t) list
  | Set of t list
  | List of t list
  | Variant of string * t

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

(* Constructor rank for the total order across constructors. [Int] and
   [Float] share a rank so that they compare numerically. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | String _ -> 3
  | Tuple _ -> 4
  | Set _ -> 5
  | List _ -> 6
  | Variant _ -> 7

let rec compare a b = if a == b then 0 else compare_distinct a b

and compare_distinct a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | String x, String y -> String.compare x y
  | Tuple xs, Tuple ys -> compare_fields xs ys
  | Set xs, Set ys | List xs, List ys -> compare_lists xs ys
  | Variant (t1, v1), Variant (t2, v2) ->
    let c = String.compare t1 t2 in
    if c <> 0 then c else compare v1 v2
  | ( ( Null | Bool _ | Int _ | Float _ | String _ | Tuple _ | Set _ | List _
      | Variant _ ),
      _ ) ->
    Int.compare (rank a) (rank b)

and compare_lists xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = compare x y in
    if c <> 0 then c else compare_lists xs' ys'

and compare_fields xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (lx, x) :: xs', (ly, y) :: ys' ->
    (* Labels of values built by one expression are shared strings. *)
    let c = if lx == ly then 0 else String.compare lx ly in
    if c <> 0 then c
    else
      let c = compare x y in
      if c <> 0 then c else compare_fields xs' ys'

let equal a b = compare a b = 0

let rec identical a b =
  a == b
  ||
  match a, b with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | String x, String y -> String.equal x y
  | Tuple xs, Tuple ys ->
    List.equal
      (fun (lx, x) (ly, y) -> String.equal lx ly && identical x y)
      xs ys
  | Set xs, Set ys | List xs, List ys -> List.equal identical xs ys
  | Variant (t1, v1), Variant (t2, v2) -> String.equal t1 t2 && identical v1 v2
  | ( ( Null | Bool _ | Int _ | Float _ | String _ | Tuple _ | Set _ | List _
      | Variant _ ),
      _ ) ->
    false

(* [equal] makes [Int i] equal to [Float (float_of_int i)], so both must
   hash alike. An integral value hashes as the int it is, without boxing a
   float: an [Int] up to 2^53 is exactly its float, and a [Float] that is
   integral and in int range converts exactly. Any other float, and an
   [Int] beyond 2^53 through the float it rounds to, hashes as a float,
   whose hash already identifies -0.0 with 0.0 and every nan. *)
let min_float_int = -0x1p62 (* [min_int], exactly *)

let hash_float f =
  if Float.is_integer f && f >= min_float_int && f < -.min_float_int then
    Hashtbl.hash (int_of_float f)
  else Hashtbl.hash f

let rec hash v =
  match v with
  | Null -> 17
  | Bool b -> if b then 3 else 5
  | Int i ->
    if i >= -0x20000000000000 && i <= 0x20000000000000 then Hashtbl.hash i
    else hash_float (float_of_int i)
  | Float f -> hash_float f
  | String s -> Hashtbl.hash s
  | Tuple fields ->
    List.fold_left
      (fun acc (l, x) -> (acc * 31) + Hashtbl.hash l + hash x)
      7 fields
  | Set xs -> List.fold_left (fun acc x -> (acc * 37) + hash x) 11 xs
  | List xs -> List.fold_left (fun acc x -> (acc * 41) + hash x) 13 xs
  | Variant (tag, v) -> (Hashtbl.hash tag * 43) + hash v

let tuple fields =
  let sorted =
    List.sort (fun (a, _) (b, _) -> String.compare a b) fields
  in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if String.equal a b then
        invalid_arg (Printf.sprintf "Value.tuple: duplicate label %S" a)
      else check rest
    | [ _ ] | [] -> ()
  in
  check sorted;
  Tuple sorted

let set elems = Set (List.sort_uniq compare elems)
let set_of_seq seq = set (List.of_seq seq)

let rec assoc_label l = function
  | [] -> None
  | (l', v) :: rest -> if String.equal l l' then Some v else assoc_label l rest

let field_opt l = function
  | Tuple fields -> assoc_label l fields
  | Null | Bool _ | Int _ | Float _ | String _ | Set _ | List _ | Variant _ ->
    None

(* Decimal digits straight into the buffer, as [string_of_int] spells
   them. Digits come from the non-positive [-|n|], which exists for
   [min_int] too. *)
let add_int buf n =
  let rec digits m =
    if m <= -10 then digits (m / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 - (m mod 10)))
  in
  if n < 0 then begin
    Buffer.add_char buf '-';
    digits n
  end
  else digits (-n)

(* Every rendering goes through one buffer, on one line; value.mli lists
   the tokens. *)
let write_seq buf opening closing item xs =
  Buffer.add_char buf opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf ", ";
      item buf x)
    xs;
  Buffer.add_char buf closing

let rec write buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> Buffer.add_string buf (Printf.sprintf "%F" f)
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (String.escaped s);
    Buffer.add_char buf '"'
  | Tuple fields -> write_seq buf '(' ')' write_field fields
  | Set xs -> write_seq buf '{' '}' write xs
  | List xs -> write_seq buf '[' ']' write xs
  | Variant (tag, v) ->
    Buffer.add_string buf tag;
    Buffer.add_string buf "!(";
    write buf v;
    Buffer.add_char buf ')'

and write_field buf (l, v) =
  Buffer.add_string buf l;
  Buffer.add_string buf " = ";
  write buf v

let to_string v =
  let buf = Buffer.create 64 in
  write buf v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

let field l v =
  match field_opt l v with
  | Some x -> x
  | None -> type_error "no field %S in %s" l (to_string v)

let elements = function
  | Set xs | List xs -> xs
  | (Null | Bool _ | Int _ | Float _ | String _ | Tuple _ | Variant _) as v ->
    type_error "expected a collection, got %s" (to_string v)

let variant_tag = function
  | Variant (tag, _) -> tag
  | v -> type_error "expected a variant, got %s" (to_string v)

let variant_payload tag = function
  | Variant (t, payload) when String.equal t tag -> payload
  | Variant (t, _) -> type_error "variant tagged %s, expected %s" t tag
  | v -> type_error "expected a variant, got %s" (to_string v)

let as_bool = function
  | Bool b -> b
  | v -> type_error "expected a boolean, got %s" (to_string v)

let as_int = function
  | Int i -> i
  | v -> type_error "expected an integer, got %s" (to_string v)

let as_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | v -> type_error "expected a number, got %s" (to_string v)

let as_string = function
  | String s -> s
  | v -> type_error "expected a string, got %s" (to_string v)

let as_set = function
  | Set xs -> xs
  | v -> type_error "expected a set, got %s" (to_string v)

(* Set operations exploit the sortedness invariant for linear merges. *)

let set_mem x s =
  let rec mem = function
    | [] -> false
    | y :: rest ->
      let c = compare x y in
      if c = 0 then true else if c < 0 then false else mem rest
  in
  mem (as_set s)

let set_union a b =
  let rec merge xs ys =
    match xs, ys with
    | [], rest | rest, [] -> rest
    | x :: xs', y :: ys' ->
      let c = compare x y in
      if c = 0 then x :: merge xs' ys'
      else if c < 0 then x :: merge xs' ys
      else y :: merge xs ys'
  in
  Set (merge (as_set a) (as_set b))

let set_inter a b =
  let rec inter xs ys =
    match xs, ys with
    | [], _ | _, [] -> []
    | x :: xs', y :: ys' ->
      let c = compare x y in
      if c = 0 then x :: inter xs' ys'
      else if c < 0 then inter xs' ys
      else inter xs ys'
  in
  Set (inter (as_set a) (as_set b))

let set_diff a b =
  let rec diff xs ys =
    match xs, ys with
    | [], _ -> []
    | rest, [] -> rest
    | x :: xs', y :: ys' ->
      let c = compare x y in
      if c = 0 then diff xs' ys
      else if c < 0 then x :: diff xs' ys
      else diff xs ys'
  in
  Set (diff (as_set a) (as_set b))

let set_subseteq a b =
  let rec sub xs ys =
    match xs, ys with
    | [], _ -> true
    | _ :: _, [] -> false
    | x :: xs', y :: ys' ->
      let c = compare x y in
      if c = 0 then sub xs' ys' else if c < 0 then false else sub xs ys'
  in
  sub (as_set a) (as_set b)

let set_card s = List.length (as_set s)
let set_is_empty s = as_set s = []

let set_subset a b =
  set_subseteq a b && set_card a < set_card b

(* Approximate heap footprint in bytes (64-bit words), for byte-bounded
   caches: block headers plus one word per field/element cons, strings
   rounded up to whole words. An estimate, not Obj.reachable_words — it is
   stable across sharing and cheap enough to run on every cache insert. *)
let rec approx_bytes = function
  | Null | Bool _ | Int _ -> 8
  | Float _ -> 16
  | String s -> 16 + (String.length s + 7) / 8 * 8
  | Variant (tag, v) -> 24 + approx_bytes (String tag) + approx_bytes v
  | Tuple fields ->
    List.fold_left
      (fun acc (label, v) ->
        acc + 32 + approx_bytes (String label) + approx_bytes v)
      8 fields
  | Set elts | List elts ->
    List.fold_left (fun acc v -> acc + 24 + approx_bytes v) 8 elts
