type t =
  | Null
  | Bool of bool
  | Int of int
  | Int64 of int64
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

(* Escape [s] straight into [buf]: runs of bytes that need no escape are
   blitted whole, so a long plain string costs one copy. *)
let add_escaped buf s =
  let start = ref 0 in
  let flush i =
    if i > !start then Buffer.add_substring buf s !start (i - !start)
  in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | ('"' | '\\' | '\000' .. '\031') as c ->
      flush i;
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
      start := i + 1
    | _ -> ()
  done;
  flush (String.length s)

(* Floats must stay valid JSON: no nan/infinity literals, and always a
   number shape a strict parser accepts. *)
let float_repr x =
  if Float.is_nan x then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.6g" x
  else "null"

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Cobj.Value.add_int buf n
  | Int64 n -> Buffer.add_string buf (Int64.to_string n)
  | Float x -> Buffer.add_string buf (float_repr x)
  | String s ->
    Buffer.add_char buf '"';
    add_escaped buf s;
    Buffer.add_char buf '"'
  | Raw s -> Buffer.add_string buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        add_escaped buf k;
        Buffer.add_string buf "\":";
        emit buf v)
      fields;
    Buffer.add_char buf '}'

(* Bytes the document's strings contribute before escaping: a cached reply
   splices a long [Raw] literal, so sizing the buffer from it saves the
   regrowth copies. Keys and scalars go in the slack; a document with
   many of them still grows the buffer as before. *)
let rec payload_bytes = function
  | Null | Bool _ | Int _ | Int64 _ | Float _ -> 0
  | String s | Raw s -> String.length s
  | List xs -> List.fold_left (fun n x -> n + payload_bytes x) 0 xs
  | Obj fields -> List.fold_left (fun n (_, v) -> n + payload_bytes v) 0 fields

let to_string j =
  let buf = Buffer.create (payload_bytes j + 256) in
  emit buf j;
  Buffer.contents buf

(* Indented rendering for artifacts meant to be read and diffed by humans
   (bench JSON); [to_string] stays compact for piping into tools. *)
let rec emit_pretty buf indent = function
  | (Null | Bool _ | Int _ | Int64 _ | Float _ | String _ | Raw _) as j ->
    emit buf j
  | List [] -> Buffer.add_string buf "[]"
  | List xs ->
    let pad = String.make indent ' ' in
    let pad' = String.make (indent + 2) ' ' in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad';
        emit_pretty buf (indent + 2) x)
      xs;
    Buffer.add_char buf '\n';
    Buffer.add_string buf pad;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    let pad = String.make indent ' ' in
    let pad' = String.make (indent + 2) ' ' in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad';
        Buffer.add_char buf '"';
        add_escaped buf k;
        Buffer.add_string buf "\": ";
        emit_pretty buf (indent + 2) v)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf pad;
    Buffer.add_char buf '}'

let to_pretty_string j =
  let buf = Buffer.create 1024 in
  emit_pretty buf 0 j;
  Buffer.contents buf
