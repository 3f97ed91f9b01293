(* Columnar batches with selection vectors.

   A batch is a fixed-size window of rows flowing between vectorized
   operators.  Two storage layouts coexist:

   - [Cols]: late-materialized form.  Each named binding is a column
     (typed and unboxed where possible), layered over a shared [tail]
     environment that holds the bindings common to every row of the
     batch (the enclosing scope, correlation bindings, ...).  A full
     [Env.t] row is only built on demand via [env_at].
   - [Rows]: materialized form, produced by operators whose output is
     not columnar (projections, join results) or handed over by a row
     operator.  Kernels do not run on [Rows] batches; expressions are
     evaluated row-at-a-time there.

   [sel] is an ascending selection vector of live physical indices;
   [None] means all [len] slots are live.  Filtering narrows [sel]
   without copying the underlying columns.  Slots outside the
   selection hold unspecified values and must never be read. *)

module Value = Cobj.Value
module Env = Cobj.Env

type col =
  | Ints of int array
  | Floats of floatarray
  | Bools of Bytes.t (* '\000' = false, anything else = true *)
  | Boxed of Value.t array
  | Const of Value.t (* same value at every index *)

type data =
  | Cols of { cols : (string * col) list; tail : Env.t }
  | Rows of Env.t array

type t = { len : int; sel : int array option; data : data }

let get (c : col) i =
  match c with
  | Ints a -> Value.Int (Array.unsafe_get a i)
  | Floats a -> Value.Float (Float.Array.get a i)
  | Bools b -> Value.Bool (Bytes.unsafe_get b i <> '\000')
  | Boxed a -> Array.unsafe_get a i
  | Const v -> v

let live b = match b.sel with None -> b.len | Some s -> Array.length s

let iter_live b f =
  match b.sel with
  | None ->
      for i = 0 to b.len - 1 do
        f i
      done
  | Some s -> Array.iter f s

let is_cols b = match b.data with Cols _ -> true | Rows _ -> false

let col b x =
  match b.data with
  | Cols { cols; _ } -> List.assoc_opt x cols
  | Rows _ -> None

let tail b = match b.data with Cols { tail; _ } -> tail | Rows _ -> Env.empty

(* Materialize the environment for physical slot [i].  For [Cols] the
   columns are bound oldest-first so the newest column shadows both the
   tail and older columns, exactly like the nested [Env.bind] calls of
   row-at-a-time evaluation. *)
let env_at b i =
  match b.data with
  | Rows rows -> rows.(i)
  | Cols { cols; tail } ->
      List.fold_left
        (fun acc (x, c) -> Env.bind x (get c i) acc)
        tail (List.rev cols)

let narrow b sel = { b with sel = Some sel }

let slices ~size b =
  let size = max 1 size in
  let live = match b.sel with Some s -> s | None -> Array.init b.len Fun.id in
  let n = Array.length live in
  List.init ((n + size - 1) / size) (fun k ->
      narrow b (Array.sub live (k * size) (min size (n - (k * size)))))

let add_col b x c =
  match b.data with
  | Cols { cols; tail } -> { b with data = Cols { cols = (x, c) :: cols; tail } }
  | Rows _ -> invalid_arg "Batch.add_col: rows batch"

let to_rows b =
  let acc = ref [] in
  iter_live b (fun i -> acc := env_at b i :: !acc);
  List.rev !acc

let rows_of_batches bs = List.concat_map to_rows bs

let of_rows_array rows = { len = Array.length rows; sel = None; data = Rows rows }

(* Split a list into chunks of at most [size], mapping each chunk
   through [mk] on its array form. *)
let chunked ~size xs mk =
  let size = max 1 size in
  let rec take n xs acc =
    if n = 0 then (List.rev acc, xs)
    else
      match xs with
      | [] -> (List.rev acc, [])
      | x :: tl -> take (n - 1) tl (x :: acc)
  in
  let rec go xs acc =
    match xs with
    | [] -> List.rev acc
    | _ ->
        let chunk, rest = take size xs [] in
        go rest (mk (Array.of_list chunk) :: acc)
  in
  go xs []

let of_rows ~size rows = chunked ~size rows of_rows_array

(* Scan constructor: one boxed column [var] over the shared scope
   [tail], chunked into batches of [size]. *)
let of_values ~size var tail values =
  chunked ~size values (fun arr ->
      {
        len = Array.length arr;
        sel = None;
        data = Cols { cols = [ (var, Boxed arr) ]; tail };
      })

let live_total bs = List.fold_left (fun n b -> n + live b) 0 bs
