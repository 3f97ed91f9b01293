(* Columnar batches with selection vectors.

   A batch is a window of rows flowing between operators, in one layout:
   each named binding is a column (typed and unboxed where possible),
   layered over a shared [tail] environment that holds the bindings
   common to every row of the batch (the enclosing scope, correlation
   bindings, ...). A full [Env.t] row is only built on demand via
   [env_at]. Rows from a row-at-a-time operator enter through [of_rows],
   one boxed column per output variable.

   [sel] is an ascending selection vector of live physical indices;
   [None] means all [len] slots are live. Filtering narrows [sel]
   without copying the underlying columns. Slots outside the
   selection hold unspecified values and must never be read. *)

module Value = Cobj.Value
module Env = Cobj.Env

type col =
  | Ints of int array
  | Floats of floatarray
  | Bools of Bytes.t (* '\000' = false, anything else = true *)
  | Boxed of Value.t array
  | Const of Value.t (* same value at every index *)

type t = {
  len : int;
  sel : int array option;
  cols : (string * col) list;
  tail : Env.t;
}

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

let live_slots b =
  match b.sel with Some s -> s | None -> Array.init b.len Fun.id

let col b x =
  let rec find = function
    | [] -> None
    | (y, c) :: rest -> if String.equal x y then Some c else find rest
  in
  find b.cols

let value b x i =
  match col b x with Some c -> get c i | None -> Env.find x b.tail

(* Materialize the environment for physical slot [i]: the columns, newest
   first, over the tail, in one pass (see [Env.prepend]). *)
let env_at b i =
  Env.prepend (List.map (fun (x, c) -> (x, get c i)) b.cols) b.tail

let narrow b sel = { b with sel = Some sel }

let slices ~size b =
  let size = max 1 size in
  let live = live_slots b in
  let n = Array.length live in
  List.init ((n + size - 1) / size) (fun k ->
      narrow b (Array.sub live (k * size) (min size (n - (k * size)))))

let add_col b x c = { b with cols = (x, c) :: b.cols }

let to_rows b =
  let acc = ref [] in
  iter_live b (fun i -> acc := env_at b i :: !acc);
  List.rev !acc

let rows_of_batches bs = List.concat_map to_rows bs

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

let of_cols len cols tail = { len; sel = None; cols; tail }

(* Scan constructor: one boxed column [var] over the shared scope
   [tail], chunked into batches of [size]. *)
let of_values ~size var tail values =
  chunked ~size values (fun arr ->
      of_cols (Array.length arr) [ (var, Boxed arr) ] tail)

let distinct names = List.sort_uniq String.compare names

let of_rows ~size vars tail rows =
  let vars = distinct vars in
  chunked ~size rows (fun arr ->
      of_cols (Array.length arr)
        (List.map (fun x -> (x, Boxed (Array.map (Env.find x) arr))) vars)
        tail)

let of_tuples ~size names tail rows =
  let fields = function Value.List vs -> vs | v -> [ v ] in
  chunked ~size rows (fun arr ->
      let arr = Array.map fields arr in
      let column k = Boxed (Array.map (fun r -> List.nth r k) arr) in
      of_cols (Array.length arr) (List.mapi (fun k x -> (x, column k)) names) tail)

let live_total bs = List.fold_left (fun n b -> n + live b) 0 bs

(* --- gathers ---------------------------------------------------------- *)

let gather (c : col) (idx : int array) : col =
  match c with
  | Const _ -> c
  | Ints a -> Ints (Array.map (Array.unsafe_get a) idx)
  | Floats a ->
      let n = Array.length idx in
      Floats (Float.Array.init n (fun j -> Float.Array.get a idx.(j)))
  | Bools b ->
      Bools (Bytes.init (Array.length idx) (fun j -> Bytes.get b idx.(j)))
  | Boxed a -> Boxed (Array.map (Array.unsafe_get a) idx)

let gather_padded (c : col) (idx : int array) : col =
  if Array.for_all (fun i -> i >= 0) idx then gather c idx
  else Boxed (Array.map (fun i -> if i < 0 then Value.Null else get c i) idx)

(* The live rows of [bs], in order, as one column per name in [names]
   (a name no column binds reads the tail): unboxed when every batch holds
   the name as ints, boxed otherwise. *)
let concat_live names bs =
  let n = live_total bs in
  let column x =
    let parts = List.map (fun b -> (b, col b x)) bs in
    let j = ref 0 in
    let ints = function _, Some (Ints _) -> true | _ -> false in
    if parts <> [] && List.for_all ints parts then begin
      let out = Array.make n 0 in
      List.iter
        (fun (b, c) ->
          match c with
          | Some (Ints a) ->
              iter_live b (fun i ->
                  out.(!j) <- a.(i);
                  incr j)
          | _ -> assert false)
        parts;
      Ints out
    end
    else begin
      let out = Array.make n Value.Null in
      List.iter
        (fun (b, c) ->
          iter_live b (fun i ->
              out.(!j) <-
                (match c with Some c -> get c i | None -> value b x i);
              incr j))
        parts;
      Boxed out
    end
  in
  List.map (fun x -> (x, column x)) (distinct names)
