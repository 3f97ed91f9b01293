(* Vectorized expression kernels.

   [compile] translates the scalar / comparison / arithmetic / set-test /
   tuple / aggregate fragment of [Lang.Ast] into per-batch kernels that
   evaluate column-at-a-time over a [Batch.t]; expressions outside the
   fragment yield [None] and the caller falls back to the row-compiled
   closure ([Compile]).

   Semantics contract: on the rows selected by the batch, a kernel
   computes exactly the values (and raises exactly the exceptions) the
   corresponding [Compile] closure would.  Evaluation *order* across
   rows may differ (all of [a] before any of [b] in [a AND b]), so a
   kernel raising is not itself observable: callers catch and replay
   the batch row-at-a-time, which reproduces row-order evaluation's
   first error and counter state bit-for-bit.  Kernels therefore only need
   value-exactness on success.

   Conjunctions and disjunctions evaluate their second operand only on
   the selection where the first did not decide the result, mirroring
   the row closures' short-circuit on a per-batch selection vector. *)

module Value = Cobj.Value
module Env = Cobj.Env
module Ast = Lang.Ast

type kernel = Batch.t -> Batch.col

(* [as_bool] over the live slots; dead slots read as false. *)
let bool_bytes (b : Batch.t) (c : Batch.col) : Bytes.t =
  match c with
  | Batch.Bools by -> by
  | Batch.Const v ->
      if Value.as_bool v then Bytes.make b.Batch.len '\001'
      else Bytes.make b.Batch.len '\000'
  | c ->
      let by = Bytes.make b.Batch.len '\000' in
      Batch.iter_live b (fun i ->
          if Value.as_bool (Batch.get c i) then Bytes.unsafe_set by i '\001');
      by

(* Live indices whose boolean byte matches [keep]. *)
let select_where (b : Batch.t) (by : Bytes.t) keep =
  let n = ref 0 in
  Batch.iter_live b (fun i ->
      if Bytes.unsafe_get by i <> '\000' = keep then incr n);
  let out = Array.make !n 0 in
  let j = ref 0 in
  Batch.iter_live b (fun i ->
      if Bytes.unsafe_get by i <> '\000' = keep then begin
        Array.unsafe_set out !j i;
        incr j
      end);
  out

(* Recover a typed column from a boxed result when the live slots are
   uniformly typed, so downstream kernels keep their fast paths. *)
let compress (b : Batch.t) (c : Batch.col) =
  match c with
  | Batch.Boxed arr when Batch.live b > 0 ->
      let ints = ref true and bools = ref true and floats = ref true in
      Batch.iter_live b (fun i ->
          match arr.(i) with
          | Value.Int _ ->
              bools := false;
              floats := false
          | Value.Bool _ ->
              ints := false;
              floats := false
          | Value.Float _ ->
              ints := false;
              bools := false
          | _ ->
              ints := false;
              bools := false;
              floats := false);
      if !ints then begin
        let out = Array.make b.Batch.len 0 in
        Batch.iter_live b (fun i ->
            match arr.(i) with Value.Int x -> out.(i) <- x | _ -> ());
        Batch.Ints out
      end
      else if !bools then begin
        let out = Bytes.make b.Batch.len '\000' in
        Batch.iter_live b (fun i ->
            match arr.(i) with
            | Value.Bool true -> Bytes.unsafe_set out i '\001'
            | _ -> ());
        Batch.Bools out
      end
      else if !floats then begin
        let out = Float.Array.make b.Batch.len 0. in
        Batch.iter_live b (fun i ->
            match arr.(i) with
            | Value.Float x -> Float.Array.set out i x
            | _ -> ());
        Batch.Floats out
      end
      else c
  | c -> c

let generic_map2 (b : Batch.t) f ca cb =
  let out = Array.make b.Batch.len Value.Null in
  Batch.iter_live b (fun i -> out.(i) <- f (Batch.get ca i) (Batch.get cb i));
  Batch.Boxed out

let field_kernel l ka : kernel =
 fun b ->
  match ka b with
  | Batch.Const v -> Batch.Const (Value.field l v)
  | c -> (
      (* Optimistic single pass: filter operands and join keys are
         overwhelmingly INT, so extract straight into an unboxed column
         and only restart boxed (the [compress] path needs two extra
         passes) on the first non-int.  [Value.field] is pure, so the
         restart re-extracts the prefix at no semantic cost. *)
      let ints = Array.make b.Batch.len 0 in
      match
        Batch.iter_live b (fun i ->
            match Value.field l (Batch.get c i) with
            | Value.Int x -> Array.unsafe_set ints i x
            | _ -> raise_notrace Exit)
      with
      | () -> Batch.Ints ints
      | exception Exit ->
          let out = Array.make b.Batch.len Value.Null in
          Batch.iter_live b (fun i -> out.(i) <- Value.field l (Batch.get c i));
          compress b (Batch.Boxed out))

let not_kernel ka : kernel =
 fun b ->
  let ba = bool_bytes b (ka b) in
  let out = Bytes.make b.Batch.len '\000' in
  Batch.iter_live b (fun i ->
      if Bytes.unsafe_get ba i = '\000' then Bytes.unsafe_set out i '\001');
  Batch.Bools out

let neg1 = function
  | Value.Int n -> Value.Int (-n)
  | Value.Float x -> Value.Float (-.x)
  | v -> Value.type_error "cannot negate %s" (Value.to_string v)

let neg_kernel ka : kernel =
 fun b ->
  match ka b with
  | Batch.Ints xa ->
      let out = Array.make b.Batch.len 0 in
      Batch.iter_live b (fun i -> out.(i) <- -xa.(i));
      Batch.Ints out
  | Batch.Floats xa ->
      let out = Float.Array.make b.Batch.len 0. in
      Batch.iter_live b (fun i -> Float.Array.set out i (-.Float.Array.get xa i));
      Batch.Floats out
  | Batch.Const v -> Batch.Const (neg1 v)
  | c ->
      let out = Array.make b.Batch.len Value.Null in
      Batch.iter_live b (fun i -> out.(i) <- neg1 (Batch.get c i));
      Batch.Boxed out

(* [a AND b]: evaluate [b] only where [a] held; [a OR b]: only where it
   did not.  The evaluation set matches the row closures exactly. *)
let and_kernel ka kb : kernel =
 fun b ->
  let ba = bool_bytes b (ka b) in
  let sub = select_where b ba true in
  let out = Bytes.make b.Batch.len '\000' in
  if Array.length sub > 0 then begin
    let b' = Batch.narrow b sub in
    let bb = bool_bytes b' (kb b') in
    Array.iter (fun i -> Bytes.unsafe_set out i (Bytes.unsafe_get bb i)) sub
  end;
  Batch.Bools out

let or_kernel ka kb : kernel =
 fun b ->
  let ba = bool_bytes b (ka b) in
  let sub = select_where b ba false in
  let out = Bytes.make b.Batch.len '\000' in
  Batch.iter_live b (fun i ->
      if Bytes.unsafe_get ba i <> '\000' then Bytes.unsafe_set out i '\001');
  if Array.length sub > 0 then begin
    let b' = Batch.narrow b sub in
    let bb = bool_bytes b' (kb b') in
    Array.iter (fun i -> Bytes.unsafe_set out i (Bytes.unsafe_get bb i)) sub
  end;
  Batch.Bools out

let cmp_kernel op ka kb : kernel =
  let test : int -> bool =
    match op with
    | Ast.Eq -> fun c -> c = 0
    | Ast.Ne -> fun c -> c <> 0
    | Ast.Lt -> fun c -> c < 0
    | Ast.Le -> fun c -> c <= 0
    | Ast.Gt -> fun c -> c > 0
    | Ast.Ge -> fun c -> c >= 0
    | _ -> invalid_arg "Vexpr.cmp_kernel"
  in
  fun b ->
    let ca = ka b and cb = kb b in
    let out = Bytes.make b.Batch.len '\000' in
    let set i = Bytes.unsafe_set out i '\001' in
    (match (ca, cb) with
    | Batch.Ints xa, Batch.Ints xb ->
        Batch.iter_live b (fun i -> if test (Int.compare xa.(i) xb.(i)) then set i)
    | Batch.Ints xa, Batch.Const (Value.Int k) ->
        Batch.iter_live b (fun i -> if test (Int.compare xa.(i) k) then set i)
    | Batch.Const (Value.Int k), Batch.Ints xb ->
        Batch.iter_live b (fun i -> if test (Int.compare k xb.(i)) then set i)
    | _ ->
        Batch.iter_live b (fun i ->
            if test (Value.compare (Batch.get ca i) (Batch.get cb i)) then set i));
    Batch.Bools out

let arith_kernel op ka kb : kernel =
  let prim =
    match op with
    | Ast.Add -> Lang.Interp.Prim.add
    | Ast.Sub -> Lang.Interp.Prim.sub
    | Ast.Mul -> Lang.Interp.Prim.mul
    | Ast.Div -> Lang.Interp.Prim.div
    | Ast.Mod -> Lang.Interp.Prim.modulo
    | _ -> invalid_arg "Vexpr.arith_kernel"
  in
  (* Integer fast paths mirror [Interp.Prim] exactly, including the
     division- and modulo-by-zero type errors. *)
  let int_op : int -> int -> int =
    match op with
    | Ast.Add -> ( + )
    | Ast.Sub -> ( - )
    | Ast.Mul -> ( * )
    | Ast.Div ->
        fun x y -> if y = 0 then Value.type_error "division by zero" else x / y
    | Ast.Mod ->
        fun x y -> if y = 0 then Value.type_error "MOD by zero" else x mod y
    | _ -> assert false
  in
  fun b ->
    let ca = ka b and cb = kb b in
    let int_loop get_a get_b =
      let out = Array.make b.Batch.len 0 in
      Batch.iter_live b (fun i -> out.(i) <- int_op (get_a i) (get_b i));
      Batch.Ints out
    in
    match (ca, cb) with
    | Batch.Ints xa, Batch.Ints xb ->
        int_loop (Array.unsafe_get xa) (Array.unsafe_get xb)
    | Batch.Ints xa, Batch.Const (Value.Int k) ->
        int_loop (Array.unsafe_get xa) (fun _ -> k)
    | Batch.Const (Value.Int k), Batch.Ints xb ->
        int_loop (fun _ -> k) (Array.unsafe_get xb)
    | _ -> generic_map2 b prim ca cb

(* IN and the set comparisons, through the row closure's own test. *)
let test_kernel test ka kb : kernel =
 fun b ->
  let ca = ka b and cb = kb b in
  let out = Bytes.make b.Batch.len '\000' in
  Batch.iter_live b (fun i ->
      if test (Batch.get ca i) (Batch.get cb i) then
        Bytes.unsafe_set out i '\001');
  Batch.Bools out

let if_kernel kc ka kb : kernel =
 fun b ->
  let bc = bool_bytes b (kc b) in
  let out = Array.make b.Batch.len Value.Null in
  let fill sub k =
    if Array.length sub > 0 then begin
      let c = k (Batch.narrow b sub) in
      Array.iter (fun i -> out.(i) <- Batch.get c i) sub
    end
  in
  fill (select_where b bc true) ka;
  fill (select_where b bc false) kb;
  compress b (Batch.Boxed out)

(* A tuple constructor: components evaluated per batch, fields in label
   order as [Value.tuple] sorts them (its sort is stable, like this one). *)
let tuple_kernel fields : kernel =
  let fields =
    List.stable_sort (fun (a, _) (b, _) -> String.compare a b) fields
  in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then Some a else dup rest
    | [ _ ] | [] -> None
  in
  match dup fields with
  | Some l ->
      (* [Value.tuple] raises [Invalid_argument], which callers do not
         catch; raising a type error sends the batch to the row replay,
         where the closure raises the tuple's own error in row order. *)
      fun _ -> Value.type_error "duplicate label %S" l
  | None ->
      fun b ->
        let cols = List.map (fun (l, k) -> (l, k b)) fields in
        let out = Array.make b.Batch.len Value.Null in
        Batch.iter_live b (fun i ->
            out.(i) <-
              Value.Tuple (List.map (fun (l, c) -> (l, Batch.get c i)) cols));
        Batch.Boxed out

(* An aggregate over a collection column, row by row through the same
   primitive as the row closure; COUNT goes straight to an int column. *)
let agg_kernel agg ka : kernel =
 fun b ->
  let c = ka b in
  match agg with
  | Ast.Count ->
      let out = Array.make b.Batch.len 0 in
      Batch.iter_live b (fun i ->
          out.(i) <- List.length (Value.elements (Batch.get c i)));
      Batch.Ints out
  | _ ->
      let out = Array.make b.Batch.len Value.Null in
      Batch.iter_live b (fun i ->
          out.(i) <- Lang.Interp.Prim.aggregate agg (Batch.get c i));
      compress b (Batch.Boxed out)

(* Field extraction is the dominant per-batch cost (a [Value.field]
   call per live row), and predicates routinely reference the same
   field several times ([x.a * x.a], both conjuncts probing [x.b]).
   Structurally equal [Field] subexpressions therefore share one
   kernel, and that kernel caches its last (batch, column) pair so
   repeated references within one batch extract once.

   The cache write is a single store of an immutable pair and every
   read is guarded by physical equality on the batch, so concurrent
   use from parallel probe domains can at worst miss (and recompute a
   pure extraction), never return another batch's column. *)
let batch_memo (k : kernel) : kernel =
  let cache = ref None in
  fun b ->
    match !cache with
    | Some (b', c) when b' == b -> c
    | _ ->
        let c = k b in
        cache := Some (b, c);
        c

let compile catalog (e : Ast.expr) : kernel option =
  let shared : (Ast.expr, kernel) Hashtbl.t = Hashtbl.create 8 in
  let rec compile (e : Ast.expr) : kernel option =
    match e with
    | Ast.Const v -> Some (fun _ -> Batch.Const v)
    | Ast.Var x ->
        Some
          (fun b ->
            match Batch.col b x with
            | Some c -> c
            | None -> Batch.Const (Env.find x b.Batch.tail))
    | Ast.TableRef name -> (
        (* Resolved eagerly, like [Compile]: unknown names still fail at
           evaluation time, matching the interpreter. *)
        match Cobj.Catalog.find name catalog with
        | Some table ->
            let v = Cobj.Table.to_value table in
            Some (fun _ -> Batch.Const v)
        | None -> Some (fun _ -> Value.type_error "unknown extension %s" name))
    | Ast.Field (e1, l) -> (
        match Hashtbl.find_opt shared e with
        | Some k -> Some k
        | None ->
            Option.map
              (fun ka ->
                let k = batch_memo (field_kernel l ka) in
                Hashtbl.add shared e k;
                k)
              (compile e1))
    | Ast.Unop (Ast.Not, e1) -> Option.map not_kernel (compile e1)
    | Ast.Unop (Ast.Neg, e1) -> Option.map neg_kernel (compile e1)
    | Ast.Binop (Ast.And, a, b) -> compile2 and_kernel a b
    | Ast.Binop (Ast.Or, a, b) -> compile2 or_kernel a b
    | Ast.Binop
        (((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b)
      ->
        compile2 (cmp_kernel op) a b
    | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod) as op), a, b)
      ->
        compile2 (arith_kernel op) a b
    | Ast.Binop
        ( ((Ast.Mem | Ast.Subseteq | Ast.Subset | Ast.Supseteq | Ast.Supset)
           as op),
          a,
          b ) ->
        compile2 (test_kernel (Compile.set_test_of op)) a b
    | Ast.TupleE fields ->
        let ks =
          List.map (fun (l, e1) -> Option.map (fun k -> (l, k)) (compile e1)) fields
        in
        if List.for_all Option.is_some ks then
          Some (tuple_kernel (List.map Option.get ks))
        else None
    | Ast.Agg (agg, e1) -> Option.map (agg_kernel agg) (compile e1)
    | Ast.If (c, a, b) -> (
        match (compile c, compile a, compile b) with
        | Some kc, Some ka, Some kb -> Some (if_kernel kc ka kb)
        | _ -> None)
    | _ -> None
  and compile2 mk a b =
    match (compile a, compile b) with
    | Some ka, Some kb -> Some (mk ka kb)
    | _ -> None
  in
  (* Interpreted mode: the kernels mirror the compiled closures, so with
     compilation off every expression takes the [Compile] fallback. *)
  if !Compile.enabled then compile e else None

(* Predicate form: live indices satisfying [k], ascending.  [as_bool]
   is applied per live row, as [Compile.pred] would. *)
let truth (k : kernel) b = bool_bytes b (k b)
let truth_sel (k : kernel) b = select_where b (truth k b) true
