(* Query shredding: compile a decorrelated nested query into a bounded set
   of *flat* algebra queries plus a stitching recipe that reassembles the
   flat result tables into the same nested value the nest-join backend
   produces (Cheney, Lindley & Wadler, arXiv:1404.7078, adapted to the
   paper's algebra).

   The shredded form of a plan is a [node]: one flat plan (no Nestjoin,
   Nest or Apply operators) plus
   - [children]: one per nesting constructor met on the way up. A child
     carries its own shredded [body] (recursively), the [key] columns of
     the parent rows it groups under, and the member expression [func].
     At stitch time the engine's nest join probe hashes the child's rows
     on [key] and extends every parent row with
     [label := { func m | m in group(key(row)) }] — a missing key is the
     *empty set*, which is exactly how shredding preserves the rows the
     COUNT bug loses.
   - [post]: deferred row transformations whose expressions mention
     stitched labels and therefore cannot run inside the flat plan
     (filters, extensions and unnestings over nested results).

   Everything downstream of a plan is consumed through [Value.set] (labels
   here, the query result in [Exec.run_under]), so row multiplicity is
   never observable; this is what lets the pass drop [Project] nodes over
   shredded inputs and merge join operands' children without changing any
   result.

   Plans that re-correlate after decorrelation (a residual correlated
   Apply, nesting under a Union or Outerjoin) are out of the supported
   fragment: [of_query] reports them and the pipeline falls back to the
   nest-join physical plan for execution. *)

module Ast = Lang.Ast
module Plan = Algebra.Plan
module Sset = Ast.String_set
module Value = Cobj.Value
module Env = Cobj.Env

type step =
  | Bind of string * Ast.expr   (** extend each row: v := e *)
  | Keep of Ast.expr            (** keep rows satisfying the predicate *)
  | Unfold of string * Ast.expr (** per element x of e, emit row + v := x *)

type node = { plan : Plan.plan; children : child list; post : step list }

and child = {
  label : string;
  key : string list;    (** parent flat columns forming the group key *)
  nulls : string list;  (** ν*: members all-[Null] on these contribute nothing *)
  func : Ast.expr;      (** member expression, evaluated on stitched body rows *)
  body : node;
}

type program = { body : node; result : Ast.expr }

(* --- the shredding pass ------------------------------------------------- *)

exception Unsupported of string

let unsupported fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

let step_var = function Bind (v, _) | Unfold (v, _) -> Some v | Keep _ -> None

(* Variables a node's rows only acquire during stitching — anything the
   flat plan itself does not bind. *)
let deferred_vars n =
  Sset.of_list
    (List.map (fun c -> c.label) n.children
    @ List.filter_map step_var n.post)

let flat_ok deferred e =
  Sset.is_empty (Sset.inter (Ast.free_vars e) deferred)

let pure n = n.children = [] && n.post = []

let rec shred (plan : Plan.plan) : node =
  match plan with
  | Plan.Unit | Plan.Table _ -> { plan; children = []; post = [] }
  | Plan.Select { pred; input } ->
    let n = shred input in
    if flat_ok (deferred_vars n) pred then
      { n with plan = Plan.Select { pred; input = n.plan } }
    else { n with post = n.post @ [ Keep pred ] }
  | Plan.Extend { var; expr; input } ->
    let n = shred input in
    if flat_ok (deferred_vars n) expr then
      { n with plan = Plan.Extend { var; expr; input = n.plan } }
    else { n with post = n.post @ [ Bind (var, expr) ] }
  | Plan.Unnest { expr; var; input } ->
    let n = shred input in
    if flat_ok (deferred_vars n) expr then
      { n with plan = Plan.Unnest { expr; var; input = n.plan } }
    else { n with post = n.post @ [ Unfold (var, expr) ] }
  | Plan.Project { vars; input } ->
    let n = shred input in
    if pure n then { n with plan = Plan.Project { vars; input = n.plan } }
    else
      (* Dropping the projection keeps extra columns and duplicate rows;
         both are unobservable behind the [Value.set]s every consumer
         applies. Narrowing [n.plan] instead would strand the columns the
         stitch keys and deferred steps still need. *)
      n
  | Plan.Join { pred; left; right } ->
    let l = shred left and r = shred right in
    if not (flat_ok (Sset.union (deferred_vars l) (deferred_vars r)) pred)
    then unsupported "join predicate over stitched columns";
    (* Child keys are subsets of their own side's columns, which the
       joined rows still bind, and each label is a function of its key —
       so both sides' stitch work transfers to the join unchanged. *)
    {
      plan = Plan.Join { pred; left = l.plan; right = r.plan };
      children = l.children @ r.children;
      post = l.post @ r.post;
    }
  | Plan.Semijoin { pred; left; right } ->
    semi ~name:"semijoin" pred left right (fun pred left right ->
        Plan.Semijoin { pred; left; right })
  | Plan.Antijoin { pred; left; right } ->
    semi ~name:"antijoin" pred left right (fun pred left right ->
        Plan.Antijoin { pred; left; right })
  | Plan.Outerjoin { pred; left; right } ->
    let l = shred left and r = shred right in
    if not (pure l && pure r) then
      unsupported "outer join over shredded operands";
    {
      plan = Plan.Outerjoin { pred; left = l.plan; right = r.plan };
      children = [];
      post = [];
    }
  | Plan.Nestjoin { pred; func; label; left; right } ->
    let l = shred left and r = shred right in
    let dl = deferred_vars l in
    if not (flat_ok (Sset.union dl (deferred_vars r)) pred) then
      unsupported "nest-join predicate over stitched columns";
    if not (flat_ok dl func) then
      unsupported "nest-join head over the outer side's stitched columns";
    if
      not
        (Sset.is_empty
           (Sset.inter
              (Plan.free_vars r.plan)
              (Sset.of_list (Plan.vars_of l.plan))))
    then unsupported "nest-join inner plan correlated with outer columns";
    (* The member table is the plain flat join: it loses the left
       operand's row preservation, and the stitch restores it — a parent
       key absent from the member table yields the empty set. *)
    let body =
      {
        plan = Plan.Join { pred; left = l.plan; right = r.plan };
        children = r.children;
        post = r.post;
      }
    in
    let child =
      { label; key = Plan.vars_of l.plan; nulls = []; func; body }
    in
    { plan = l.plan; children = l.children @ [ child ]; post = l.post }
  | Plan.Nest { by; label; func; nulls; input } ->
    let n = shred input in
    (* The group table must equal the projection of the *final* member
       rows: deferred filters/unnests would change it after the fact. *)
    if
      not
        (List.for_all
           (function Bind _ -> true | Keep _ | Unfold _ -> false)
           n.post)
    then unsupported "nest over deferred filters";
    let flat = Sset.of_list (Plan.vars_of n.plan) in
    if not (List.for_all (fun v -> Sset.mem v flat) (by @ nulls)) then
      unsupported "nest keys over stitched columns";
    {
      plan = Plan.Project { vars = by; input = n.plan };
      children = [ { label; key = by; nulls; func; body = n } ];
      post = [];
    }
  | Plan.Apply { var; subquery; input } ->
    let n = shred input in
    let avail =
      Sset.union (Sset.of_list (Plan.vars_of n.plan)) (deferred_vars n)
    in
    if not (Sset.is_empty (Sset.inter (Plan.query_free_vars subquery) avail))
    then unsupported "residual correlated apply";
    (* Uncorrelated: one shared group (empty key) every parent row binds. *)
    let child =
      {
        label = var;
        key = [];
        nulls = [];
        func = subquery.Plan.result;
        body = shred subquery.Plan.plan;
      }
    in
    { n with children = n.children @ [ child ] }
  | Plan.Union { left; right } ->
    let l = shred left and r = shred right in
    if not (pure l && pure r) then
      unsupported "union of shredded operands";
    {
      plan = Plan.Union { left = l.plan; right = r.plan };
      children = [];
      post = [];
    }

and semi ~name pred left right mk =
  let l = shred left and r = shred right in
  if not (pure r) then unsupported "%s right operand is nested" name;
  if not (flat_ok (deferred_vars l) pred) then
    unsupported "%s predicate over stitched columns" name;
  { l with plan = mk pred l.plan r.plan }

let of_query { Plan.plan; result } =
  match shred plan with
  | body -> Ok { body; result }
  | exception Unsupported reason -> Error reason

(* --- flat-query views ---------------------------------------------------- *)

(* Preorder over a node's flat plans: the node's own plan first, then each
   child body's, recursively. This is also execution order. *)
let rec nodes (n : node) =
  n :: List.concat_map (fun (c : child) -> nodes c.body) n.children

let flat_count p = List.length (nodes p.body)

(* A flat plan has no result expression of its own; for the verifier we
   give it the identity head — the tuple of every column it binds. *)
let synthetic_result vars =
  Ast.TupleE (List.map (fun v -> (v, Ast.Var v)) vars)

let flat_queries p =
  List.map
    (fun n -> { Plan.plan = n.plan; result = synthetic_result (Plan.vars_of n.plan) })
    (nodes p.body)

(* --- pretty printing ----------------------------------------------------- *)

let pp_step ppf = function
  | Bind (v, e) -> Fmt.pf ppf "@[<2>bind %s :=@ %a@]" v Lang.Pretty.pp e
  | Keep e -> Fmt.pf ppf "@[<2>keep@ %a@]" Lang.Pretty.pp e
  | Unfold (v, e) ->
    Fmt.pf ppf "@[<2>unfold %s in@ %a@]" v Lang.Pretty.pp e

let rec pp_node ppf n =
  Fmt.pf ppf "@[<v>%a" Plan.pp n.plan;
  List.iter
    (fun c ->
      Fmt.pf ppf "@,@[<v2>stitch %s by (%a)%a = %a from:@,%a@]" c.label
        Fmt.(list ~sep:comma string)
        c.key
        (fun ppf -> function
          | [] -> ()
          | nulls ->
            Fmt.pf ppf " nulls (%a)" Fmt.(list ~sep:comma string) nulls)
        c.nulls Lang.Pretty.pp c.func pp_node c.body)
    n.children;
  List.iter (fun s -> Fmt.pf ppf "@,%a" pp_step s) n.post;
  Fmt.pf ppf "@]"

let pp_program ppf p =
  Fmt.pf ppf "@[<v>%d flat quer%s@,%a@,@[<2>result:@ %a@]@]" (flat_count p)
    (if flat_count p = 1 then "y" else "ies")
    pp_node p.body Lang.Pretty.pp p.result

(* --- planning ------------------------------------------------------------ *)

type xnode = {
  id : int;  (** preorder index, keys the analyze tree *)
  xplan : Engine.Physical.t;
  xchildren : xchild list;
  xpost : step list;
}

and xchild = {
  xlabel : string;
  xkey : string list;
  xnulls : string list;
  xfunc : Ast.expr;
  xbody : xnode;
}

type executable = {
  xbody : xnode;
  xresult : Ast.expr;
  xcount : int;
  xprogram : program;  (** the logical program, kept for EXPLAIN *)
}

let plan ?options catalog (p : program) =
  let counter = ref 0 in
  let rec go n =
    let id = !counter in
    incr counter;
    let xplan = Planner.plan ?options catalog n.plan in
    let xchildren =
      List.map
        (fun c ->
          {
            xlabel = c.label;
            xkey = c.key;
            xnulls = c.nulls;
            xfunc = c.func;
            xbody = go c.body;
          })
        n.children
    in
    { id; xplan; xchildren; xpost = n.post }
  in
  let xbody = go p.body in
  { xbody; xresult = p.result; xcount = !counter; xprogram = p }

let rec xnodes (n : xnode) =
  n :: List.concat_map (fun (c : xchild) -> xnodes c.xbody) n.xchildren

let physical_queries exe =
  List.map
    (fun n ->
      {
        Engine.Physical.plan = n.xplan;
        result = synthetic_result (Engine.Physical.vars_of n.xplan);
      })
    (xnodes exe.xbody)

let executable_flat_count exe = exe.xcount
let program_of exe = exe.xprogram

(* --- stitched execution -------------------------------------------------- *)

module Batch = Engine.Batch
module Exec = Engine.Exec

(* Flat results flow as batches: columns over the ambient environment.
   Every expression runs through [Exec]'s kernels, falling back to the
   row closures batch by batch, so values and first errors are those of
   row-at-a-time evaluation. A child is stitched by the engine's own nest
   join probe ([Exec.nest_batches]): its member rows are hashed on the key
   columns and every parent row probes them. *)

let apply_step catalog batches = function
  | Bind (v, e) ->
    let col = Exec.column catalog e in
    List.map (fun b -> Batch.add_col b v (col b)) batches
  | Keep p ->
    let sel = Exec.select catalog p in
    List.filter_map
      (fun b -> match sel b with [||] -> None | s -> Some (Batch.narrow b s))
      batches
  | Unfold (v, e) ->
    let f = Engine.Compile.expr catalog e in
    let kcol = Exec.kernel_column catalog e in
    List.filter_map
      (fun b ->
        (* Per live row in order, its value's elements: from the kernel's
           column, or evaluating each row just before unfolding it. *)
        let at =
          match kcol b with
          | Some c -> fun i -> Batch.get c i
          | None -> fun i -> f (Batch.env_at b i)
        in
        let src = ref [] and elems = ref [] and n = ref 0 in
        Batch.iter_live b (fun i ->
            List.iter
              (fun x ->
                src := i :: !src;
                elems := x :: !elems;
                incr n)
              (Value.elements (at i)));
        if !n = 0 then None
        else
          let src = Array.of_list (List.rev !src) in
          Some
            (Batch.of_cols !n
               ((v, Batch.Boxed (Array.of_list (List.rev !elems)))
               :: List.map (fun (x, c) -> (x, Batch.gather c src)) b.Batch.cols)
               b.Batch.tail))
      batches

(* [exec] abstracts how one flat plan produces batches and [stitch] how a
   child's members join its parents, so the plain and instrumented runners
   share the walk. *)
let rec run_node ~exec ~stitch catalog env n =
  let batches = exec n env in
  let batches =
    List.fold_left
      (fun batches (c : xchild) ->
        let members = run_node ~exec ~stitch catalog env c.xbody in
        stitch ~key:c.xkey ~nulls:c.xnulls ~label:c.xlabel ~func:c.xfunc
          members batches)
      batches n.xchildren
  in
  List.fold_left (apply_step catalog) batches n.xpost

let finish catalog result batches =
  Value.set (Exec.values catalog result batches)

let run_under ?stats ?jobs ?bloom ?batch catalog env exe =
  let exec n env =
    Exec.batches ?stats ?jobs ?bloom ?batch catalog env n.xplan
  in
  let stitch = Exec.nest_batches ?stats ?jobs ?bloom ?batch catalog in
  finish catalog exe.xresult (run_node ~exec ~stitch catalog env exe.xbody)

let run ?stats ?jobs ?bloom ?batch catalog exe =
  run_under ?stats ?jobs ?bloom ?batch catalog Env.empty exe

(* --- EXPLAIN ANALYZE ------------------------------------------------------ *)

(* The annotation tree has a synthetic [stitch] root whose children are the
   per-flat-query operator trees in execution (preorder) order. *)
let analyze ?jobs ?bloom ?batch catalog exe =
  let flats = xnodes exe.xbody in
  let trees =
    List.map
      (fun n ->
        let t = Engine.Analyze.tree_of_plan n.xplan in
        Cost.annotate catalog n.xplan t;
        t)
      flats
  in
  let arr = Array.of_list trees in
  let root =
    Engine.Stats.node ~op:"stitch"
      ~detail:
        (Printf.sprintf "%d flat quer%s" exe.xcount
           (if exe.xcount = 1 then "y" else "ies"))
      trees
  in
  let exec n env =
    Exec.batches_instrumented ?jobs ?bloom ?batch arr.(n.id) catalog env
      n.xplan
  in
  let stitch =
    Exec.nest_batches ~stats:root.Engine.Stats.counters ?jobs ?bloom ?batch
      catalog
  in
  let t0 = Monotonic_clock.now () in
  let v =
    finish catalog exe.xresult
      (run_node ~exec ~stitch catalog Env.empty exe.xbody)
  in
  let t1 = Monotonic_clock.now () in
  root.Engine.Stats.loops <- 1;
  root.Engine.Stats.time_ns <- Int64.sub t1 t0;
  root.Engine.Stats.counters.Engine.Stats.rows_out <-
    (match v with Value.Set l | Value.List l -> List.length l | _ -> 1);
  (v, root)
