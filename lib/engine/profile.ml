(* Self-time attribution over an EXPLAIN ANALYZE tree. Stats.node.time_ns
   is inclusive wall-clock (children included, summed over loops); every
   child span nests inside its parent's span on the orchestrating domain
   (morsel parallelism happens *inside* one operator, never by timing
   children on workers), so

     self(n) = time(n) - Σ time(child)

   is the time operator n spent doing its own work, and Σ self over the
   tree telescopes back to the root's wall time. The subtraction is
   clamped at zero to absorb clock jitter on sub-microsecond spans. *)

type row = {
  op : string;
  detail : string;
  self_ns : int64;
  total_ns : int64;
  rows_out : int;
  loops : int;
  vectorized : bool;
  bloom_prunes : int;
  partitions : int;
}

type t = { wall_ns : int64; rows : row list }

let self_ns (n : Stats.node) =
  let children =
    List.fold_left
      (fun acc (c : Stats.node) -> Int64.add acc c.time_ns)
      0L n.children
  in
  let d = Int64.sub n.time_ns children in
  if Int64.compare d 0L < 0 then 0L else d

let row_of (n : Stats.node) =
  {
    op = n.op;
    detail = n.detail;
    self_ns = self_ns n;
    total_ns = n.time_ns;
    rows_out = n.counters.Stats.rows_out;
    loops = n.loops;
    vectorized = n.vectorized;
    bloom_prunes = n.counters.Stats.bloom_prunes;
    partitions = n.counters.Stats.partitions;
  }

let of_node (root : Stats.node) =
  let rec collect acc (n : Stats.node) =
    List.fold_left collect (row_of n :: acc) n.children
  in
  let rows =
    collect [] root
    |> List.stable_sort (fun a b -> Int64.compare b.self_ns a.self_ns)
  in
  { wall_ns = root.Stats.time_ns; rows }

let ms ns = Int64.to_float ns /. 1e6

let annotations r =
  List.filter_map Fun.id
    [
      (if r.vectorized then Some "vectorized" else None);
      (if r.bloom_prunes > 0 then
         Some (Printf.sprintf "bloom=%d" r.bloom_prunes)
       else None);
      (if r.partitions > 0 then
         Some (Printf.sprintf "parts=%d" r.partitions)
       else None);
      (if r.loops > 1 then Some (Printf.sprintf "loops=%d" r.loops)
       else None);
    ]

(* Top-style report: one line per operator, hottest self-time first,
   with percentage of wall, throughput through the operator's own work,
   and engine annotations. *)
let pp ppf t =
  let wall = ms t.wall_ns in
  Fmt.pf ppf "profile: wall %.3fms, %d operators (self-time order)@." wall
    (List.length t.rows);
  Fmt.pf ppf "  %8s %6s %9s %10s  %s@." "self-ms" "%" "rows" "rows/ms"
    "operator";
  List.iter
    (fun r ->
      let self = ms r.self_ns in
      let pct = if wall > 0. then 100. *. self /. wall else 0. in
      let throughput =
        if self > 0. then Printf.sprintf "%.1f" (float_of_int r.rows_out /. self)
        else "-"
      in
      let ann = annotations r in
      Fmt.pf ppf "  %8.3f %5.1f%% %9d %10s  %s%s%s%s@." self pct r.rows_out
        throughput r.op
        (if r.detail = "" then "" else " " ^ r.detail)
        (if ann = [] then "" else " [")
        (if ann = [] then "" else String.concat " " ann ^ "]"))
    t.rows

(* Flame view: the tree in plan order, each node with self and total —
   the same numbers as the top report, arranged to show where inclusive
   time concentrates on the way down. *)
let pp_flame ppf (root : Stats.node) =
  let rec go depth (n : Stats.node) =
    Fmt.pf ppf "%s%s%s  self=%.3fms total=%.3fms@."
      (String.make (2 * depth) ' ')
      n.op
      (if n.detail = "" then "" else " " ^ n.detail)
      (ms (self_ns n)) (ms n.time_ns);
    List.iter (go (depth + 1)) n.children
  in
  go 0 root

let row_json r =
  Json.Obj
    [
      ("op", Json.String r.op);
      ("detail", Json.String r.detail);
      ("self_ns", Json.Int64 r.self_ns);
      ("total_ns", Json.Int64 r.total_ns);
      ("rows_out", Json.Int r.rows_out);
      ( "rows_per_ms",
        if Int64.compare r.self_ns 0L > 0 then
          Json.Float (float_of_int r.rows_out /. ms r.self_ns)
        else Json.Null );
      ("loops", Json.Int r.loops);
      ("vectorized", Json.Bool r.vectorized);
      ("bloom_prunes", Json.Int r.bloom_prunes);
      ("partitions", Json.Int r.partitions);
    ]

let to_json t =
  Json.Obj
    [
      ("wall_ns", Json.Int64 t.wall_ns);
      ("operators", Json.List (List.map row_json t.rows));
    ]

(* Aggregate self-time per operator kind into the metrics registry —
   the hottest-operator feed for the server's scrape endpoint and the
   [top] client. Gauges, not counters: the values are wall-clock and so
   jobs-dependent (the registry's profile.* prefix is excluded from the
   jobs-invariance contract). *)
let record_metrics t =
  if Obs.Metrics.enabled () then
    List.iter
      (fun r ->
        Obs.Metrics.add_gauge
          ("profile.self_us." ^ r.op)
          (Int64.to_float r.self_ns /. 1e3))
      t.rows

(* Top-k (op, detail, self_ns) summary for the slow-query log. *)
let top ?(k = 5) t =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take k t.rows
