(* Cost-bounded LRU: hash table for lookup, doubly-linked list for
   recency order (head = most recent). One mutex guards everything — the
   operations are O(1) pointer surgery plus the caller's cost function,
   so the lock is never held long. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable cost : int;
  mutable prev : ('k, 'v) node option; (* towards the MRU head *)
  mutable next : ('k, 'v) node option; (* towards the LRU tail *)
}

type ('k, 'v) t = {
  m : Mutex.t;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable total : int;
  capacity : int;
  cost : 'k -> 'v -> int;
  on_evict : 'k -> 'v -> unit;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(on_evict = fun _ _ -> ()) ~capacity ~cost () =
  {
    m = Mutex.create ();
    tbl = Hashtbl.create 64;
    head = None;
    tail = None;
    total = 0;
    capacity = max 0 capacity;
    cost;
    on_evict;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* List surgery (lock held). *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let drop t n ~evicted =
  unlink t n;
  Hashtbl.remove t.tbl n.key;
  t.total <- t.total - n.cost;
  if evicted then begin
    t.evictions <- t.evictions + 1;
    t.on_evict n.key n.value
  end

let rec evict_to_fit t =
  if t.total > t.capacity then
    match t.tail with
    | None -> () (* total > capacity with no entries cannot happen *)
    | Some lru ->
      drop t lru ~evicted:true;
      evict_to_fit t

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | Some n ->
        t.hits <- t.hits + 1;
        unlink t n;
        push_front t n;
        Some n.value
      | None ->
        t.misses <- t.misses + 1;
        None)

let mem t k = locked t (fun () -> Hashtbl.mem t.tbl k)

let add t k v =
  locked t (fun () ->
      let c = t.cost k v in
      if c > t.capacity then begin
        (* Too big to ever fit: reject it (and drop any smaller entry it
           replaces) instead of evicting every resident entry first. One
           eviction tick makes the mis-sized insert visible. *)
        (match Hashtbl.find_opt t.tbl k with
        | Some n -> drop t n ~evicted:false
        | None -> ());
        t.evictions <- t.evictions + 1
      end
      else begin
        (match Hashtbl.find_opt t.tbl k with
        | Some n ->
          t.total <- t.total - n.cost + c;
          n.value <- v;
          n.cost <- c;
          unlink t n;
          push_front t n
        | None ->
          let n =
            { key = k; value = v; cost = c; prev = None; next = None }
          in
          Hashtbl.add t.tbl k n;
          t.total <- t.total + c;
          push_front t n);
        evict_to_fit t
      end)

let remove t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | Some n -> drop t n ~evicted:false
      | None -> ())

let remove_if t pred =
  locked t (fun () ->
      let rec walk removed = function
        | Some n ->
          let next = n.next in
          if pred n.key n.value then begin
            drop t n ~evicted:false;
            walk (removed + 1) next
          end
          else walk removed next
        | None -> removed
      in
      walk 0 t.head)

let length t = locked t (fun () -> Hashtbl.length t.tbl)
let total_cost t = locked t (fun () -> t.total)
let capacity t = t.capacity

let keys t =
  locked t (fun () ->
      let rec walk acc = function
        | Some n -> walk (n.key :: acc) n.next
        | None -> List.rev acc
      in
      walk [] t.head)

let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let evictions t = locked t (fun () -> t.evictions)
