(* The morsel scheduler behind parallel execution.

   A region spawns its worker domains, drains items from a shared atomic
   counter alongside them (dynamic, morsel-style scheduling), and joins
   them before it returns. No domain outlives its region: OCaml 5 minor
   collections stop every running domain, so an idle worker kept for the
   next region taxes all serial work in between, while a spawn plus join
   costs well under the work of a region large enough to be worth
   running in parallel. *)

(* The OCaml runtime caps live domains at 128; stay well below it. *)
let max_jobs = 64

let live = Atomic.make 0

(* A failed item with its exception: the lowest seen so far. *)
type failure = { item : int; exn : exn; bt : Printexc.raw_backtrace }

let run ~jobs n body =
  let jobs = min jobs max_jobs in
  if n > 0 then
    if jobs <= 1 || n = 1 then
      for i = 0 to n - 1 do
        body i
      done
    else begin
      (* Morsel spans are emitted per claimed item, from whichever domain
         claimed it — Perfetto renders one row per domain id, which is the
         worker-utilization view. Only the parallel path is wrapped:
         serial execution never reaches here, keeping trace span
         *structure* comparable across jobs for the "phase"/"operator"
         categories (morsel spans are jobs-dependent by nature). *)
      let body =
        if Obs.Trace.enabled () then fun i ->
          Obs.Trace.span ~cat:"morsel"
            ~args:(fun () -> [ ("item", Obs.Trace.Int i); ("of", Obs.Trace.Int n) ])
            "morsel"
            (fun () -> body i)
        else body
      in
      let next = Atomic.make 0 in
      let failed = Atomic.make None in
      let below_failure i =
        match Atomic.get failed with None -> true | Some f -> i < f.item
      in
      let rec record f =
        let cur = Atomic.get failed in
        match cur with
        | Some g when g.item < f.item -> ()
        | _ -> if not (Atomic.compare_and_set failed cur (Some f)) then record f
      in
      (* Items above a recorded failure are skipped: a serial loop would
         never have reached them. *)
      let rec drain () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          if below_failure i then begin
            try body i
            with exn ->
              record { item = i; exn; bt = Printexc.get_raw_backtrace () }
          end;
          drain ()
        end
      in
      let workers =
        List.init (min (jobs - 1) (n - 1)) (fun _ ->
            Atomic.incr live;
            Domain.spawn drain)
      in
      drain ();
      List.iter
        (fun d ->
          Domain.join d;
          Atomic.decr live)
        workers;
      match Atomic.get failed with
      | Some f -> Printexc.raise_with_backtrace f.exn f.bt
      | None -> ()
    end

let size () = Atomic.get live
