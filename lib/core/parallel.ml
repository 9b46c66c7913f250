(* Fixed-size domain pool for fanning independent simulation runs across
   cores.

   A [map] call spins up workers (the calling domain is one of them) over a
   shared chunked task queue: workers claim the next [chunk] indices with an
   atomic fetch-and-add, so a fast worker steals the work a slow one never
   reaches.  Results land in a slot array keyed by input index and are
   reassembled in input order — callers observe the exact sequence the
   sequential path would have produced, whatever the domain interleaving
   was.

   Pool sizing (DESIGN.md §3.15): the default pool is one worker per
   hardware thread, the calling domain included, so a campaign fills every
   core.  OCaml 5 minor collections are stop-the-world across every running
   domain, so domains beyond the hardware's parallelism do not merely idle —
   each minor GC must wait for descheduled domains to reach a safepoint, and
   an oversubscribed pool runs {e slower} than one thread (the 0.49x of
   BENCH_pr2.json).  [map] therefore never spawns more domains than
   [Domain.recommended_domain_count () - 1] whatever [jobs] asks for; the
   extra jobs fold into work-stealing over the same chunk queue, so results
   are identical.  [~oversubscribe:true] disables the cap — tests use it to
   exercise true cross-domain execution on small machines.  Workers live
   only for one [map] call: an idle pooled domain would still join every
   stop-the-world minor GC of the domains that keep running. *)

let hardware_jobs () = Stdlib.max 1 (Domain.recommended_domain_count ())

let default_jobs () =
  match Sys.getenv_opt "BFTSIM_JOBS" with
  | Some v -> (
    match int_of_string_opt v with
    | Some j when j >= 1 -> j
    | Some _ | None -> hardware_jobs ())
  | None -> hardware_jobs ()

(* GC shape for simulation workloads: the event loop's survivors are few
   (messages die at delivery), so a big minor heap turns almost all of the
   collection work into cheap pointer resets — and under a domain pool it
   divides the number of stop-the-world synchronizations by the same
   factor.  2^22 words = 32 MiB per domain. *)
let simulation_minor_heap_words = 1 lsl 22

let tune_gc () =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < simulation_minor_heap_words then
    Gc.set { g with Gc.minor_heap_size = simulation_minor_heap_words }

(* Workers stay pinned in this loop until the queue drains.  [chunk]
   consecutive indices per claim amortizes the atomic and keeps one
   worker's result slots on contiguous cache lines (adjacent slots written
   by different domains would otherwise ping-pong the line). *)
let worker_loop ~results ~input ~next ~failure ~n ~chunk f =
  let continue = ref true in
  while !continue do
    let start = Atomic.fetch_and_add next chunk in
    if start >= n || Atomic.get failure <> None then continue := false
    else begin
      let stop = Stdlib.min n (start + chunk) in
      try
        for i = start to stop - 1 do
          results.(i) <- Some (f input.(i))
        done
      with exn ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set failure None (Some (exn, bt)));
        continue := false
    end
  done

let map ?jobs ?chunk ?(oversubscribe = false) f xs =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Parallel.map: jobs < 1";
  (match chunk with Some c when c < 1 -> invalid_arg "Parallel.map: chunk < 1" | _ -> ());
  let input = Array.of_list xs in
  let n = Array.length input in
  if n = 0 then []
  else if jobs = 1 || n = 1 then List.map f xs
  else begin
    (* Default chunk: ~8 claims per worker balances stealing granularity
       against atomic traffic; small batches stay at 1 so reps still
       spread across the pool. *)
    let chunk =
      match chunk with Some c -> c | None -> Stdlib.max 1 (n / (jobs * 8))
    in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* First failure wins; remaining workers drain and stop so the
       exception surfaces with its original backtrace. *)
    let failure = Atomic.make None in
    let worker () = worker_loop ~results ~input ~next ~failure ~n ~chunk f in
    let chunks = (n + chunk - 1) / chunk in
    (* The caller participates, so [recommended - 1] spawned domains fill
       the machine exactly. *)
    let hw_cap =
      if oversubscribe then max_int else Domain.recommended_domain_count () - 1
    in
    let spawned = Stdlib.max 0 (Stdlib.min (Stdlib.min (jobs - 1) (chunks - 1)) hw_cap) in
    let domains =
      Array.init spawned (fun _ ->
          Domain.spawn (fun () ->
              (* Fresh domains start with the default (small) minor heap;
                 retune so GC synchronization stays rare (see header). *)
              tune_gc ();
              worker ()))
    in
    worker ();
    Array.iter Domain.join domains;
    (match Atomic.get failure with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ());
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) results)
  end

(* Crash isolation at the pool level: capture per element instead of
   letting the first failure sink every run in flight.  The workers only
   ever see a total function, so [map]'s first-failure machinery stays
   dormant. *)
let try_map ?jobs ?chunk ?oversubscribe f xs =
  map ?jobs ?chunk ?oversubscribe
    (fun x ->
      match f x with
      | v -> Ok v
      | exception exn -> Error (exn, Printexc.get_raw_backtrace ()))
    xs
