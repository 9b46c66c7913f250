(* Tests for the domain-pool parallel runner: Parallel.map order/exception
   semantics and the bit-for-bit determinism of Runner.run_many across
   jobs counts (the parallel path must be observationally identical to the
   sequential one). *)

module Core = Bftsim_core
module Net = Bftsim_net

(* --- Parallel.map --- *)

(* [~oversubscribe:true] lifts the hardware cap so these tests exercise
   true multi-domain execution even on single-core CI runners, where the
   cap would otherwise fold the pool back to the calling domain. *)

let test_map_empty_and_singleton () =
  Alcotest.(check (list int))
    "empty" []
    (Core.Parallel.map ~jobs:4 ~oversubscribe:true (fun x -> x) []);
  Alcotest.(check (list int))
    "singleton" [ 42 ]
    (Core.Parallel.map ~jobs:4 ~oversubscribe:true (fun x -> x * 2) [ 21 ])

let test_map_order_basic () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "order preserved" (List.map succ xs)
    (Core.Parallel.map ~jobs:4 ~chunk:3 ~oversubscribe:true succ xs)

let test_map_invalid_args () =
  Alcotest.check_raises "jobs < 1" (Invalid_argument "Parallel.map: jobs < 1") (fun () ->
      ignore (Core.Parallel.map ~jobs:0 Fun.id [ 1; 2 ]));
  Alcotest.check_raises "chunk < 1" (Invalid_argument "Parallel.map: chunk < 1") (fun () ->
      ignore (Core.Parallel.map ~chunk:0 Fun.id [ 1; 2 ]))

exception Boom

let test_map_propagates_exception () =
  Alcotest.check_raises "exception surfaces" Boom (fun () ->
      ignore
        (Core.Parallel.map ~jobs:4 ~oversubscribe:true
           (fun x -> if x = 13 then raise Boom else x)
           (List.init 20 Fun.id)))

let prop_map_preserves_order =
  QCheck.Test.make ~count:200 ~name:"Parallel.map ~jobs ~chunk = List.map"
    QCheck.(triple (small_list small_int) (int_range 1 8) (int_range 1 7))
    (fun (xs, jobs, chunk) ->
      Core.Parallel.map ~jobs ~chunk ~oversubscribe:true (fun x -> (x * 31) + 7) xs
      = List.map (fun x -> (x * 31) + 7) xs)

(* --- run_many determinism across jobs counts --- *)

let fast_config protocol =
  Core.Config.make protocol ~n:7 ~seed:42 ~lambda_ms:400.
    ~delay:(Net.Delay_model.normal ~mu:80. ~sigma:15.)

let fingerprint (s : Core.Runner.summary) =
  List.map
    (fun (r : Core.Controller.result) ->
      (r.per_decision_latency_ms, r.per_decision_messages, r.outcome, r.messages_sent, r.decisions))
    s.results

let test_run_many_jobs_deterministic () =
  List.iter
    (fun protocol ->
      let config = fast_config protocol in
      let seq = Core.Runner.run_many ~reps:6 ~jobs:1 config in
      let par = Core.Runner.run_many ~reps:6 ~jobs:4 config in
      Alcotest.(check bool)
        (protocol ^ ": identical per-run results") true
        (fingerprint seq = fingerprint par);
      Alcotest.(check bool)
        (protocol ^ ": identical latency stats") true
        (seq.latency_ms = par.latency_ms && seq.messages = par.messages);
      Alcotest.(check int)
        (protocol ^ ": identical liveness failures") seq.liveness_failures par.liveness_failures)
    [ "pbft"; "hotstuff-ns"; "librabft" ]

(* Runs [f] with BFTSIM_JOBS set to [v], then restores the caller's value
   (the CI determinism job runs this suite with BFTSIM_JOBS=4).  An unset
   variable is restored as [""], which [default_jobs] treats the same. *)
let with_jobs_env v f =
  let saved = Option.value (Sys.getenv_opt "BFTSIM_JOBS") ~default:"" in
  Unix.putenv "BFTSIM_JOBS" v;
  Fun.protect ~finally:(fun () -> Unix.putenv "BFTSIM_JOBS" saved) f

let test_default_jobs () =
  Alcotest.(check bool) "default_jobs >= 1" true (Core.Parallel.default_jobs () >= 1);
  with_jobs_env "" (fun () ->
      Alcotest.(check int)
        "unset: one worker per hardware thread, caller included"
        (max 1 (Domain.recommended_domain_count ()))
        (Core.Parallel.default_jobs ()));
  with_jobs_env "3" (fun () ->
      Alcotest.(check int) "a valid BFTSIM_JOBS wins" 3 (Core.Parallel.default_jobs ()))

(* At the default size and without [~oversubscribe], a 2-element map must
   run its elements on two domains wherever the hardware has two threads.
   Each element records its domain and waits (bounded) for the other to
   start: if the pool ran sequentially, the first element would time out
   before the second began, on the same domain. *)
let test_default_map_uses_two_domains () =
  if Domain.recommended_domain_count () < 2 then Alcotest.skip ();
  with_jobs_env "" (fun () ->
      let started = Array.init 2 (fun _ -> Atomic.make false) in
      let ids =
        Core.Parallel.map
          (fun i ->
            Atomic.set started.(i) true;
            let deadline = Unix.gettimeofday () +. 5. in
            while (not (Atomic.get started.(1 - i))) && Unix.gettimeofday () < deadline do
              Domain.cpu_relax ()
            done;
            (Domain.self () :> int))
          [ 0; 1 ]
      in
      match ids with
      | [ a; b ] -> Alcotest.(check bool) "elements ran on two domains" true (a <> b)
      | _ -> Alcotest.fail "expected two results")

let () =
  Alcotest.run "parallel"
    [
      ( "map",
        [
          Alcotest.test_case "empty and singleton" `Quick test_map_empty_and_singleton;
          Alcotest.test_case "order basic" `Quick test_map_order_basic;
          Alcotest.test_case "invalid args" `Quick test_map_invalid_args;
          Alcotest.test_case "exception propagation" `Quick test_map_propagates_exception;
          QCheck_alcotest.to_alcotest prop_map_preserves_order;
        ] );
      ( "run_many",
        [
          Alcotest.test_case "jobs=1 vs jobs=4 identical" `Slow test_run_many_jobs_deterministic;
          Alcotest.test_case "default jobs" `Quick test_default_jobs;
          Alcotest.test_case "default map spans two domains" `Quick
            test_default_map_uses_two_domains;
        ] );
    ]
