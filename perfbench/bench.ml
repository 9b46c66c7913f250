(* Host-cost benchmark of the simulator.

     bench --workload NAME --seed N --seconds S --trace 0|1
           [--jobs J] [--pin HEX] [--cores N] [--flambda B] [--out DIR]

   --trace 0 measures the end-to-end metrics with nothing but a clock around
   the job and host-speed reference samples between its rounds; --trace 1
   is a separate run that records spans, taps sends and replays the
   recorded streams through single layers.  Informational JSON
   lines come first; the last line of standard output is the result. *)

open Bftsim_core
module Spans = Measure.Spans
module W = Workloads

let workload = ref ""
let seed = ref (-1)
let seconds = ref 10.
let trace = ref false
let jobs = ref None
let pin = ref None
let cores = ref 0
let flambda = ref "unknown"
let out_dir = ref ".bench_out"

let usage () =
  prerr_endline
    "usage: bench --workload NAME --seed N --seconds S --trace 0|1 [--jobs J] [--pin HEX] \
     [--cores N] [--flambda B] [--out DIR]";
  exit 2

let parse_args () =
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := v = "1"; go rest
    | "--jobs" :: v :: rest -> jobs := Some (int_of_string v); go rest
    | "--pin" :: v :: rest -> pin := Some v; go rest
    | "--cores" :: v :: rest -> cores := int_of_string v; go rest
    | "--flambda" :: v :: rest -> flambda := v; go rest
    | "--out" :: v :: rest -> out_dir := v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0. then usage ()

let info fields =
  print_endline
    ("{"
    ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
    ^ "}")

let num x = Printf.sprintf "%.17g" x
let str s = Printf.sprintf "%S" s

type tally = { mutable attempted : int; mutable failed : int }

let account tally ~reference (r : W.round) =
  tally.attempted <- tally.attempted + r.W.ops;
  tally.failed <- tally.failed + if r.W.digest <> reference then r.W.ops else r.W.failed

let result ~correct tally metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    tally.attempted tally.failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
          metrics))

let gc_delta f =
  let w0 = Measure.exact_minor_words () and g0 = Gc.quick_stat () in
  let x, dt = Measure.time f in
  let w1 = Measure.exact_minor_words () and g1 = Gc.quick_stat () in
  (x, dt, w1 -. w0, g0, g1)

let () =
  parse_args ();
  Parallel.tune_gc ();
  let w =
    match List.find_opt (fun (w : W.t) -> w.W.name = !workload) W.all with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  let default_jobs = Parallel.default_jobs () in
  info
    [
      ( "host",
        Printf.sprintf
          "{\"cores\": %d, \"recommended_domain_count\": %d, \"default_jobs\": %d, \"jobs_used\": %d, \
           \"ocaml\": %S, \"flambda\": %S, \"word_size\": %d}"
          !cores (Domain.recommended_domain_count ()) default_jobs
          (Option.value !jobs ~default:default_jobs)
          Sys.ocaml_version !flambda Sys.word_size );
    ];
  let prep = w.W.setup ~seed:!seed in
  let tally = { attempted = 0; failed = 0 } in
  let untraced () = prep.W.run ~jobs:!jobs ~spans:None ~tap:None in
  (* Warm-up round: fills the heap and caches, and fixes the reference
     digest every later round must reproduce. *)
  let r0 = untraced () in
  (* Name each simulation that went wrong, so a failed run says what failed. *)
  List.iter
    (fun (r : Controller.result) ->
      if not (W.healthy r) then
        Format.eprintf "unhealthy simulation: %s seed %d: %a, safety %b, %d violations@."
          r.Controller.config.Config.protocol r.Controller.config.Config.seed Controller.pp_outcome
          r.Controller.outcome r.Controller.safety_ok (List.length r.Controller.violations))
    r0.W.results;
  let v = prep.W.verify () in
  let reference = r0.W.digest in
  account tally ~reference r0;
  tally.attempted <- tally.attempted + List.length v.W.v_results;
  tally.failed <- tally.failed + v.W.v_failed;
  let sim_digest = W.sha [ r0.W.digest; v.W.v_digest ] in
  (match !pin with
  | Some p when p <> sim_digest -> tally.failed <- tally.failed + r0.W.ops
  | _ -> ());
  let events_of (r : W.round) = match r.W.events with Some e -> e | None -> v.W.v_events in
  let summary_fields walls =
    [
      ("workload", str w.W.name);
      ("seed", string_of_int !seed);
      ("sim_digest", str sim_digest);
      ("pinned", match !pin with None -> "null" | Some p -> string_of_bool (p = sim_digest));
      ("rounds", string_of_int (List.length walls));
      ("ops_per_round", string_of_int r0.W.ops);
      ("events_per_round", string_of_int (events_of r0));
      ("wall_s_samples", "[" ^ String.concat ", " (List.map num (List.rev walls)) ^ "]");
      ( "wall_s_high_percentile",
        match Measure.high_percentile walls with
        | None -> "null"
        | Some (p, x) -> Printf.sprintf "{\"p\": %g, \"value\": %s}" p (num x) );
      ("failed_share", num (Float.of_int tally.failed /. Float.of_int (max 1 tally.attempted)));
    ]
  in
  let correct () = tally.failed = 0 in
  if not !trace then begin
    (* Set-up is timed in batches of repeated calls that take about 20 ms,
       about one per half second of round, taken after each round so that
       their median covers the same stretch of host time as the rounds'.
       Host-speed reference samples follow them and take about a fifth of
       the round's time.  Neither allocation is the job's. *)
    let setup () = ignore (w.W.setup ~seed:!seed) in
    let setup_reps = Measure.calibrate ~batch_s:0.02 setup in
    let rounds = ref [] and setups = ref [] and setup_words = ref 0. in
    let host_ref = w.W.reference in
    (* The heap's high-water mark over the warm-up round and the first
       timed one, before any reference sample: the reference's own heap
       and GC settings would raise it. *)
    let heap_words = ref 0 in
    let (), _, words, _, _ =
      gc_delta (fun () ->
          let t_end = Measure.now () +. !seconds in
          while List.length !rounds < 3 || Measure.now () < t_end do
            let r, dt = Measure.time untraced in
            if !rounds = [] then heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
            account tally ~reference r;
            let w0 = Gc.minor_words () in
            let per span = max 1 (Float.to_int (Float.round (dt /. span))) in
            setups := List.init (per 0.5) (fun _ -> Measure.batch setup_reps setup) @ !setups;
            let host =
              Measure.median
                (List.init (per (5. *. host_ref.Measure.Reference.nominal_s)) (fun _ ->
                     Measure.Reference.sample host_ref))
            in
            setup_words := !setup_words +. (Gc.minor_words () -. w0);
            (* Keep the counts only: results held across rounds would grow the heap. *)
            rounds := (dt, host, (events_of r, r.W.runs, r.W.requests)) :: !rounds
          done)
    in
    let walls = List.map (fun (dt, _, _) -> dt) !rounds in
    (* The job's times are reported at the reference's nominal speed: each
       round's time is divided by its reference time over the nominal one,
       and the median of those is reported.  Set-up is reported raw: its few
       microseconds of work stay in cache, and the reference does not track
       them. *)
    let at_nominal dt host = dt /. (host /. host_ref.Measure.Reference.nominal_s) in
    let rate f =
      Measure.median (List.map (fun (dt, host, c) -> Float.of_int (f c) /. at_nominal dt host) !rounds)
    in
    let events = List.fold_left (fun a (_, _, (e, _, _)) -> a + e) 0 !rounds in
    let heap_mb = Float.of_int (!heap_words * (Sys.word_size / 8)) /. 1e6 in
    let hosts = List.map (fun (_, host, _) -> host) !rounds in
    info
      (summary_fields walls
      @ [
          ("requests_per_s", num (rate (fun (_, _, q) -> q)));
          ( "host_speed",
            Printf.sprintf
              "{\"nominal_s\": %s, \"raw_wall_s\": %s, \"reference_s\": %s, \"reference_s_samples\": [%s]}"
              (num host_ref.Measure.Reference.nominal_s) (num (Measure.median walls)) (num (Measure.median hosts))
              (String.concat ", " (List.map num (List.rev hosts))) );
        ]);
    result ~correct:(correct ()) tally
      [
        ("setup_s", "s", Measure.median !setups);
        ("wall_s", "s", Measure.median (List.map (fun (dt, host, _) -> at_nominal dt host) !rounds));
        ("events_per_s", "1/s", rate (fun (e, _, _) -> e));
        ("runs_per_s", "1/s", rate (fun (_, n, _) -> n));
        ("peak_heap_mb", "MB", heap_mb);
        ("alloc_words_per_event", "words", (words -. !setup_words) /. Float.of_int events);
      ]
  end
  else begin
    let spans = Spans.create () in
    (* Untraced and traced rounds alternate; their wall ratio is the cost of
       tracing. *)
    let plain = ref [] and traced = ref [] and gc = ref [] and tap = ref (W.Tap.create ()) in
    let t_end = Measure.now () +. !seconds in
    while List.length !plain < 2 || Measure.now () < t_end do
      let r, dt, words, g0, g1 = gc_delta untraced in
      account tally ~reference r;
      plain := dt :: !plain;
      gc :=
        ( words,
          g1.Gc.minor_collections - g0.Gc.minor_collections,
          g1.Gc.major_collections - g0.Gc.major_collections,
          g1.Gc.promoted_words -. g0.Gc.promoted_words )
        :: !gc;
      let t = W.Tap.create () in
      let r, dt =
        Measure.time (fun () ->
            Spans.record spans "bench.traced_round" (fun () ->
                prep.W.run ~jobs:!jobs ~spans:(Some spans) ~tap:(Some t)))
      in
      account tally ~reference r;
      traced := (dt, r) :: !traced;
      tap := t
    done;
    let last_traced = snd (List.hd !traced) in
    let plain_wall = Measure.median !plain in
    let overhead = Measure.median (List.map fst !traced) /. plain_wall in
    let jobs1 =
      Spans.record spans "bench.jobs1_round" (fun () ->
          Measure.time (fun () -> prep.W.run ~jobs:(Some 1) ~spans:None ~tap:None))
    in
    account tally ~reference (fst jobs1);
    let speedup = snd jobs1 /. plain_wall in
    (* Send tap over the job's simulations, when the job itself did not go
       through [Controller.run] directly; results must not move. *)
    let tap = !tap in
    let tapped =
      if tap.W.Tap.runs <> [] then last_traced.W.results
      else
        List.mapi
          (fun i c -> Spans.record spans ~run:i "core.controller.run" (fun () -> W.Tap.run tap c))
          prep.W.tap_configs
    in
    let expected = if last_traced.W.results <> [] then last_traced.W.results else v.W.v_results in
    if prep.W.tap_is_job && W.fingerprints tapped <> W.fingerprints expected then
      tally.failed <- tally.failed + List.length tapped;
    (* The conformance harness over the probe configurations, with and
       without its determinism replays. *)
    let det = ref 0. and nodet = ref 0. and scen = ref [] in
    List.iteri
      (fun i (c, live) ->
        let (verdicts, _), dt =
          Measure.time (fun () ->
              Spans.record spans ~run:i "conformance.check_config" (fun () ->
                  Bftsim_conformance.Harness.check_config ~determinism:true ~expect_live:live c))
        in
        let (verdicts', _), dt' =
          Measure.time (fun () ->
              Spans.record spans ~run:i "conformance.check_config.no_replay" (fun () ->
                  Bftsim_conformance.Harness.check_config ~determinism:false ~expect_live:live c))
        in
        tally.attempted <- tally.attempted + 1;
        if verdicts <> [] || verdicts' <> [] then tally.failed <- tally.failed + 1;
        det := !det +. dt;
        nodet := !nodet +. dt';
        scen := dt :: !scen)
      prep.W.probes;
    let layer name f = Spans.record spans name f in
    let q_ns, q_words, q_peak = layer "sim.event_queue.replay" (fun () -> Layers.event_queue tap) in
    let msgs = Layers.tapped_messages tap in
    let assign_ns = layer "net.network.replay" (fun () -> Layers.assign_delay_ns msgs) in
    let loss_ns = layer "net.loss_model.replay" (fun () -> Layers.loss_sample_ns msgs) in
    let attack_ns = layer "attack.replay" (fun () -> Layers.attack_ns msgs) in
    let tally_ns = layer "protocols.tally.probe" Layers.tally_add_ns in
    let incr_ns, observe_ns = layer "obs.metrics.probe" Layers.metrics_ns in
    let sha_mb = layer "crypto.sha256.probe" Layers.sha256_mb_per_s in
    let add_ns, take_ns = layer "workload.mempool.replay" (fun () -> Layers.mempool_ns ~seed:(W.base_seed !seed)) in
    let digest_us = layer "core.journal.replay" (fun () -> Layers.journal_digest_us tapped) in
    let fp_us = layer "conformance.fingerprint.replay" (fun () -> Layers.fingerprint_us tapped) in
    let sum f = List.fold_left (fun a x -> a + f x) 0 in
    let events = sum (fun r -> r.Controller.events_processed) tapped in
    let messages = sum (fun r -> r.Controller.messages_sent) tapped in
    let bytes = sum (fun r -> r.Controller.bytes_sent) tapped in
    let decisions =
      sum (fun r -> List.fold_left (fun a (_, ds) -> max a (List.length ds)) 0 r.Controller.decisions) tapped
    in
    let top_tag =
      Hashtbl.fold (fun _ c a -> max a !c) tap.W.Tap.tags 0
    in
    let ratio a b = if b = 0 then 0. else Float.of_int a /. Float.of_int b in
    let points = r0.W.points in
    let submitted = sum (fun p -> p.Bftsim_workload.Driver.submitted) points in
    let cells = last_traced.W.cells in
    let words, minors, majors, promoted =
      List.fold_left
        (fun (w, mi, ma, p) (w', mi', ma', p') -> (w +. w', mi + mi', ma + ma', p +. p'))
        (0., 0, 0, 0.) !gc
    in
    let rounds = Float.of_int (List.length !plain) in
    Spans.write spans
      (Filename.concat !out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" w.W.name !seed));
    info (summary_fields !plain);
    info
      [
        ( "span_self_s",
          "{"
          ^ String.concat ", "
              (List.map (fun (k, s) -> Printf.sprintf "%S: %s" k (num s)) (Spans.self_times spans))
          ^ "}" );
        ( "sends_by_tag",
          "{"
          ^ String.concat ", "
              (List.sort compare
                 (Hashtbl.fold (fun k c a -> Printf.sprintf "%S: %d" k !c :: a) tap.W.Tap.tags []))
          ^ "}" );
        ( "workload_per_rate",
          "["
          ^ String.concat ", "
              (List.map (fun p -> Bftsim_obs.Json.to_string (Bftsim_workload.Driver.point_to_json p)) points)
          ^ "]" );
      ];
    result ~correct:(correct ()) tally
      [
        ("sim.event_queue.ns_per_op", "ns", q_ns);
        ("sim.event_queue.words_per_op", "words", q_words);
        ("sim.event_queue.pending_peak", "count", Float.of_int q_peak);
        ("net.messages_per_event", "ratio", ratio tap.W.Tap.sends events);
        ("net.sends_by_tag.top_share", "ratio", ratio top_tag tap.W.Tap.sends);
        ("net.sends_by_tag.distinct", "count", Float.of_int (Hashtbl.length tap.W.Tap.tags));
        ("net.bytes_per_message", "bytes", ratio bytes messages);
        ("net.network.assign_delay_ns", "ns", assign_ns);
        ("net.loss_model.sample_ns", "ns", loss_ns);
        ("attack.ns_per_call", "ns", attack_ns);
        ("protocols.tally.add_ns", "ns", tally_ns);
        ("protocols.events_per_decision", "ratio", ratio events decisions);
        ( "core.controller.init_ms",
          "ms",
          1e3 *. Measure.median (List.map (fun r -> r.W.Tap.init_s) tap.W.Tap.runs) );
        ("core.runner.cell_wall_ms.p50", "ms", 1e3 *. Measure.median cells);
        ("core.runner.cell_wall_ms.max", "ms", 1e3 *. Measure.maximum cells);
        ("core.parallel.speedup", "ratio", speedup);
        ("core.parallel.jobs", "count", Float.of_int (Option.value !jobs ~default:default_jobs));
        ("core.supervisor.retries", "count", Float.of_int last_traced.W.retries);
        ("core.journal.digest_us", "us", digest_us);
        ("workload.requests_per_event", "ratio", ratio submitted v.W.v_events);
        ("workload.requests_per_s", "1/s", Float.of_int submitted /. plain_wall);
        ("workload.mempool.add_ns", "ns", add_ns);
        ("workload.mempool.take_ns", "ns", take_ns);
        ("workload.dropped_share", "ratio", ratio (sum (fun p -> p.Bftsim_workload.Driver.dropped) points) submitted);
        ("workload.requeued", "count", Float.of_int (sum (fun p -> p.Bftsim_workload.Driver.requeued) points));
        ( "workload.batch.occupancy_mean",
          "count",
          match points with
          | [] -> 0.
          | _ ->
            List.fold_left (fun a p -> a +. p.Bftsim_workload.Driver.occupancy_mean) 0. points
            /. Float.of_int (List.length points) );
        ("obs.metrics.incr_ns", "ns", incr_ns);
        ("obs.metrics.observe_ns", "ns", observe_ns);
        ("conformance.scenario_ms.p50", "ms", 1e3 *. Measure.median !scen);
        ("conformance.scenario_ms.max", "ms", 1e3 *. Measure.maximum !scen);
        ("conformance.validator.replay_share", "ratio", (!det -. !nodet) /. !det);
        ("conformance.fingerprint_us", "us", fp_us);
        ("crypto.sha256.mb_per_s", "MB/s", sha_mb);
        ("gc.minor_collections", "count", Float.of_int minors /. rounds);
        ("gc.major_collections", "count", Float.of_int majors /. rounds);
        ("gc.promoted_share", "ratio", promoted /. words);
        ("bench.trace_overhead", "ratio", overhead);
      ]
  end
