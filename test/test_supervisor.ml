(* Supervision, journaling and resume (DESIGN.md §3.13).

   Covers the supervisor's semantics (crash isolation, cooperative
   deadline, deterministic retry schedule, quarantine), the journal's
   round-trip and torn-line tolerance, and the campaign-level guarantees:
   run_many over a journal resumes to the exact summary of an
   uninterrupted run, and the fault-injection knob turns into structured
   failures rather than lost batches. *)

module Core = Bftsim_core
module Net = Bftsim_net
module Obs = Bftsim_obs

(* Installed at startup for the whole suite (Controller reads the variable
   on every run): every run seeded 424242 crashes at startup, 424243 hangs
   until cancelled. *)
let crash_seed = 424242
let hang_seed = 424243

let () =
  Unix.putenv "BFTSIM_FAULT_INJECT"
    (Printf.sprintf "crash@%d;hang@%d" crash_seed hang_seed)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let fast_config ?(seed = 1) () =
  Core.Config.make "pbft" ~n:4 ~seed ~delay:(Net.Delay_model.Constant 50.)

(* --- supervisor semantics --- *)

let test_supervise_ok () =
  let t = Core.Supervisor.create () in
  (match Core.Supervisor.supervise t ~key:"k" (fun ~cancel ->
       Alcotest.(check bool) "cancel starts false" false (cancel ());
       41 + 1)
   with
  | Core.Supervisor.Ok v -> Alcotest.(check int) "value" 42 v
  | _ -> Alcotest.fail "expected Ok");
  let s = Core.Supervisor.stats t in
  Alcotest.(check int) "runs_ok" 1 s.Core.Supervisor.runs_ok;
  Alcotest.(check int) "runs_crashed" 0 s.Core.Supervisor.runs_crashed

let test_supervise_crash_isolated () =
  let t = Core.Supervisor.create () in
  (match Core.Supervisor.supervise t ~key:"boom" (fun ~cancel:_ -> failwith "kaboom") with
  | Core.Supervisor.Crashed { exn; backtrace = _; retries } ->
    Alcotest.(check bool) "exception text" true (contains ~affix:"kaboom" exn);
    Alcotest.(check int) "default policy retries once" 1 retries
  | _ -> Alcotest.fail "expected Crashed");
  let s = Core.Supervisor.stats t in
  Alcotest.(check int) "both attempts counted" 2 s.Core.Supervisor.runs_crashed;
  Alcotest.(check int) "one retry" 1 s.Core.Supervisor.runs_retried;
  (* The supervisor is intact: later tasks still run. *)
  match Core.Supervisor.supervise t ~key:"fine" (fun ~cancel:_ -> "ok") with
  | Core.Supervisor.Ok v -> Alcotest.(check string) "later task unaffected" "ok" v
  | _ -> Alcotest.fail "expected Ok after a crash"

let test_supervise_deadline () =
  let policy =
    { Core.Supervisor.default_policy with deadline_ms = Some 30.; max_retries = 0 }
  in
  let t = Core.Supervisor.create ~policy () in
  match
    Core.Supervisor.supervise t ~key:"hang" (fun ~cancel ->
        while not (cancel ()) do
          Unix.sleepf 0.002
        done;
        raise Core.Supervisor.Cancelled)
  with
  | Core.Supervisor.Deadline_exceeded { wall_ms; retries } ->
    Alcotest.(check bool) "saw the deadline" true (wall_ms >= 30.);
    Alcotest.(check int) "no retries configured" 0 retries;
    let s = Core.Supervisor.stats t in
    Alcotest.(check int) "counted as timed out" 1 s.Core.Supervisor.runs_timed_out;
    Alcotest.(check int) "not as crashed" 0 s.Core.Supervisor.runs_crashed
  | _ -> Alcotest.fail "expected Deadline_exceeded"

let test_deadline_classification_survives_wrapping () =
  (* A task may turn the cancellation into its own exception; the latch,
     not the exception identity, must drive the classification. *)
  let policy =
    { Core.Supervisor.default_policy with deadline_ms = Some 20.; max_retries = 0 }
  in
  let t = Core.Supervisor.create ~policy () in
  match
    Core.Supervisor.supervise t ~key:"wrapped" (fun ~cancel ->
        while not (cancel ()) do
          Unix.sleepf 0.002
        done;
        failwith "wrapped the cancellation")
  with
  | Core.Supervisor.Deadline_exceeded _ -> ()
  | _ -> Alcotest.fail "expected Deadline_exceeded despite the foreign exception"

let test_retry_delay_deterministic () =
  let policy = { Core.Supervisor.default_policy with retry_base_ms = 100.; seed = 7 } in
  let d1 = Core.Supervisor.retry_delay_ms policy ~key:"rep3" ~attempt:1 in
  let d1' = Core.Supervisor.retry_delay_ms policy ~key:"rep3" ~attempt:1 in
  Alcotest.(check (float 0.)) "pure function of inputs" d1 d1';
  Alcotest.(check bool) "attempt 1 jitter within [0.5b, 1.5b)" true (d1 >= 50. && d1 < 150.);
  let d2 = Core.Supervisor.retry_delay_ms policy ~key:"rep3" ~attempt:2 in
  Alcotest.(check bool) "attempt 2 doubles the base" true (d2 >= 100. && d2 < 300.);
  let other = Core.Supervisor.retry_delay_ms policy ~key:"rep4" ~attempt:1 in
  Alcotest.(check bool) "keys decorrelate" true (other <> d1);
  let zero = Core.Supervisor.retry_delay_ms Core.Supervisor.default_policy ~key:"k" ~attempt:1 in
  Alcotest.(check (float 0.)) "base 0 means no sleep" 0. zero

let test_retry_then_succeed () =
  let t = Core.Supervisor.create () in
  let attempts = ref 0 in
  (match
     Core.Supervisor.supervise t ~key:"flaky" (fun ~cancel:_ ->
         incr attempts;
         if !attempts = 1 then failwith "transient" else "recovered")
   with
  | Core.Supervisor.Ok v -> Alcotest.(check string) "second attempt wins" "recovered" v
  | _ -> Alcotest.fail "expected Ok after retry");
  let s = Core.Supervisor.stats t in
  Alcotest.(check int) "runs_retried" 1 s.Core.Supervisor.runs_retried;
  Alcotest.(check int) "runs_ok" 1 s.Core.Supervisor.runs_ok;
  Alcotest.(check int) "runs_crashed counts the failed attempt" 1 s.Core.Supervisor.runs_crashed

let test_quarantine_short_circuits () =
  let policy = { Core.Supervisor.default_policy with max_retries = 0; quarantine_after = 2 } in
  let t = Core.Supervisor.create ~policy () in
  let calls = ref 0 in
  let crash () =
    Core.Supervisor.supervise t ~key:"offender" (fun ~cancel:_ ->
        incr calls;
        failwith "always")
  in
  (match crash () with Core.Supervisor.Crashed _ -> () | _ -> Alcotest.fail "crash 1");
  (match crash () with Core.Supervisor.Crashed _ -> () | _ -> Alcotest.fail "crash 2");
  (* Threshold reached: the key is quarantined, the task no longer runs. *)
  (match crash () with
  | Core.Supervisor.Quarantined { failures } -> Alcotest.(check int) "failure count" 2 failures
  | _ -> Alcotest.fail "expected Quarantined");
  Alcotest.(check int) "task not re-executed once quarantined" 2 !calls;
  Alcotest.(check (list (pair string int))) "quarantine list" [ ("offender", 2) ]
    (Core.Supervisor.quarantined t)

let test_export_metrics () =
  let t = Core.Supervisor.create () in
  ignore (Core.Supervisor.supervise t ~key:"a" (fun ~cancel:_ -> ()));
  ignore (Core.Supervisor.supervise t ~key:"b" (fun ~cancel:_ -> failwith "x"));
  let reg = Obs.Metrics.create () in
  Core.Supervisor.export_metrics t reg;
  let find name =
    match List.assoc_opt name (Obs.Metrics.snapshot reg) with
    | Some (Obs.Metrics.Counter_v c) -> c
    | _ -> Alcotest.failf "counter %s missing" name
  in
  Alcotest.(check int) "runs_ok exported" 1 (find "supervisor.runs_ok");
  Alcotest.(check int) "runs_crashed exported" 2 (find "supervisor.runs_crashed");
  Alcotest.(check int) "runs_timed_out exported (present at 0)" 0
    (find "supervisor.runs_timed_out")

(* --- Parallel.try_map --- *)

let test_try_map_isolates () =
  let results =
    Core.Parallel.try_map ~jobs:4
      (fun x -> if x mod 3 = 0 then failwith (string_of_int x) else x * 10)
      [ 0; 1; 2; 3; 4; 5 ]
  in
  let oks = List.filter_map (function Ok v -> Some v | Error _ -> None) results in
  Alcotest.(check (list int)) "survivors in order" [ 10; 20; 40; 50 ] oks;
  Alcotest.(check int) "failures captured per element" 2
    (List.length (List.filter Result.is_error results));
  match List.nth results 3 with
  | Error (Failure msg, _) -> Alcotest.(check string) "error in its slot" "3" msg
  | _ -> Alcotest.fail "expected Error at index 3"

(* --- journal --- *)

let sample_digest rep =
  {
    Core.Journal.rep;
    seed = 100 + rep;
    outcome = "reached-target";
    last_progress_ms = None;
    time_ms = 1234.5678901234;
    latency_ms = 0.1 +. float_of_int rep;
    messages = 48.;
    messages_sent = 480;
    bytes_sent = 55_000;
    messages_dropped = 3;
    events = 2000;
    max_view = 1;
    safety_ok = true;
    violations = 0;
    metrics = None;
  }

let test_journal_round_trip () =
  let path = Filename.temp_file "bftsim-journal" ".jsonl" in
  let j = Core.Journal.create ~fingerprint:"fp-1" path in
  Core.Journal.append j (Core.Journal.Run { cell = "cell-a"; digest = sample_digest 0 });
  Core.Journal.append j (Core.Journal.Check { cell = "cell-b"; index = 4 });
  Core.Journal.append j
    (Core.Journal.Failure
       {
         cell = "cell-a";
         rep = 1;
         attempt = 2;
         wall_ms = 17.25;
         kind = "crash";
         detail = "Failure(\"x\")";
         backtrace = "Raised at ...";
       });
  Core.Journal.close j;
  (match Core.Journal.load path with
  | Error e -> Alcotest.fail e
  | Ok (fp, events) ->
    Alcotest.(check string) "fingerprint" "fp-1" fp;
    Alcotest.(check int) "all events back" 3 (List.length events);
    (match Core.Journal.runs events ~cell:"cell-a" with
    | [ (0, d) ] ->
      Alcotest.(check (float 0.)) "float field exact" 1234.5678901234 d.Core.Journal.time_ms;
      Alcotest.(check string) "outcome" "reached-target" d.Core.Journal.outcome
    | _ -> Alcotest.fail "expected exactly rep 0 in cell-a");
    Alcotest.(check (list int)) "checks query" [ 4 ] (Core.Journal.checks events ~cell:"cell-b"));
  Sys.remove path

let test_journal_torn_final_line () =
  let path = Filename.temp_file "bftsim-journal" ".jsonl" in
  let j = Core.Journal.create ~fingerprint:"fp-torn" path in
  Core.Journal.append j (Core.Journal.Run { cell = "c"; digest = sample_digest 0 });
  Core.Journal.close j;
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"run\":{\"cell\":\"c\",\"dig";
  close_out oc;
  (match Core.Journal.load path with
  | Error e -> Alcotest.failf "torn line should be tolerated: %s" e
  | Ok (_, events) -> Alcotest.(check int) "torn record dropped" 1 (List.length events));
  (* Resume over the torn journal appends after the torn bytes; the next
     load must still parse every whole line. *)
  (match Core.Journal.resume ~fingerprint:"fp-torn" path with
  | Error e -> Alcotest.fail e
  | Ok (j, _) ->
    Core.Journal.append j (Core.Journal.Run { cell = "c"; digest = sample_digest 1 });
    Core.Journal.close j);
  (match Core.Journal.load path with
  | Error e -> Alcotest.fail e
  | Ok (_, events) ->
    Alcotest.(check int) "records around the tear survive" 2
      (List.length (Core.Journal.runs events ~cell:"c")));
  Sys.remove path

let test_journal_torn_note_mid_escape () =
  (* A Note record torn inside a string escape — the write died between the
     backslash and its continuation ("…\u00" then EOF) — must be dropped
     like any other torn tail: the parser cannot be left waiting for the
     escape to complete, and the whole records around it must survive. *)
  let path = Filename.temp_file "bftsim-journal" ".jsonl" in
  let j = Core.Journal.create ~fingerprint:"fp-note" path in
  Core.Journal.append j
    (Core.Journal.Note
       { cell = "c"; body = Bftsim_obs.Json.(Assoc [ ("knee", Float 1600.) ]) });
  Core.Journal.close j;
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"note\":{\"cell\":\"c\",\"body\":\"torn \\u00";
  close_out oc;
  (match Core.Journal.load path with
  | Error e -> Alcotest.failf "torn note should be tolerated: %s" e
  | Ok (_, events) ->
    Alcotest.(check int) "only the whole note survives" 1
      (List.length (Core.Journal.notes events ~cell:"c")));
  (* Resume must append cleanly after the torn escape bytes. *)
  (match Core.Journal.resume ~fingerprint:"fp-note" path with
  | Error e -> Alcotest.fail e
  | Ok (j, _) ->
    Core.Journal.append j
      (Core.Journal.Note { cell = "c"; body = Bftsim_obs.Json.(String "after tear") });
    Core.Journal.close j);
  (match Core.Journal.load path with
  | Error e -> Alcotest.fail e
  | Ok (_, events) ->
    Alcotest.(check int) "notes around the tear survive" 2
      (List.length (Core.Journal.notes events ~cell:"c")));
  Sys.remove path

let test_journal_fingerprint_mismatch () =
  let path = Filename.temp_file "bftsim-journal" ".jsonl" in
  Core.Journal.close (Core.Journal.create ~fingerprint:"fp-a" path);
  (match Core.Journal.resume ~fingerprint:"fp-b" path with
  | Error e -> Alcotest.(check bool) "mentions the mismatch" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "must refuse a foreign campaign");
  Sys.remove path

let test_metrics_json_round_trip () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.incr ~by:7 reg "counter.a";
  (* An integral gauge: the tagged encoding must not re-parse it as a
     counter (merge semantics differ: add vs max). *)
  Obs.Metrics.set_gauge reg "gauge.integral" 16.;
  Obs.Metrics.set_gauge reg "gauge.pi" 3.14159265358979;
  Obs.Metrics.observe reg "hist.lat" 12.;
  Obs.Metrics.observe reg "hist.lat" 250.;
  match Obs.Metrics.of_json (Obs.Metrics.to_json reg) with
  | Error e -> Alcotest.fail e
  | Ok reg' ->
    Alcotest.(check bool) "snapshot-identical after round trip" true (Obs.Metrics.equal reg reg');
    (* And merge still treats the round-tripped gauge as a gauge. *)
    let merged = Obs.Metrics.merge [ reg'; reg' ] in
    (match List.assoc_opt "gauge.integral" (Obs.Metrics.snapshot merged) with
    | Some (Obs.Metrics.Gauge_v g) -> Alcotest.(check (float 0.)) "gauges max, not add" 16. g
    | _ -> Alcotest.fail "gauge.integral lost its kind")

(* --- guards (satellite: clean Invalid_argument, no NaN summaries) --- *)

let test_stats_empty_raises () =
  Alcotest.check_raises "Stats.of_list []" (Invalid_argument "Stats.of_list: empty")
    (fun () -> ignore (Core.Stats.of_list []))

let test_run_many_rejects_nonpositive_reps () =
  Alcotest.check_raises "reps = 0" (Invalid_argument "Runner.run_many: reps <= 0") (fun () ->
      ignore (Core.Runner.run_many ~reps:0 (fast_config ())));
  Alcotest.check_raises "reps = -3" (Invalid_argument "Runner.run_many: reps <= 0") (fun () ->
      ignore (Core.Runner.run_many ~reps:(-3) (fast_config ())))

let test_run_many_all_failed_raises () =
  (* Every replication crashes (injected): aggregation must refuse loudly
     instead of producing NaN statistics. *)
  let config = fast_config ~seed:crash_seed () in
  match Core.Runner.run_many ~reps:1 ~jobs:1 config with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "message names the failure" true
      (contains ~affix:"every replication failed" msg)
  | _ -> Alcotest.fail "expected Invalid_argument when no replication survives"

(* --- config supervision plumbing --- *)

let test_config_supervision_keys () =
  let kvs =
    [ ("protocol", "pbft"); ("deadline_ms", "1500"); ("retries", "4"); ("quarantine", "7") ]
  in
  (match Core.Config.of_keyvalues kvs with
  | Error e -> Alcotest.fail e
  | Ok c ->
    Alcotest.(check (option (float 0.))) "deadline parsed" (Some 1500.)
      c.Core.Config.supervision.Core.Config.deadline_ms;
    Alcotest.(check int) "retries parsed" 4 c.Core.Config.supervision.Core.Config.max_retries;
    Alcotest.(check int) "quarantine parsed" 7
      c.Core.Config.supervision.Core.Config.quarantine_after;
    let kvs' = Core.Config.to_keyvalues c in
    (match Core.Config.of_keyvalues kvs' with
    | Ok c' -> Alcotest.(check bool) "round-trips through keyvalues" true (c = c')
    | Error e -> Alcotest.fail e));
  (* Defaults are omitted so pre-supervision config files stay stable. *)
  let plain = fast_config () in
  Alcotest.(check bool) "defaults emit no supervision keys" true
    (List.for_all
       (fun (k, _) -> not (List.mem k [ "deadline_ms"; "retries"; "quarantine"; "retry_base_ms" ]))
       (Core.Config.to_keyvalues plain));
  match Core.Config.of_keyvalues [ ("protocol", "pbft"); ("deadline_ms", "-5") ] with
  | Error _ | (exception Invalid_argument _) -> ()
  | Ok _ -> Alcotest.fail "negative deadline must be rejected"

(* --- supervised campaigns end to end --- *)

let test_run_many_isolates_injected_faults () =
  (* reps 0..5 over seeds 424240..424245: rep 2 crashes, rep 3 hangs.  The
     other four replications must complete and both failures must be
     reported as structured entries. *)
  let config =
    { (fast_config ~seed:(crash_seed - 2) ()) with
      Core.Config.supervision =
        { Core.Config.default_supervision with Core.Config.deadline_ms = Some 200. }
    }
  in
  let s = Core.Runner.run_many ~reps:6 ~jobs:3 config in
  Alcotest.(check int) "4 of 6 completed" 4 s.Core.Runner.completed;
  Alcotest.(check int) "2 failures" 2 (List.length s.Core.Runner.failures);
  let kind rep =
    match List.find_opt (fun f -> f.Core.Runner.rep = rep) s.Core.Runner.failures with
    | Some f -> f.Core.Runner.kind
    | None -> "missing"
  in
  Alcotest.(check string) "crashing rep classified" "crash" (kind 2);
  Alcotest.(check string) "hanging rep classified" "deadline" (kind 3);
  Alcotest.(check int) "supervisor counted the crash attempts" 2
    s.Core.Runner.supervision.Core.Supervisor.runs_crashed;
  Alcotest.(check int) "supervisor counted the deadline attempts" 2
    s.Core.Runner.supervision.Core.Supervisor.runs_timed_out

(* The knob is read per run, not cached by the first one: a directive
   installed after a run has already happened must still fire. *)
let test_fault_inject_read_per_run () =
  let seed = crash_seed + 100 in
  let config = fast_config ~seed () in
  ignore (Core.Controller.run config);
  let saved = Option.value (Sys.getenv_opt "BFTSIM_FAULT_INJECT") ~default:"" in
  Unix.putenv "BFTSIM_FAULT_INJECT" (Printf.sprintf "crash@%d" seed);
  Fun.protect
    ~finally:(fun () -> Unix.putenv "BFTSIM_FAULT_INJECT" saved)
    (fun () ->
      match Core.Controller.run config with
      | _ -> Alcotest.fail "directive set after the first run was ignored"
      | exception Failure msg ->
        Alcotest.(check bool) "injected crash" true (contains ~affix:"injected crash" msg))

let summaries_equal (a : Core.Runner.summary) (b : Core.Runner.summary) =
  let render s = Format.asprintf "%a" Core.Runner.pp_summary s in
  render a = render b && a.Core.Runner.digests = b.Core.Runner.digests
  && a.Core.Runner.completed = b.Core.Runner.completed
  && (match (a.Core.Runner.metrics, b.Core.Runner.metrics) with
     | None, None -> true
     | Some x, Some y -> Obs.Metrics.equal x y
     | _ -> false)

let test_run_many_resume_equivalence () =
  let config =
    {
      (fast_config ~seed:11 ()) with
      Core.Config.telemetry =
        { Core.Config.default_telemetry with Core.Config.metrics = true };
    }
  in
  let reference = Core.Runner.run_many ~reps:6 ~jobs:2 config in
  (* Simulate an interrupted campaign: journal only reps 0, 2 and 5, then
     resume from that journal at a different pool size. *)
  let path = Filename.temp_file "bftsim-resume" ".jsonl" in
  let fp = Core.Journal.fingerprint ~mode:"test" ~reps:6 [ config ] in
  let j = Core.Journal.create ~fingerprint:fp path in
  let cell = Core.Journal.cell_of_config config in
  List.iter
    (fun rep ->
      Core.Journal.append j
        (Core.Journal.Run
           { cell; digest = List.nth reference.Core.Runner.digests rep }))
    [ 0; 2; 5 ];
  Core.Journal.close j;
  (match Core.Journal.resume ~fingerprint:fp path with
  | Error e -> Alcotest.fail e
  | Ok (j, events) ->
    let resumed = Core.Runner.run_many ~reps:6 ~jobs:4 ~journal:j ~resumed:events config in
    Core.Journal.close j;
    Alcotest.(check int) "3 reps skipped" 3 resumed.Core.Runner.resumed;
    Alcotest.(check int) "3 reps run live" 3 (List.length resumed.Core.Runner.results);
    Alcotest.(check bool) "summary identical to uninterrupted run" true
      (summaries_equal reference resumed);
    (* The finished journal now covers all 6 reps: a second resume runs
       nothing and still reproduces the summary. *)
    match Core.Journal.resume ~fingerprint:fp path with
    | Error e -> Alcotest.fail e
    | Ok (j2, events2) ->
      let replayed = Core.Runner.run_many ~reps:6 ~jobs:1 ~journal:j2 ~resumed:events2 config in
      Core.Journal.close j2;
      Alcotest.(check int) "nothing re-run" 0 (List.length replayed.Core.Runner.results);
      Alcotest.(check bool) "replayed summary identical" true
        (summaries_equal reference replayed));
  Sys.remove path

(* --- Stalled watchdog across protocols (satellite) --- *)

let test_watchdog_stalls protocol () =
  let config = Core.Experiments.chaos_overload_config ~protocol ~seed:3 in
  let r = Core.Controller.run config in
  match r.Core.Controller.outcome with
  | Core.Controller.Stalled _ ->
    Alcotest.(check bool) "partial metrics survive" true (r.Core.Controller.events_processed > 0)
  | o ->
    Alcotest.failf "%s: expected stalled, got %s" protocol
      (Format.asprintf "%a" Core.Controller.pp_outcome o)

let () =
  Alcotest.run "supervisor"
    [
      ( "supervise",
        [
          Alcotest.test_case "ok outcome" `Quick test_supervise_ok;
          Alcotest.test_case "crash isolated with backtrace" `Quick test_supervise_crash_isolated;
          Alcotest.test_case "cooperative deadline" `Quick test_supervise_deadline;
          Alcotest.test_case "latch beats exception identity" `Quick
            test_deadline_classification_survives_wrapping;
          Alcotest.test_case "retry schedule deterministic" `Quick test_retry_delay_deterministic;
          Alcotest.test_case "retry then succeed" `Quick test_retry_then_succeed;
          Alcotest.test_case "quarantine short-circuits" `Quick test_quarantine_short_circuits;
          Alcotest.test_case "counters exported to registry" `Quick test_export_metrics;
        ] );
      ( "try_map",
        [ Alcotest.test_case "failures stay in their slot" `Quick test_try_map_isolates ] );
      ( "journal",
        [
          Alcotest.test_case "round trip" `Quick test_journal_round_trip;
          Alcotest.test_case "torn final line tolerated" `Quick test_journal_torn_final_line;
          Alcotest.test_case "torn note mid-escape tolerated" `Quick
            test_journal_torn_note_mid_escape;
          Alcotest.test_case "fingerprint mismatch refused" `Quick
            test_journal_fingerprint_mismatch;
          Alcotest.test_case "metrics registry JSON round trip" `Quick
            test_metrics_json_round_trip;
        ] );
      ( "guards",
        [
          Alcotest.test_case "empty stats raise" `Quick test_stats_empty_raises;
          Alcotest.test_case "non-positive reps rejected" `Quick
            test_run_many_rejects_nonpositive_reps;
          Alcotest.test_case "all-failed campaign raises" `Quick test_run_many_all_failed_raises;
          Alcotest.test_case "config supervision keys" `Quick test_config_supervision_keys;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "injected faults isolated" `Quick
            test_run_many_isolates_injected_faults;
          Alcotest.test_case "fault knob read on every run" `Quick
            test_fault_inject_read_per_run;
          Alcotest.test_case "resume reproduces the summary" `Quick
            test_run_many_resume_equivalence;
        ] );
      ( "watchdog",
        List.map
          (fun p -> Alcotest.test_case (p ^ " stalls when overloaded") `Quick (test_watchdog_stalls p))
          Core.Experiments.partially_synchronous );
    ]
