(* The four benchmark workloads.  Each builds its inputs from the command-line
   seed, then exposes one job: a fixed set of calls into the simulator's
   public entry points whose outputs are checked and hashed into a
   sim_digest. *)

open Bftsim_core
module Net = Bftsim_net
module Wl = Bftsim_workload
module Conf = Bftsim_conformance
module Sha = Bftsim_crypto.Sha256
module Spans = Measure.Spans

(* Send tap: a [Controller.run ?delay_override] hook that counts each send by
   tag, remembers its link, notes when the run first called back, and always
   answers [None] so the sampled delay stands.  Where the configuration's
   attacker is the passthrough one, a wrapper around [Attacker.passthrough]
   also records each message's send and arrival time: the message part of
   the event queue's schedule stream. *)
module Tap = struct
  type run = { config : Config.t; first : int; last : int; init_s : float }

  type t = {
    tags : (string, int ref) Hashtbl.t;
    mutable sends : int;
    mutable links : int array;  (** [src lsl 20 lor dst], in send order. *)
    mutable len : int;
    mutable runs : run list;  (** Newest first. *)
    mutable times : float array;  (** Send and arrival ms, interleaved. *)
    mutable times_len : int;
    mutable streams : (int * int) list;  (** Per recorded run: slice of [times]. *)
  }

  let max_links = 1_500_000

  let create () =
    {
      tags = Hashtbl.create 32;
      sends = 0;
      links = Array.make 4096 0;
      len = 0;
      runs = [];
      times = Array.make 4096 0.;
      times_len = 0;
      streams = [];
    }

  let push_link t x =
    if t.len = Array.length t.links then begin
      let a = Array.make (2 * t.len) 0 in
      Array.blit t.links 0 a 0 t.len;
      t.links <- a
    end;
    t.links.(t.len) <- x;
    t.len <- t.len + 1

  let push_time t x =
    if t.times_len = Array.length t.times then begin
      let a = Array.make (2 * t.times_len) 0. in
      Array.blit t.times 0 a 0 t.times_len;
      t.times <- a
    end;
    t.times.(t.times_len) <- x;
    t.times_len <- t.times_len + 1

  let passthrough (c : Config.t) =
    c.Config.attack = Config.No_attack && c.Config.chaos = [] && c.Config.twins = None

  let recorder t =
    let pass = Bftsim_attack.Attacker.passthrough in
    {
      pass with
      Bftsim_attack.Attacker.attack =
        (fun env (m : Net.Message.t) ->
          push_time t (Bftsim_sim.Time.to_ms m.Net.Message.sent_at);
          push_time t (Bftsim_sim.Time.to_ms (Net.Message.arrival_time m));
          pass.Bftsim_attack.Attacker.attack env m);
    }

  let run t config =
    let first = t.len and stream_start = t.times_len in
    let record = passthrough config && t.times_len < 2 * max_links in
    let t0 = Measure.now () and called = ref nan in
    let hook ~src ~dst ~tag ~seq:_ =
      if Float.is_nan !called then called := Measure.now ();
      t.sends <- t.sends + 1;
      (match Hashtbl.find_opt t.tags tag with
      | Some c -> incr c
      | None -> Hashtbl.add t.tags tag (ref 1));
      if t.len < max_links then push_link t ((src lsl 20) lor dst);
      None
    in
    let attacker = if record then Some (recorder t) else None in
    let r = Controller.run ~delay_override:hook ?attacker config in
    let init_s = if Float.is_nan !called then Measure.now () -. t0 else !called -. t0 in
    t.runs <- { config; first; last = t.len; init_s } :: t.runs;
    if record then t.streams <- (stream_start, t.times_len) :: t.streams;
    r
end

type round = {
  ops : int;  (** Operations attempted: simulations, rate points or scenario checks. *)
  failed : int;  (** Of those, crashed, unsafe or off their expected outcome. *)
  events : int option;  (** Σ events_processed, when the job's output carries it. *)
  runs : int;  (** Completed simulations, rate points or scenario checks. *)
  requests : int;  (** Simulated client requests submitted. *)
  digest : string;
  results : Controller.result list;
  cells : float list;  (** Wall time of each top-level call, in order. *)
  retries : int;  (** Supervisor retry attempts. *)
  points : Wl.Driver.point list;
}

let empty_round =
  {
    ops = 0;
    failed = 0;
    events = Some 0;
    runs = 0;
    requests = 0;
    digest = "";
    results = [];
    cells = [];
    retries = 0;
    points = [];
  }

type verified = { v_events : int; v_digest : string; v_failed : int; v_results : Controller.result list }

type prepared = {
  run : jobs:int option -> spans:Spans.t option -> tap:Tap.t option -> round;
      (** The measured job.  With [tap], every direct [Controller.run] of the
          job goes through the send tap. *)
  verify : unit -> verified;
      (** An untimed pass that checks what the job's own output cannot show
          and counts the events the job's output does not report. *)
  tap_configs : Config.t list;  (** Configurations the traced run replays through the tap. *)
  tap_is_job : bool;
      (** The tap configurations are the job's own simulations, in order, so
          the tapped runs must reproduce the job's fingerprints. *)
  probes : (Config.t * bool) list;
      (** Configurations the traced run checks through the conformance
          harness, each with whether it is expected to reach its target. *)
}

type t = {
  name : string;
  setup : seed:int -> prepared;
  reference : Measure.Reference.t;  (** The host-speed reference that matches the job's working set. *)
}

let sha parts = Sha.to_hex (Sha.digest_string (String.concat "\n" parts))

let fingerprints results = List.map Conf.Fingerprint.of_result results

let healthy (r : Controller.result) =
  r.Controller.outcome = Controller.Reached_target
  && r.Controller.safety_ok && r.Controller.violations = []

let timed_cell spans ~run name f = Measure.time (fun () -> Spans.with_span spans ~run name f)

let no_verify () = { v_events = 0; v_digest = ""; v_failed = 0; v_results = [] }

(* Workload seeds map to simulation seeds well apart from each other. *)
let base_seed seed = 1 + (seed * 1000)

(* ---------- fig2-n512 ---------- *)

let fig2_sims = 2

let fig2 =
  let setup ~seed =
    let configs =
      List.init fig2_sims (fun i ->
          { (Experiments.fig2_config ~n:512) with Config.seed = base_seed seed + i })
    in
    List.iter Config.validate configs;
    let run ~jobs:_ ~spans ~tap =
      let results, cells =
        List.split
          (List.mapi
             (fun i cfg ->
               timed_cell spans ~run:i "core.controller.run" (fun () ->
                   match tap with Some t -> Tap.run t cfg | None -> Controller.run cfg))
             configs)
      in
      {
        empty_round with
        ops = fig2_sims;
        failed = List.length (List.filter (fun r -> not (healthy r)) results);
        events = Some (List.fold_left (fun a r -> a + r.Controller.events_processed) 0 results);
        runs = fig2_sims;
        digest = sha (fingerprints results);
        results;
        cells;
      }
    in
    (* The harness records a full trace and replays the run twice; at n=512
       that holds over a gigabyte, so it checks the n=128 point of Fig. 2. *)
    let probe = { (Experiments.fig2_config ~n:128) with Config.seed = base_seed seed } in
    { run; verify = no_verify; tap_configs = configs; tap_is_job = true; probes = [ (probe, true) ] }
  in
  { name = "fig2-n512"; setup; reference = Measure.Reference.large }

(* ---------- sweep-mixed ---------- *)

let sweep_reps = 20

let sweep_protocols = Experiments.all_protocols @ [ "tendermint"; "sync-hotstuff" ]

let lossy_protocols = [ "librabft" ]

let sweep_cells ~seed =
  let base = base_seed seed in
  let clean =
    List.mapi
      (fun i protocol ->
        Experiments.fig3_config ~protocol
          ~delay:(Net.Delay_model.normal ~mu:250. ~sigma:50.)
          ~seed:(base + (100 * i)))
      sweep_protocols
  in
  (* 5% loss under the reliable channel.  The BENCH_pr10 recovery shape
     also runs pbft and hotstuff-ns, and crashes node 2 at 0.5 s and
     restarts it at 2 s; those are left out because the program breaks
     agreement or liveness under them on some seeds (see
     perfbench/README.md), and a benchmark operation may not fail. *)
  let lossy =
    List.mapi
      (fun i protocol ->
        let c =
          Config.make protocol ~n:7 ~seed:(base + (100 * (i + 20))) ~decisions_target:30
            ~lambda_ms:200. ~delay:(Net.Delay_model.normal ~mu:50. ~sigma:10.)
        in
        { c with Config.loss = Net.Loss_model.make ~drop:0.05 (); reliable = true })
      lossy_protocols
  in
  clean @ lossy

let sweep_mixed =
  let setup ~seed =
    let cells = sweep_cells ~seed in
    List.iter Config.validate cells;
    let run ~jobs ~spans ~tap:_ =
      let summaries, walls =
        List.split
          (List.mapi
             (fun i cfg ->
               timed_cell spans ~run:i "core.runner.run_many" (fun () ->
                   Runner.run_many ~reps:sweep_reps ?jobs cfg))
             cells)
      in
      let total f = List.fold_left (fun a s -> a + f s) 0 summaries in
      let results = List.concat_map (fun s -> s.Runner.results) summaries in
      {
        empty_round with
        ops = sweep_reps * List.length cells;
        failed =
          total (fun s ->
              List.length s.Runner.failures
              + List.length (List.filter (fun r -> not (healthy r)) s.Runner.results));
        events =
          Some (total (fun s -> List.fold_left (fun a d -> a + d.Journal.events) 0 s.Runner.digests));
        runs = total (fun s -> s.Runner.completed);
        digest = sha (fingerprints results);
        results;
        cells = walls;
        retries = total (fun s -> s.Runner.supervision.Supervisor.runs_retried);
      }
    in
    let tap_configs =
      List.concat_map
        (fun c -> List.init sweep_reps (fun k -> { c with Config.seed = c.Config.seed + k }))
        cells
    in
    let probe = List.nth cells (List.length cells - 1) in
    { run; verify = no_verify; tap_configs; tap_is_job = true; probes = [ (probe, true) ] }
  in
  { name = "sweep-mixed"; setup; reference = Measure.Reference.small }

(* ---------- load-curve ---------- *)

let load_protocols = [ "pbft"; "hotstuff-ns" ]

(* Below the knee, near it, and far past it (the mempool fills and rejects). *)
let load_rates = [ 1_000.; 4_000.; 20_000. ]

let load_decisions = 200

let accounted (p : Wl.Driver.point) =
  p.Wl.Driver.submitted
  = p.Wl.Driver.committed + p.Wl.Driver.dropped + p.Wl.Driver.pending + p.Wl.Driver.in_flight

let point_json p = Bftsim_obs.Json.to_string (Wl.Driver.point_to_json p)

let load_curve =
  let setup ~seed =
    let driver = Wl.Driver.make ~arrival:(Wl.Arrival.poisson ~rate:1.) () in
    let configs =
      List.mapi
        (fun i protocol ->
          Config.make protocol ~n:4 ~seed:(base_seed seed + i) ~lambda_ms:200.
            ~delay:(Net.Delay_model.normal ~mu:50. ~sigma:10.)
            ~pipeline:4 ~decisions_target:load_decisions)
        load_protocols
    in
    let run ~jobs ~spans ~tap:_ =
      let curves, walls =
        List.split
          (List.mapi
             (fun i cfg ->
               timed_cell spans ~run:i "workload.driver.sweep" (fun () ->
                   Wl.Driver.sweep ?jobs driver cfg ~rates:load_rates))
             configs)
      in
      let points = List.concat_map (fun c -> c.Wl.Driver.points) curves in
      {
        empty_round with
        ops = List.length points;
        failed =
          List.length
            (List.filter
               (fun p -> p.Wl.Driver.outcome <> "reached-target" || not (accounted p))
               points);
        events = None;
        runs = List.length points;
        requests = List.fold_left (fun a p -> a + p.Wl.Driver.submitted) 0 points;
        digest = sha (List.map point_json points);
        cells = walls;
        points;
      }
    in
    (* Rate by rate through [run_point_audit]: the controller result gives the
       event count, and each point must equal the sweep's and satisfy the
       request-level accounting. *)
    let verify () =
      let audited =
        List.concat_map
          (fun cfg ->
            List.map (fun rate -> Wl.Driver.run_point_audit driver ~rate cfg) load_rates)
          configs
      in
      let results = List.map (fun (_, _, r) -> r) audited in
      let bad (p, (a : Wl.Driver.audit), r) =
        (not (healthy r))
        || List.length a.Wl.Driver.committed_ids <> p.Wl.Driver.committed
        || List.length a.Wl.Driver.pending_ids <> p.Wl.Driver.pending
      in
      {
        v_events = List.fold_left (fun a r -> a + r.Controller.events_processed) 0 results;
        v_digest = sha (List.map (fun (p, _, _) -> point_json p) audited @ fingerprints results);
        v_failed = List.length (List.filter bad audited);
        v_results = results;
      }
    in
    (* The load configurations without the client hooks: the tap cannot reach
       inside [Driver.run_point], so this is the consensus traffic alone. *)
    { run; verify; tap_configs = configs; tap_is_job = false; probes = [ (List.hd configs, true) ] }
  in
  { name = "load-curve"; setup; reference = Measure.Reference.small }

(* ---------- conform-campaign ---------- *)

(* Three scenarios per (protocol, applicable family).  Their shapes (sizes,
   delay models, fault windows, twins schedules) are drawn once from a fixed
   campaign seed, so every run checks the same campaign; the workload seed
   picks each scenario's simulation seed.  The protocols are those on which
   sampled campaigns report no oracle failure at this version; fuzzing the
   others finds liveness failures on a few percent of scenarios (see
   perfbench/README.md).  hotstuff-ns skips the crash-recover and twins
   families: there its naive pacemaker backs off until the simulated-time
   cap, so the scenario's cost swings with the simulation seed. *)
let conform_protocols = [ "pbft"; "hotstuff-ns"; "algorand"; "add-v3" ]

let conform_shapes = 3

let conform_shape_seed = 4

let conform_scenarios ~seed =
  let families protocol =
    let model = Bftsim_protocols.Protocol_intf.model (Bftsim_protocols.Registry.find_exn protocol) in
    List.filter
      (fun f ->
        Conf.Scenario.applicable ~model f
        && not
             (List.mem protocol Conf.Scenario.crash_fragile
             && List.mem f [ Conf.Scenario.Crash_recover; Conf.Scenario.Twins ]))
      Conf.Scenario.all_families
  in
  List.concat_map
    (fun protocol ->
      List.concat_map
        (fun family -> List.init conform_shapes (fun _ -> (protocol, family)))
        (families protocol))
    conform_protocols
  |> List.mapi (fun k (protocol, family) ->
         let sc =
           List.hd
             (Conf.Scenario.sample ~protocols:[ protocol ] ~families:[ family ] ~budget:1
                ~seed:(base_seed conform_shape_seed + k) ())
         in
         { sc with Conf.Scenario.config = { sc.Conf.Scenario.config with Config.seed = base_seed seed + k } })

let conform_campaign =
  let setup ~seed =
    let scenarios = conform_scenarios ~seed in
    let cell = Conf.Harness.campaign_cell ~budget:(List.length scenarios) ~seed scenarios in
    let run ~jobs ~spans ~tap:_ =
      let report, dt =
        timed_cell spans ~run:0 "conformance.harness.fuzz" (fun () ->
            Conf.Harness.fuzz_scenarios ?jobs ~seed scenarios)
      in
      let failed = List.length report.Conf.Harness.failures + List.length report.Conf.Harness.crashed in
      {
        empty_round with
        ops = report.Conf.Harness.scenarios;
        failed;
        events = None;
        runs = report.Conf.Harness.checks;
        digest =
          sha
            [
              cell;
              string_of_int report.Conf.Harness.scenarios;
              string_of_int report.Conf.Harness.checks;
              string_of_int failed;
            ];
        cells = [ dt ];
      }
    in
    (* Each scenario's primary run, judged by the oracles: its fingerprint
       and event count. *)
    let verify () =
      let checked =
        List.map (fun sc -> Conf.Harness.run_scenario ~determinism:false sc) scenarios
      in
      let results = List.map snd checked in
      {
        v_events = List.fold_left (fun a r -> a + r.Controller.events_processed) 0 results;
        v_digest = sha (fingerprints results);
        v_failed = List.length (List.filter (fun (v, _) -> v <> []) checked);
        v_results = results;
      }
    in
    let probes =
      List.map (fun sc -> (sc.Conf.Scenario.config, sc.Conf.Scenario.expect_live)) scenarios
    in
    { run; verify; tap_configs = List.map fst probes; tap_is_job = true; probes }
  in
  { name = "conform-campaign"; setup; reference = Measure.Reference.small }

let all = [ fig2; sweep_mixed; load_curve; conform_campaign ]
