(* Per-layer kernels of the traced run: replays of streams recorded from the
   workload (sends, the event-queue schedule) through single public layer
   functions, and fixed-input probes of layers every run touches. *)

open Bftsim_core
module Sim = Bftsim_sim
module Net = Bftsim_net
module Wl = Bftsim_workload
module Conf = Bftsim_conformance

(* ---------- Event_queue ---------- *)

(* The queue's schedule/pop stream of one recorded run, rebuilt from each
   message's send and arrival time: before a message is scheduled, every
   event due by its send time has been popped.  Encoded as floats: a time
   >= 0 schedules, -1. pops. *)
let queue_stream times (first, last) =
  let q = Sim.Event_queue.create () and ops = ref [] in
  let pop_until t =
    let rec go () =
      match Sim.Event_queue.peek_time q with
      | Some at when Sim.Time.to_ms at <= t ->
        Sim.Event_queue.next_exn q;
        ops := -1. :: !ops;
        go ()
      | _ -> ()
    in
    go ()
  in
  let i = ref first in
  while !i < last do
    let send = times.(!i) and arrive = times.(!i + 1) in
    pop_until send;
    Sim.Event_queue.schedule_after q ~delay_ms:(arrive -. Sim.Event_queue.now_ms q) ();
    ops := arrive :: !ops;
    i := !i + 2
  done;
  pop_until infinity;
  Array.of_list (List.rev !ops)

let replay_queue ops =
  let q = Sim.Event_queue.create () and peak = ref 0 in
  Array.iter
    (fun op ->
      if op >= 0. then begin
        Sim.Event_queue.schedule_after q ~delay_ms:(op -. Sim.Event_queue.now_ms q) ();
        peak := max !peak (Sim.Event_queue.pending q)
      end
      else if not (Sim.Event_queue.is_empty q) then Sim.Event_queue.next_exn q)
    ops;
  !peak

(* ns per operation, minor words per operation and peak pending events,
   over the recorded runs' streams. *)
let event_queue (tap : Workloads.Tap.t) =
  let streams = List.rev_map (queue_stream tap.Workloads.Tap.times) tap.Workloads.Tap.streams in
  let n = List.fold_left (fun a ops -> a + Array.length ops) 0 streams in
  if n = 0 then (0., 0., 0)
  else begin
    let w0 = Gc.minor_words () in
    let peak = List.fold_left (fun a ops -> max a (replay_queue ops)) 0 streams in
    let words = (Gc.minor_words () -. w0) /. Float.of_int n in
    let s = Measure.per_call (fun () -> List.iter (fun ops -> ignore (replay_queue ops)) streams) in
    (s /. Float.of_int n *. 1e9, words, peak)
  end

(* ---------- Network, loss model, attacker ---------- *)

type Net.Message.payload += Probe

(* The tapped sends of each run, as messages ready for the network. *)
let tapped_messages (tap : Workloads.Tap.t) =
  List.rev_map
    (fun (run : Workloads.Tap.run) ->
      let msgs =
        Array.init (run.Workloads.Tap.last - run.Workloads.Tap.first) (fun i ->
            let l = tap.Workloads.Tap.links.(run.Workloads.Tap.first + i) in
            Net.Message.make ~id:i ~src:(l lsr 20) ~dst:(l land 0xfffff) ~sent_at:Sim.Time.zero Probe)
      in
      (run.Workloads.Tap.config, msgs))
    tap.Workloads.Tap.runs

let total_messages runs = List.fold_left (fun a (_, m) -> a + Array.length m) 0 runs

let network_of (c : Config.t) =
  Net.Network.create ?bandwidth_mbps:c.Config.bandwidth_mbps ~delay:c.Config.delay
    ~topology:(Net.Topology.fully_connected (Config.physical_n c))
    ~rng:(Sim.Rng.create c.Config.seed) ()

let ns_per_message runs f =
  let n = total_messages runs in
  if n = 0 then 0.
  else
    Measure.per_call ~batches:3 (fun () -> List.iter (fun (c, msgs) -> f c msgs) runs)
    /. Float.of_int n *. 1e9

let assign_delay_ns runs =
  ns_per_message runs (fun c msgs ->
      let net = network_of c in
      Array.iter (Net.Network.assign_delay net) msgs)

let loss_sample_ns runs =
  ns_per_message runs (fun c msgs ->
      let st = Net.Loss_model.state c.Config.loss and rng = Sim.Rng.create c.Config.seed in
      Array.iter
        (fun (m : Net.Message.t) ->
          ignore (Net.Loss_model.sample st rng ~src:m.Net.Message.src ~dst:m.Net.Message.dst))
        msgs)

let attack_ns runs =
  let pass = Bftsim_attack.Attacker.passthrough in
  ns_per_message runs (fun c msgs ->
      let env =
        {
          Bftsim_attack.Attacker.n = c.Config.n;
          f = 0;
          lambda_ms = c.Config.lambda_ms;
          now = (fun () -> Sim.Time.zero);
          rng = Sim.Rng.create c.Config.seed;
          topology = Net.Topology.fully_connected c.Config.n;
          set_timer = (fun ~delay_ms:_ ~tag:_ _ -> invalid_arg "probe attacker env");
          inject = (fun ~src:_ ~dst:_ ~delay_ms:_ ~tag:_ ~size:_ _ -> ());
          corrupt = (fun _ -> false);
          is_corrupted = (fun _ -> false);
          corrupted = (fun () -> []);
          override_delay = ignore;
        }
      in
      Array.iter (fun m -> ignore (pass.Bftsim_attack.Attacker.attack env m)) msgs)

(* ---------- fixed-input probes ---------- *)

let tally_add_ns () =
  let voters = 512 and keys = 64 in
  Measure.per_call (fun () ->
      let t = Bftsim_protocols.Tally.create () in
      for k = 0 to keys - 1 do
        for v = 0 to voters - 1 do
          ignore (Bftsim_protocols.Tally.add t k ~voter:v)
        done
      done)
  /. Float.of_int (voters * keys) *. 1e9

let metrics_ns () =
  let m = Bftsim_obs.Metrics.create () in
  let incr = Measure.per_call (fun () -> Bftsim_obs.Metrics.incr m "bench.count") in
  let x = ref 0. in
  let observe =
    Measure.per_call (fun () ->
        x := !x +. 1.;
        Bftsim_obs.Metrics.observe m "bench.latency_ms" (Float.rem !x 1000.))
  in
  (incr *. 1e9, observe *. 1e9)

let sha256_mb_per_s () =
  let block = String.init (1 lsl 20) (fun i -> Char.chr (i land 0xff)) in
  let s = Measure.per_call ~batches:3 (fun () -> ignore (Bftsim_crypto.Sha256.digest_string block)) in
  1.048576 /. s

let us_per_result f results =
  match results with
  | [] -> 0.
  | _ ->
    Measure.per_call ~batches:3 (fun () -> List.iteri f results)
    /. Float.of_int (List.length results) *. 1e6

let journal_digest_us results =
  us_per_result (fun i r -> ignore (Journal.digest_of_result ~rep:i r)) results

let fingerprint_us results = us_per_result (fun _ r -> ignore (Conf.Fingerprint.of_result r)) results

(* ---------- Mempool ---------- *)

(* A Poisson arrival stream of the load-curve shape at its overload rate,
   replayed through [Mempool.add] in pool-sized bursts and drained by
   [Mempool.take] at the default batch size. *)
let mempool_ns ~seed =
  let rate = 20_000. and count = 65_536 in
  let arrival = Wl.Arrival.poisson ~rate and rng = Sim.Rng.create seed in
  let clock = ref 0. in
  let reqs =
    Array.init count (fun id ->
        clock := !clock +. Wl.Arrival.next_gap_ms arrival ~now_ms:!clock rng;
        { Wl.Mempool.id; arrived_ms = !clock; key = 0; client = -1 })
  in
  let capacity = 4096 and batch = Wl.Batch.default.Wl.Batch.max_batch in
  let add_s = ref 0. and take_s = ref 0. and adds = ref 0 and takes = ref 0 in
  let t_end = Measure.now () +. 0.2 in
  while Measure.now () < t_end do
    let pool = Wl.Mempool.create ~capacity in
    let i = ref 0 in
    while !i < count do
      let upto = min count (!i + capacity) in
      let (), dt =
        Measure.time (fun () ->
            for j = !i to upto - 1 do
              ignore (Wl.Mempool.add pool reqs.(j))
            done)
      in
      add_s := !add_s +. dt;
      adds := !adds + (upto - !i);
      let k = (upto - !i + batch - 1) / batch in
      let (), dt =
        Measure.time (fun () ->
            for _ = 1 to k do
              ignore (Wl.Mempool.take pool ~max:batch)
            done)
      in
      take_s := !take_s +. dt;
      takes := !takes + k;
      i := upto
    done
  done;
  (!add_s /. Float.of_int !adds *. 1e9, !take_s /. Float.of_int !takes *. 1e9)
