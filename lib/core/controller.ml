open Bftsim_sim
open Bftsim_net
module Attack = Bftsim_attack
module Protocols = Bftsim_protocols
module Obs = Bftsim_obs

type outcome =
  | Reached_target
  | Timed_out
  | Event_cap
  | Queue_drained
  | Stalled of { last_progress_ms : float }

type result = {
  config : Config.t;
  outcome : outcome;
  time_ms : float;
  messages_sent : int;
  bytes_sent : int;
  messages_dropped : int;
  events_processed : int;
  decisions : (int * string list) list;
  safety_ok : bool;
  safety_violation : string option;
  violations : Invariant.violation list;
  corrupted : int list;
  per_decision_latency_ms : float;
  per_decision_messages : float;
  final_views : int array;
  view_samples : (float * int array) list;
  trace : Trace.t option;
  metrics : Obs.Metrics.t option;
  spans : Obs.Tracer.t option;
}

type Timer.payload += Sample_views

(* Workload layer (DESIGN.md §3.16): a run can be driven by client traffic
   instead of one pre-agreed value.  The hooks live here — not in Config —
   because they are closures over harness state, and Config must stay a
   serializable key = value record.  With [?workload] absent every hook site
   below degenerates to the pre-workload behavior, bit for bit. *)
type workload_env = {
  wl_now_ms : unit -> float;
  wl_schedule : delay_ms:float -> (unit -> unit) -> unit;
      (** Deterministic one-shot callback on the simulation clock; the
          workload harness uses it for client arrivals and batch timers. *)
}

type workload = {
  on_workload_start : workload_env -> unit;
  on_request_proposal :
    node:int ->
    slot:int ->
    width:int ->
    default:Protocols.Context.proposal ->
    (Protocols.Context.proposal -> bool) ->
    unit;
      (** A leader asks for a proposal payload covering [width] consensus
          slots; the harness may delay the continuation until a batch is
          cut.  The continuation reports whether the proposal was actually
          used — [false] means the leader window went stale (view change)
          and the harness should re-queue the batched requests. *)
  on_commit : node:int -> index:int -> value:string -> at_ms:float -> unit;
      (** Every decide by every physical node, in simulation order — the
          commit-ack stream that closes the request-latency loop. *)
}

type Timer.payload += Workload_fire of (unit -> unit)

type Message.payload +=
  | Gossip_frame of { origin : int; gid : int; tag : string; size : int; inner : Message.payload }
      (** Epidemic-transport envelope: first-time receivers unwrap [inner]
          for their protocol and re-forward the frame to [fanout] peers. *)

type Message.payload +=
  | Rc_frame of { seq : int; tag : string; size : int; inner : Message.payload }
      (** Reliable-channel envelope (DESIGN.md §3.17): per-(src,dst) sequence
          number, the wrapped protocol payload and its original tag/size.
          The receiver acks every frame (duplicates included — a duplicate
          usually means the previous ack was lost) and unwraps each sequence
          number exactly once. *)
  | Rc_ack of { seq : int }

type Timer.payload += Rc_retransmit of { dst : int; seq : int }
      (** Sender-side retransmission alarm, owned by the sending node so the
          crash-deferral machinery pauses retransmission while the sender is
          down and resumes it at the restart instant. *)

(* Sender-side bookkeeping for one unacked reliable frame. *)
type rc_pending = {
  rc_tag : string;
  rc_size : int;
  rc_inner : Message.payload;
  mutable rc_attempts : int;
}

(* One send as it travels: a broadcast builds a single wire record shared by
   all of its in-flight deliveries, and each delivery is a two-field
   [Deliver] block pairing it with the recipient's message id and physical
   destination (packed by [pack_delivery]).  In-flight state is thus a few
   words per recipient instead of a full [Message.t] plus boxed delay, and
   the envelope a handler sees is rebuilt at dispatch, where it dies young
   (DESIGN.md §3.15). *)
type wire = {
  w_src : int;
  w_sent_at : Time.t;
  w_tag : string;
  w_size : int;
  w_payload : Message.payload;
}

type event =
  | Deliver of wire * int
  | Deliver_verified of wire * int
  | Node_timer of Timer.t
  | Attacker_timer of Timer.t

let pp_outcome ppf = function
  | Reached_target -> Format.pp_print_string ppf "reached-target"
  | Timed_out -> Format.pp_print_string ppf "timed-out"
  | Event_cap -> Format.pp_print_string ppf "event-cap"
  | Queue_drained -> Format.pp_print_string ppf "queue-drained"
  | Stalled { last_progress_ms } ->
    Format.fprintf ppf "stalled(last-progress=%gms)" last_progress_ms

let build_attacker (config : Config.t) =
  match config.attack with
  | Config.No_attack -> Attack.Attacker.passthrough
  | Config.Partition { first_size; start_ms; heal_ms; drop } ->
    let mode =
      if drop then Attack.Partition_attack.Drop_cross_traffic
      else Attack.Partition_attack.Delay_until_heal { jitter_ms = 10. }
    in
    Attack.Partition_attack.two_subnets ~n:config.n ~first_size ~start_ms ~heal_ms mode
  | Config.Silence { nodes; at_ms } -> Attack.Failstop.at_time ~nodes ~at_ms
  | Config.Add_static { f } -> Protocols.Addplus_attacks.static ~f
  | Config.Add_rushing_adaptive { budget } -> Protocols.Addplus_attacks.rushing_adaptive ?budget ()
  | Config.Extra_delay { extra_ms } -> Attack.Attacker.delay_all ~extra_ms

(* Agreement check: decision sequences of all counted honest nodes must
   agree index-wise (they may have reached different lengths). *)
let check_safety ~counted decisions =
  let violation = ref None in
  let by_index : (int, int * string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (node, values) ->
      if counted node then
        List.iteri
          (fun k value ->
            match Hashtbl.find_opt by_index k with
            | None -> Hashtbl.replace by_index k (node, value)
            | Some (other, expected) ->
              if (not (String.equal expected value)) && !violation = None then
                violation :=
                  Some
                    (Printf.sprintf "decision %d: node %d decided %S but node %d decided %S" k node
                       value other expected))
          values)
    decisions;
  !violation

(* Test-only fault injection: BFTSIM_FAULT_INJECT="crash@17;hang@23" makes
   the replication seeded 17 raise at startup and the one seeded 23 spin on
   the wall clock until cancelled.  The supervised campaign drivers turn
   those into structured outcomes; the knob exists so the resilience tests
   and the CI kill-and-resume job can exercise that machinery end to end.
   The variable is read on every run, not cached in a process-global lazy:
   two domains forcing one lazy at once makes the second raise
   [CamlinternalLazy.Undefined], and a run costs one [getenv] unless the
   knob is set. *)
let injected_faults () =
  match Sys.getenv_opt "BFTSIM_FAULT_INJECT" with
  | None | Some "" -> []
  | Some spec ->
    String.split_on_char ';' spec
    |> List.filter_map (fun directive ->
           match String.split_on_char '@' (String.trim directive) with
           | [ "crash"; seed ] -> Option.map (fun s -> (`Crash, s)) (int_of_string_opt seed)
           | [ "hang"; seed ] -> Option.map (fun s -> (`Hang, s)) (int_of_string_opt seed)
           | _ ->
             invalid_arg
               (Printf.sprintf "BFTSIM_FAULT_INJECT: cannot parse %S (want crash@N or hang@N)"
                  directive))

let no_cancel () = false

(* A delivery's int packs the message id above the physical destination.
   Destinations outside the replica set (only a forging attacker produces
   them) pack as [dst_mask], which no replica uses, so they stay
   undeliverable. *)
let dst_bits = 24

let dst_mask = (1 lsl dst_bits) - 1

let[@inline] pack_delivery ~pn ~id ~dst =
  (id lsl dst_bits) lor if dst >= 0 && dst < pn then dst else dst_mask

let run ?(cancel = no_cancel) ?delay_override ?attacker:attacker_override ?workload
    (config : Config.t) =
  Config.validate config;
  List.iter
    (fun (kind, seed) ->
      if seed = config.seed then
        match kind with
        | `Crash -> failwith (Printf.sprintf "BFTSIM_FAULT_INJECT: injected crash (seed %d)" seed)
        | `Hang ->
          (* Spin on the wall clock, not sim time: this models a replication
             that hangs the host.  Only the cooperative deadline (or a
             SIGKILL) gets it unstuck. *)
          while not (cancel ()) do
            Unix.sleepf 0.005
          done;
          raise Supervisor.Cancelled)
    (injected_faults ());
  let (module P : Protocols.Protocol_intf.S) = Protocols.Registry.find_exn config.protocol in
  let n = config.n in
  (* Twins (DESIGN.md §3.14): each twinned identity runs a second physical
     replica with the same credentials and input but its own RNG stream and
     state.  Everything below the protocol boundary — arrays, RNGs, network,
     traces — is indexed by PHYSICAL id [0..pn); the protocol only ever sees
     LOGICAL ids (its own via [ctx.node_id], peers via rewritten [msg.src]).
     Without twins [pn = n] and both id spaces coincide, so the code paths
     are shared and bit-identical to a pre-twins run. *)
  let twins = config.twins in
  let pn = Config.physical_n config in
  if pn >= dst_mask then invalid_arg (Printf.sprintf "Controller.run: %d replicas is too many" pn);
  let to_logical p =
    match twins with
    | Some tw when p >= n -> Attack.Twins_schedule.logical ~n tw p
    | Some _ | None -> p
  in
  let instances id =
    match twins with None -> [ id ] | Some tw -> Attack.Twins_schedule.instances ~n tw id
  in
  let twinned p =
    match twins with
    | None -> false
    | Some tw -> p >= n || Attack.Twins_schedule.twin_instance ~n tw p <> None
  in
  let f = Protocols.Quorum.max_faulty n in
  let root_rng = Rng.create config.seed in
  let net_rng = Rng.split root_rng in
  let attacker_rng = Rng.split root_rng in
  let node_rngs = Array.init pn (fun _ -> Rng.split root_rng) in
  let queue : event Event_queue.t = Event_queue.create () in
  Simlog.set_now (fun () -> Event_queue.now queue);
  let topology =
    match config.Config.zones with
    | None -> Topology.fully_connected pn
    | Some spec -> (
      (* Validated by [Config.validate]; re-surface the error defensively
         for hand-built records that bypassed it. *)
      match Topology.of_zone_spec spec ~n:pn with
      | Ok t -> t
      | Error e -> invalid_arg ("Config: " ^ e))
  in
  let network =
    Network.create ?bandwidth_mbps:config.Config.bandwidth_mbps ~delay:config.delay ~topology
      ~rng:net_rng ()
  in
  let trace = if config.record_trace then Some (Trace.create ()) else None in
  (* Telemetry (DESIGN.md §3.11).  The registry holds only simulated
     quantities so [Runner.run_many]'s merge is identical whatever domain
     pool executed the runs; wall-clock attribution lives in the tracer.
     When both switches are off every probe below degenerates to a store
     into a dead cell or a [None] match — no hash lookups, no allocation. *)
  let telemetry = config.Config.telemetry in
  let reg = if telemetry.Config.metrics then Some (Obs.Metrics.create ()) else None in
  let tracer =
    if telemetry.Config.tracing then
      Some (Obs.Tracer.create ~capacity:telemetry.Config.trace_capacity ())
    else None
  in
  let telemetry_on = reg <> None || tracer <> None in
  (* Lossy-network / crash-recovery feature gates.  Everything they guard is
     conditional down to the RNG splits and metric registrations, so a run
     with all three off is byte-identical to the legacy path. *)
  let loss_on = not (Loss_model.is_none config.Config.loss) in
  let rc_on = config.Config.reliable in
  let has_restarts = Attack.Fault_schedule.restarts config.chaos <> [] in
  let ctr =
    match reg with
    | Some r -> fun name -> Obs.Metrics.counter r name
    | None ->
      let dead = Obs.Metrics.null_counter () in
      fun _ -> dead
  in
  let c_sent = ctr "net.sent" in
  let c_delivered = ctr "net.delivered" in
  let c_dropped = ctr "net.dropped" in
  let c_bytes = ctr "net.bytes" in
  let c_injected = ctr "net.injected" in
  let c_timer_set = ctr "timer.set" in
  let c_timer_fired = ctr "timer.fired" in
  let c_timer_cancelled = ctr "timer.cancelled" in
  let c_decisions = ctr "protocol.decisions" in
  let c_view_changes = ctr "protocol.view_changes" in
  let c_corruptions = ctr "attacker.corruptions" in
  let c_events = ctr "sim.events" in
  let c_twin_drops = ctr "twins.round_drops" in
  (* Registered only when the feature is on, so the metrics snapshot of an
     existing configuration gains no rows. *)
  let ctr_if on name = if on then ctr name else Obs.Metrics.null_counter () in
  let c_loss_dropped = ctr_if loss_on "net.loss_dropped" in
  let c_dup_created = ctr_if loss_on "net.dup_created" in
  let c_retrans = ctr_if rc_on "net.retrans" in
  let c_dup_dropped = ctr_if rc_on "net.dup_dropped" in
  let h_delay, h_size =
    match reg with
    | Some r ->
      ( Obs.Metrics.histogram r "net.delay_ms",
        Obs.Metrics.histogram
          ~buckets:[| 64.; 256.; 1024.; 4096.; 16384.; 65536.; 262144. |]
          r "net.msg.size_bytes" )
    | None -> (Obs.Metrics.null_histogram (), Obs.Metrics.null_histogram ())
  in
  let bandwidth_on = config.Config.bandwidth_mbps <> None in
  (* Egress queue-delay distribution; only present when the bandwidth model
     is on, so the registry of existing configs is unchanged. *)
  let h_queue =
    match reg with
    | Some r when bandwidth_on -> Obs.Metrics.histogram r "net.queue_ms"
    | Some _ | None -> Obs.Metrics.null_histogram ()
  in
  (* Restart-to-caught-up latency; present only when the plan restarts. *)
  let h_catchup =
    match reg with
    | Some r when has_restarts -> Obs.Metrics.histogram r "recovery.catchup_ms"
    | Some _ | None -> Obs.Metrics.null_histogram ()
  in
  (* Histogram observes mutate boxed-float fields, so unlike the dead
     counters they allocate; the off path takes a branch instead. *)
  let metrics_on = reg <> None in
  (* Per-tag send counters, resolved through a private cache so the
     metrics-on path still pays one registry lookup per {e distinct} tag,
     not per message. *)
  let count_tag =
    match reg with
    | None -> fun _ -> ()
    | Some r ->
      let cache : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
      fun tag ->
        let cell =
          match Hashtbl.find_opt cache tag with
          | Some c -> c
          | None ->
            let c = Obs.Metrics.counter r ("net.sent." ^ tag) in
            Hashtbl.replace cache tag c;
            c
        in
        incr cell
  in
  let us_now () = Event_queue.now_ms queue *. 1000. in
  (* Message spans run from send to arrival on the receiver's track; the
     simulated timestamps make them line up with dispatch spans in the
     Chrome/Perfetto rendering. *)
  let trace_net_deliver (msg : Message.t) =
    match tracer with
    | None -> ()
    | Some tr ->
      Obs.Tracer.span tr ~name:msg.Message.tag ~cat:"net" ~node:msg.Message.dst
        ~ts_us:(Time.to_ms msg.Message.sent_at *. 1000.)
        ~dur_us:(msg.Message.delay_ms *. 1000.)
        ~args:[ ("src", Obs.Tracer.Int msg.Message.src); ("size", Obs.Tracer.Int msg.Message.size) ]
        ()
  in
  (* Timer spans run from arming to firing.  Set times are tracked only
     when tracing — the table is dead weight otherwise. *)
  let timer_set_at : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let note_timer_set id =
    incr c_timer_set;
    if tracer <> None then Hashtbl.replace timer_set_at id (Event_queue.now_ms queue)
  in
  let note_timer_fired (timer : Timer.t) =
    incr c_timer_fired;
    match tracer with
    | None -> ()
    | Some tr ->
      let now_ms = Event_queue.now_ms queue in
      let set_ms =
        match Hashtbl.find_opt timer_set_at timer.Timer.id with
        | Some s ->
          Hashtbl.remove timer_set_at timer.Timer.id;
          s
        | None -> now_ms
      in
      Obs.Tracer.span tr
        ~name:("timer:" ^ timer.Timer.tag)
        ~cat:"timer" ~node:timer.Timer.owner ~ts_us:(set_ms *. 1000.)
        ~dur_us:((now_ms -. set_ms) *. 1000.)
        ()
  in
  let note_timer_cancelled (timer : Timer.t) =
    incr c_timer_cancelled;
    match tracer with
    | None -> ()
    | Some tr ->
      Hashtbl.remove timer_set_at timer.Timer.id;
      Obs.Tracer.instant tr
        ~name:("cancel:" ^ timer.Timer.tag)
        ~cat:"timer" ~node:timer.Timer.owner ~ts_us:(us_now ()) ()
  in
  let record kind ~node ~peer ~tag ~detail =
    match trace with
    | None -> ()
    | Some t ->
      Trace.record t
        { at_ms = Event_queue.now_ms queue; kind; node; peer; tag; detail }
  in
  (* Ambient sink: protocol / library code below the controller can emit
     probes without a handle (domain-local, so concurrent runs on a domain
     pool stay separate).  Warnings and errors are mirrored onto the trace
     timeline so anomalies appear next to the events that caused them. *)
  if telemetry_on then Obs.Probe.set ?metrics:reg ?tracer ();
  (match tracer with
  | Some tr ->
    Simlog.set_mirror
      (Some
         (fun ~level s ->
           let name =
             match level with Logs.Error -> "error" | Logs.Warning -> "warning" | _ -> "log"
           in
           Obs.Tracer.instant tr ~name ~cat:"log" ~node:(-1) ~ts_us:(us_now ())
             ~args:[ ("msg", Obs.Tracer.Str s) ]
             ()))
  | None -> ());
  let crashed = Array.make pn false in
  List.iter (fun i -> crashed.(i) <- true) config.crashed;
  let corrupted = Array.make pn false in
  let corrupted_order = ref [] in
  let msg_counter = ref 0 in
  let timer_counter = ref 0 in
  (* Timer bookkeeping: [pending] holds every scheduled-but-not-yet-fired
     id, [cancelled] the pending ids whose owner revoked them.  Timer ids
     are issued sequentially, so both sets are flat bitsets (one bit per id
     ever issued, no per-operation allocation) instead of hashtables.  Both
     are pruned when the timer event is consumed; cancelling an id that
     already fired is a no-op (nothing is pending), which is what keeps
     [cancelled] from accumulating. *)
  let pending_timers = Dense_set.create ~initial_capacity:1024 () in
  let cancelled = Dense_set.create ~initial_capacity:1024 () in
  let consume_timer id =
    Dense_set.remove pending_timers id;
    if Dense_set.mem cancelled id then begin
      Dense_set.remove cancelled id;
      false
    end
    else true
  in
  let dropped = ref 0 in
  let decisions : string list ref array = Array.init pn (fun _ -> ref []) in
  (* Per-node decision counts, maintained incrementally so the hot
     decide/check_target path never walks the accumulating lists. *)
  let decision_counts = Array.make pn 0 in
  let finished = ref None in
  let outcome = ref Queue_drained in
  let view_samples = ref [] in
  let chaos = Attack.Fault_schedule.normalize config.chaos in
  let attacker =
    let base = match attacker_override with Some a -> a | None -> build_attacker config in
    (* Layering: chaos first (a message a crashed source never sent must not
       reach anything downstream), then the twins partition schedule, then
       the scenario attacker. *)
    let layers =
      (match chaos with [] -> [] | _ -> [ Attack.Fault_schedule.to_attacker chaos ])
      @
      match twins with
      | None -> []
      | Some tw -> [ Attack.Twins_schedule.to_attacker ~on_drop:(fun () -> incr c_twin_drops) tw ]
    in
    match layers with [] -> base | _ -> Attack.Attacker.compose (layers @ [ base ])
  in
  (* Throughput extension (§III-A3): sequential per-node CPUs charged for
     signing and verification; zero costs short-circuit to the paper's
     cost-free behaviour. *)
  let costs = config.Config.costs in
  let cpus = Array.init pn (fun _ -> Cost_model.make_cpu ()) in
  let gossip_rng = Rng.split root_rng in
  let gossip_counter = ref 0 in
  (* Per node: gossip frames already processed (origin, gid). *)
  let gossip_seen : (int * int, unit) Hashtbl.t array = Array.init pn (fun _ -> Hashtbl.create 64) in

  (* Lossy-network and crash-recovery substrate (DESIGN.md §3.17).  The RNG
     splits are conditional and sit after every legacy split, so enabling a
     feature never shifts the streams of a run that does not use it. *)
  let loss_rng = if loss_on then Rng.split root_rng else root_rng in
  let loss_state = Loss_model.state config.Config.loss in
  let rc_rng = if rc_on then Rng.split root_rng else root_rng in
  let rc_base_ms =
    if config.Config.retrans_base_ms > 0. then config.Config.retrans_base_ms
    else 2. *. config.lambda_ms
  in
  (* Channel state is controller-owned — it models the NIC/kernel pair, not
     the replica process — so it survives [restart@] events; retransmission
     of unacked frames is exactly what bridges a receiver's downtime. *)
  let rc_next : (int * int, int ref) Hashtbl.t = Hashtbl.create (if rc_on then 64 else 1) in
  let rc_out : (int * int * int, rc_pending) Hashtbl.t =
    Hashtbl.create (if rc_on then 256 else 1)
  in
  let rc_seen : (int * int * int, unit) Hashtbl.t =
    Hashtbl.create (if rc_on then 256 else 1)
  in
  (* Simulated per-node write-ahead log: the only node state that survives a
     [restart@].  [incarnation] stamps protocol timers so alarms armed by a
     previous life of a restarted node die instead of firing into the fresh
     node; reliable-channel alarms are exempt (the channel survives). *)
  let wal : (string, string) Hashtbl.t array = Array.init pn (fun _ -> Hashtbl.create 8) in
  let restart_at = Array.make pn 0. in
  let awaiting_catchup = Array.make pn false in
  let incarnation = Array.make pn 0 in
  let timer_epoch : (int, int) Hashtbl.t = Hashtbl.create (if has_restarts then 256 else 1) in

  (* Nodes the chaos plan fail-stops and never restarts can no more reach
     the decision target than config-crashed ones; recovered nodes stay
     counted and must catch up. *)
  let chaos_gone =
    Array.init pn (fun node -> Attack.Fault_schedule.crashed_at chaos ~node ~at_ms:Float.infinity)
  in
  (* Twin instances emulate a Byzantine identity: they are excluded from the
     decision target and from agreement — equivocation between the two
     halves is the attack, not the violation.  The violation the oracles
     look for is disagreement among the remaining honest nodes. *)
  let counted node =
    (not crashed.(node)) && (not corrupted.(node)) && (not chaos_gone.(node)) && not (twinned node)
  in
  (* Per-index agreement presumes complete logs; a node the plan crashes
     and restarts misses the decisions made while it was down (there is no
     state transfer), so only never-crashed nodes are index-aligned — and
     neither is an honest node a twins round cut off from a quorum, which
     misses the quorum side's decisions the same way. *)
  let aligned node =
    counted node
    && (not (Attack.Fault_schedule.ever_crashed chaos ~node))
    && not
         (match twins with
         | None -> false
         | Some tw ->
           Attack.Twins_schedule.isolated_below_quorum ~n ~quorum:(Protocols.Quorum.quorum n) tw
             ~node)
  in
  let last_progress = ref 0. in
  let monitor =
    Invariant.create ~counted ~aligned
      ~crashed_now:(fun ~node ~at_ms ->
        crashed.(node) || Attack.Fault_schedule.crashed_at chaos ~node ~at_ms)
      ?valid_values:
        (if config.check_validity then Some (List.init n (Config.input_for config)) else None)
      ()
  in
  let check_target () =
    if !finished = None then begin
      let all_done = ref true in
      for i = 0 to pn - 1 do
        if counted i && decision_counts.(i) < config.decisions_target then all_done := false
      done;
      if !all_done then begin
        finished := Some (Event_queue.now_ms queue);
        outcome := Reached_target
      end
    end
  in

  (* Replay support: per-link send counters feeding the override. *)
  let link_seq : (int * int * string, int ref) Hashtbl.t = Hashtbl.create 64 in
  let next_link_seq key =
    match Hashtbl.find_opt link_seq key with
    | Some r ->
      incr r;
      !r
    | None ->
      Hashtbl.replace link_seq key (ref 0);
      0
  in

  let wire_from src ~tag ~size payload =
    {
      w_src = src;
      w_sent_at = Event_queue.now queue;
      w_tag = tag;
      w_size = size;
      w_payload = payload;
    }
  in
  let attacker_env =
    {
      (* Attackers see the physical replica set — the twins partition
         schedule addresses twin halves individually. *)
      Attack.Attacker.n = pn;
      f;
        lambda_ms = config.lambda_ms;
        now = (fun () -> Event_queue.now queue);
        rng = attacker_rng;
        topology;
        set_timer =
          (fun ~delay_ms ~tag payload ->
            incr timer_counter;
            let id = !timer_counter in
            Dense_set.add pending_timers id;
            note_timer_set id;
            let deadline = Time.add_ms (Event_queue.now queue) (Float.max 0. delay_ms) in
            let timer = { Timer.id; owner = Timer.attacker_owner; deadline; tag; payload } in
            Event_queue.schedule queue ~at:deadline (Attacker_timer timer);
            id);
        inject =
          (fun ~src ~dst ~delay_ms ~tag ~size payload ->
            incr msg_counter;
            incr c_injected;
            let w = wire_from src ~tag ~size payload in
            let msg =
              Message.make ~id:!msg_counter ~src ~dst ~sent_at:w.w_sent_at ~tag ~size payload
            in
            msg.Message.delay_ms <- Float.max 0. delay_ms;
            record Trace.Send ~node:src ~peer:dst ~tag ~detail:"<injected>";
            trace_net_deliver msg;
            Event_queue.schedule queue ~at:(Message.arrival_time msg)
              (Deliver (w, pack_delivery ~pn ~id:msg.Message.id ~dst)));
        corrupt =
          (fun node ->
            if node < 0 || node >= n || corrupted.(node) then false
            else if List.length !corrupted_order >= f then false
            else begin
              corrupted.(node) <- true;
              corrupted_order := node :: !corrupted_order;
              incr c_corruptions;
              (match tracer with
              | Some tr ->
                Obs.Tracer.instant tr ~name:"corrupt" ~cat:"attacker" ~node ~ts_us:(us_now ()) ()
              | None -> ());
              Simlog.info "attacker corrupts node %d" node;
              true
            end);
        is_corrupted = (fun node -> node >= 0 && node < n && corrupted.(node));
        corrupted = (fun () -> List.sort compare !corrupted_order);
        override_delay = Network.override_delay network;
    }
  in

  (* [msg] is the attacker's per-recipient view of wire [w]: it may rewrite
     its [delay_ms], which only reaches the queue priority, so a rewrite for
     one recipient never leaks to the others sharing [w]. *)
  let route (w : wire) (msg : Message.t) =
    Network.assign_delay network msg;
    (* The recorded delay is end-to-end (sample + crypto cost + attacker
       modifications), so in replay mode it is applied last — after the
       attacker has run (its verdicts and RNG draws must still happen) —
       and the sequence number advances for every send, dropped or not, to
       stay aligned with the recording. *)
    let replay_delay =
      match delay_override with
      | None -> None
      | Some override ->
        let seq = next_link_seq (msg.src, msg.dst, msg.tag) in
        override ~src:msg.src ~dst:msg.dst ~tag:msg.tag ~seq
    in
    (* [record] drops the row when tracing is off, but the [detail] string
       would still be rendered eagerly — and payload printing is a sprintf
       through the printer chain, by far the costliest allocation on the
       send path.  Guard it. *)
    if trace <> None then
      record Trace.Send ~node:msg.src ~peer:msg.dst ~tag:msg.tag
        ~detail:(Message.payload_to_string msg.payload);
    (* WAL writes ([wal_ms]) occupy the same sequential CPU as signing, so
       the queueing delay behind a persist must reach the wire even when
       signing itself is free. *)
    (if (costs.Cost_model.sign_ms > 0. || config.Config.wal_ms > 0.)
        && msg.src >= 0 && msg.src < pn
     then begin
       let now = Event_queue.now_ms queue in
       let finish = Cost_model.charge cpus.(msg.src) ~now_ms:now ~cost_ms:costs.Cost_model.sign_ms in
       msg.Message.delay_ms <- msg.Message.delay_ms +. (finish -. now)
     end);
    match attacker.Attack.Attacker.attack attacker_env msg with
    | Attack.Attacker.Drop ->
      incr dropped;
      incr c_dropped;
      (match tracer with
      | Some tr ->
        Obs.Tracer.instant tr
          ~name:("drop:" ^ msg.Message.tag)
          ~cat:"net" ~node:msg.Message.src ~ts_us:(us_now ())
          ~args:[ ("dst", Obs.Tracer.Int msg.Message.dst) ]
          ()
      | None -> ());
      record Trace.Drop ~node:msg.src ~peer:msg.dst ~tag:msg.tag ~detail:""
    | Attack.Attacker.Deliver ->
      (match replay_delay with Some delay_ms -> msg.Message.delay_ms <- delay_ms | None -> ());
      (* Stochastic per-link faults run after the adversary: the attacker
         models intent, this models the wire itself (DESIGN.md's third drop
         path).  Self-addressed messages are local and never lossy. *)
      let verdict =
        if loss_on && msg.Message.src <> msg.Message.dst then
          Loss_model.sample loss_state loss_rng ~src:msg.Message.src ~dst:msg.Message.dst
        else { Loss_model.deliver = true; duplicate = false; reorder_extra_ms = 0. }
      in
      if not verdict.Loss_model.deliver then begin
        incr dropped;
        incr c_loss_dropped;
        (match tracer with
        | Some tr ->
          Obs.Tracer.instant tr
            ~name:("loss:" ^ msg.Message.tag)
            ~cat:"net" ~node:msg.Message.src ~ts_us:(us_now ())
            ~args:[ ("dst", Obs.Tracer.Int msg.Message.dst) ]
            ()
        | None -> ());
        record Trace.Drop ~node:msg.src ~peer:msg.dst ~tag:msg.tag ~detail:"loss"
      end
      else begin
        (* Skipping the zero case spares a float box per message. *)
        if verdict.Loss_model.reorder_extra_ms <> 0. then
          msg.Message.delay_ms <- msg.Message.delay_ms +. verdict.Loss_model.reorder_extra_ms;
        if metrics_on && msg.Message.src <> msg.Message.dst then begin
          Obs.Metrics.observe_h h_delay msg.Message.delay_ms;
          if bandwidth_on then Obs.Metrics.observe_h h_queue (Network.last_queue_ms network)
        end;
        trace_net_deliver msg;
        Event_queue.schedule queue ~at:(Message.arrival_time msg)
          (Deliver (w, pack_delivery ~pn ~id:msg.Message.id ~dst:msg.Message.dst));
        if verdict.Loss_model.duplicate then begin
          (* The duplicate is a network artifact, not wire traffic the
             sender paid for: it gets its own message id but no stats. *)
          incr msg_counter;
          incr c_dup_created;
          let dup =
            Message.make ~id:!msg_counter ~src:msg.Message.src ~dst:msg.Message.dst
              ~sent_at:msg.Message.sent_at ~tag:msg.Message.tag ~size:msg.Message.size
              msg.Message.payload
          in
          dup.Message.delay_ms <- msg.Message.delay_ms +. (0.5 *. config.lambda_ms);
          trace_net_deliver dup;
          Event_queue.schedule queue ~at:(Message.arrival_time dup)
            (Deliver (w, pack_delivery ~pn ~id:dup.Message.id ~dst:dup.Message.dst))
        end
      end
  in

  let send_wire (w : wire) ~dst =
    let src = w.w_src and size = w.w_size in
    incr msg_counter;
    (* Mirror [Network.stats]: self-addressed messages are local
       deliveries, not wire traffic (§II-C message usage). *)
    if dst <> src then begin
      incr c_sent;
      c_bytes := !c_bytes + size;
      count_tag w.w_tag;
      if metrics_on then Obs.Metrics.observe_h h_size (float_of_int size)
    end;
    route w
      (Message.make ~id:!msg_counter ~src ~dst ~sent_at:w.w_sent_at ~tag:w.w_tag ~size w.w_payload)
  in
  let send_from src ~dst ~tag ~size payload =
    if not crashed.(src) then send_wire (wire_from src ~tag ~size payload) ~dst
  in

  (* Reliable channel (opt-in via [reliable = true], DESIGN.md §3.17): every
     remote protocol send is wrapped in a sequence-numbered [Rc_frame]; the
     receiver acks and deduplicates; the sender retransmits unacked frames
     with exponential backoff and deterministic jitter until [retrans_max],
     then gives up.  With the flag off, [send_user] {e is} [send_from] — the
     legacy send path, closure-identical. *)
  let rc_header_bytes = 16 in
  let rc_arm_retransmit src ~dst ~seq ~attempt =
    incr timer_counter;
    let id = !timer_counter in
    Dense_set.add pending_timers id;
    note_timer_set id;
    let backoff = config.Config.retrans_backoff ** float_of_int attempt in
    let jitter = Rng.float rc_rng (0.25 *. rc_base_ms) in
    let deadline =
      Time.add_ms (Event_queue.now queue) ((rc_base_ms *. backoff) +. jitter)
    in
    let timer =
      { Timer.id; owner = src; deadline; tag = "rc-retransmit"; payload = Rc_retransmit { dst; seq } }
    in
    Event_queue.schedule queue ~at:deadline (Node_timer timer)
  in
  let send_reliable src ~dst ~tag ~size payload =
    if crashed.(src) then ()
    else if dst = src || dst < 0 || dst >= pn then
      (* Local deliveries cross no wire; nothing to make reliable. *)
      send_from src ~dst ~tag ~size payload
    else begin
      let link = (src, dst) in
      let seq =
        match Hashtbl.find_opt rc_next link with
        | Some r ->
          incr r;
          !r
        | None ->
          Hashtbl.replace rc_next link (ref 0);
          0
      in
      Hashtbl.replace rc_out (src, dst, seq)
        { rc_tag = tag; rc_size = size; rc_inner = payload; rc_attempts = 0 };
      send_from src ~dst ~tag ~size:(size + rc_header_bytes)
        (Rc_frame { seq; tag; size; inner = payload });
      rc_arm_retransmit src ~dst ~seq ~attempt:0
    end
  in
  let send_user = if rc_on then send_reliable else send_from in

  (* Gossip transport: forward a frame from [src] to [fanout] random peers
     (never back to [src] itself). *)
  let gossip_forward src (frame : Message.payload) ~tag ~size ~fanout =
    let chosen = Hashtbl.create 8 in
    let attempts = ref 0 in
    while Hashtbl.length chosen < Stdlib.min fanout (pn - 1) && !attempts < 16 * pn do
      incr attempts;
      let peer = Rng.int gossip_rng pn in
      if peer <> src && not (Hashtbl.mem chosen peer) then Hashtbl.replace chosen peer ()
    done;
    Hashtbl.iter (fun peer () -> send_from src ~dst:peer ~tag ~size frame) chosen
  in

  let broadcast_from src ~include_self ~tag ~size payload =
    match config.Config.transport with
    | Config.Direct when not rc_on ->
      (* Physical fan-out: twin halves receive broadcasts independently.
         [include_self = false] excludes only the sending instance — its
         co-twin is another machine on the wire.  All recipients share one
         wire record. *)
      if not crashed.(src) then begin
        let w = wire_from src ~tag ~size payload in
        for dst = 0 to pn - 1 do
          if include_self || dst <> src then send_wire w ~dst
        done
      end
    | Config.Direct ->
      (* Reliable channel: every frame carries its own sequence number. *)
      for dst = 0 to pn - 1 do
        if include_self || dst <> src then send_user src ~dst ~tag ~size payload
      done
    | Config.Gossip { fanout } ->
      if include_self then send_from src ~dst:src ~tag ~size payload;
      incr gossip_counter;
      let gid = !gossip_counter in
      (* The origin has trivially "seen" its own frame. *)
      Hashtbl.replace gossip_seen.(src) (src, gid) ();
      gossip_forward src
        (Gossip_frame { origin = src; gid; tag; size; inner = payload })
        ~tag ~size ~fanout
  in

  let leader_schedule =
    match twins with
    | Some tw when tw.Attack.Twins_schedule.leaders <> [] ->
      Some (Array.of_list tw.Attack.Twins_schedule.leaders)
    | Some _ | None -> None
  in
  (* [p] is the physical slot; the protocol instance inside it identifies as
     the LOGICAL [node_id] — a twin half sends, votes and leads under its
     co-twin's identity.  Bookkeeping (RNG, decisions, timers, trace rows)
     stays per-physical so the two halves remain distinguishable below the
     protocol boundary. *)
  let make_ctx p =
    let node_id = to_logical p in
    {
      Protocols.Context.node_id;
      n;
      f;
      lambda_ms = config.lambda_ms;
      seed = config.seed;
      input = Config.input_for config node_id;
      naive_reset = config.Config.naive_reset;
      rng = node_rngs.(p);
      now = (fun () -> Event_queue.now queue);
      send_raw =
        (match twins with
        | None ->
          (* Without twins the logical and physical id spaces coincide;
             skip the per-send singleton list [instances] would build. *)
          fun ~dst ~tag ~size payload -> send_user p ~dst ~tag ~size payload
        | Some _ ->
          (* The protocol addresses a logical identity; a twinned destination
             is two machines, each owed its own copy. *)
          fun ~dst ~tag ~size payload ->
            List.iter (fun pdst -> send_user p ~dst:pdst ~tag ~size payload) (instances dst));
      broadcast_raw =
        (fun ~include_self ~tag ~size payload ->
          broadcast_from p ~include_self ~tag ~size payload);
      set_timer =
        (fun ~delay_ms ~tag payload ->
          incr timer_counter;
          let id = !timer_counter in
          Dense_set.add pending_timers id;
          note_timer_set id;
          (* Stamp the arming incarnation so an alarm set before a restart
             cannot fire into the fresh node. *)
          if has_restarts then Hashtbl.replace timer_epoch id incarnation.(p);
          let deadline = Time.add_ms (Event_queue.now queue) (Float.max 0. delay_ms) in
          let timer = { Timer.id; owner = p; deadline; tag; payload } in
          Event_queue.schedule queue ~at:deadline (Node_timer timer);
          id);
      cancel_timer =
        (fun id -> if Dense_set.mem pending_timers id then Dense_set.add cancelled id);
      decide =
        (fun value ->
          let at_ms = Event_queue.now_ms queue in
          let index = decision_counts.(p) in
          decision_counts.(p) <- index + 1;
          decisions.(p) := value :: !(decisions.(p));
          incr c_decisions;
          (match tracer with
          | Some tr ->
            Obs.Tracer.instant tr ~name:"decide" ~cat:"protocol" ~node:p
              ~ts_us:(at_ms *. 1000.)
              ~args:[ ("index", Obs.Tracer.Int index); ("value", Obs.Tracer.Str value) ]
              ()
          | None -> ());
          record Trace.Decide ~node:p ~peer:(-1) ~tag:value ~detail:"";
          Invariant.on_decide monitor ~node:p ~index ~value ~at_ms;
          (match workload with
          | Some w -> w.on_commit ~node:p ~index ~value ~at_ms
          | None -> ());
          if counted p then last_progress := Float.max !last_progress at_ms;
          check_target ());
      probe =
        (match tracer with
        | None -> fun ~tag:_ ~detail:_ -> ()
        | Some tr ->
          fun ~tag ~detail ->
            Obs.Tracer.instant tr ~name:tag ~cat:"protocol" ~node:p ~ts_us:(us_now ())
              ~args:(if detail = "" then [] else [ ("detail", Obs.Tracer.Str detail) ])
              ());
      leader_schedule;
      request_proposal =
        (match workload with
        | None ->
          (* No workload: the continuation runs immediately with the
             protocol's own default — the pre-workload behavior. *)
          fun ~slot:_ ~width:_ ~default k -> ignore (k default : bool)
        | Some w ->
          fun ~slot ~width ~default k -> w.on_request_proposal ~node:p ~slot ~width ~default k);
      pipeline_depth = config.Config.pipeline;
      durable = has_restarts;
      persist =
        (fun ~key value ->
          Hashtbl.replace wal.(p) key value;
          if config.Config.wal_ms > 0. then
            ignore
              (Cost_model.charge cpus.(p) ~now_ms:(Event_queue.now_ms queue)
                 ~cost_ms:config.Config.wal_ms
                : float));
      recall = (fun ~key -> Hashtbl.find_opt wal.(p) key);
      on_caught_up =
        (fun () ->
          if awaiting_catchup.(p) then begin
            awaiting_catchup.(p) <- false;
            let dur = Event_queue.now_ms queue -. restart_at.(p) in
            Obs.Metrics.observe_h h_catchup dur;
            (match tracer with
            | Some tr ->
              Obs.Tracer.instant tr ~name:"caught-up" ~cat:"recovery" ~node:p ~ts_us:(us_now ())
                ~args:[ ("ms", Obs.Tracer.Float dur) ]
                ()
            | None -> ());
            Simlog.info "node %d caught up %.1f ms after restart" p dur
          end);
    }
  in

  let ctxs = Array.init pn make_ctx in
  let nodes = Array.mapi (fun p ctx -> if crashed.(p) then None else Some (P.create ctx)) ctxs in

  attacker.Attack.Attacker.on_start attacker_env;
  (* The workload initializes before the nodes start: a leader's first
     proposal request must already find the harness listening. *)
  (match workload with
  | None -> ()
  | Some w ->
    w.on_workload_start
      {
        wl_now_ms = (fun () -> Event_queue.now_ms queue);
        wl_schedule =
          (fun ~delay_ms f ->
            incr timer_counter;
            let id = !timer_counter in
            Dense_set.add pending_timers id;
            note_timer_set id;
            let deadline = Time.add_ms (Event_queue.now queue) (Float.max 0. delay_ms) in
            let timer =
              { Timer.id; owner = Timer.attacker_owner; deadline; tag = "workload"; payload = Workload_fire f }
            in
            Event_queue.schedule queue ~at:deadline (Attacker_timer timer));
      });
  Array.iteri (fun i node -> match node with Some nd -> P.on_start nd ctxs.(i) | None -> ()) nodes;

  (* View-change accounting: compare a node's view after each of its
     handlers.  Views derive from simulated execution only, so both the
     counter and the instants are replication-deterministic.  Gated on
     [telemetry_on] — the disabled path must not even call [P.view]. *)
  let last_views =
    if telemetry_on then Array.map (function Some nd -> P.view nd | None -> -1) nodes
    else [||]
  in
  let note_view node_id =
    match nodes.(node_id) with
    | Some nd ->
      let v = P.view nd in
      if v <> last_views.(node_id) then begin
        last_views.(node_id) <- v;
        incr c_view_changes;
        match tracer with
        | Some tr ->
          Obs.Tracer.instant tr ~name:"view-change" ~cat:"protocol" ~node:node_id
            ~ts_us:(us_now ())
            ~args:[ ("view", Obs.Tracer.Int v) ]
            ()
        | None -> ()
      end
    | None -> ()
  in

  (* Periodic view sampling for the Fig. 9 analysis. *)
  (match config.view_sample_ms with
  | None -> ()
  | Some period ->
    let timer =
      {
        Timer.id = 0;
        owner = Timer.attacker_owner;
        deadline = Time.of_ms period;
        tag = "sample-views";
        payload = Sample_views;
      }
    in
    Event_queue.schedule queue ~at:(Time.of_ms period) (Attacker_timer timer));

  let sample_views () =
    let views =
      Array.mapi (fun i node -> match node with Some nd when not crashed.(i) -> P.view nd | _ -> -1) nodes
    in
    view_samples := (Event_queue.now_ms queue, views) :: !view_samples
  in

  (* [dispatch w ~id ~dst] delivers wire [w] to physical replica [dst]
     under message id [id].  Unwrapping a gossip or reliable frame makes a
     fresh wire for the inner payload and dispatches again. *)
  let rec dispatch (w : wire) ~id ~dst =
    if dst >= 0 && dst < pn then
      match w.w_payload with
      | Gossip_frame { origin; gid; tag; size; inner } ->
        (* First sight: unwrap for the protocol and keep the epidemic going;
           duplicates die here (their hop still counted as traffic). *)
        if not (Hashtbl.mem gossip_seen.(dst) (origin, gid)) then begin
          Hashtbl.replace gossip_seen.(dst) (origin, gid) ();
          (match config.Config.transport with
          | Config.Gossip { fanout } when not crashed.(dst) ->
            gossip_forward dst w.w_payload ~tag ~size ~fanout
          | Config.Gossip _ | Config.Direct -> ());
          incr msg_counter;
          dispatch { w with w_src = origin; w_tag = tag; w_size = size; w_payload = inner }
            ~id:!msg_counter ~dst
        end
      | Rc_frame { seq; tag; size; inner } when nodes.(dst) <> None ->
        let src = w.w_src in
        (* Ack unconditionally, duplicates included: a duplicate frame
           usually means the previous ack was lost on the way back. *)
        send_from dst ~dst:src ~tag:"rc-ack" ~size:rc_header_bytes (Rc_ack { seq });
        if Hashtbl.mem rc_seen (src, dst, seq) then incr c_dup_dropped
        else begin
          Hashtbl.replace rc_seen (src, dst, seq) ();
          incr msg_counter;
          dispatch { w with w_tag = tag; w_size = size; w_payload = inner } ~id:!msg_counter ~dst
        end
      | Rc_ack { seq } ->
        (* The channel key is (sender, receiver): the acked sender is this
           message's destination. *)
        Hashtbl.remove rc_out (dst, w.w_src, seq)
      | _ -> (
        match nodes.(dst) with
        | Some node ->
          incr c_delivered;
          (* Same guard as the Send site: don't render the payload when the
             row is going nowhere. *)
          if trace <> None then
            record Trace.Deliver ~node:dst ~peer:w.w_src ~tag:w.w_tag
              ~detail:(Message.payload_to_string w.w_payload);
          (* At the protocol boundary a message carries logical endpoints:
             a twin half's traffic is indistinguishable from its
             co-twin's — that is the entire attack surface.  Traces and
             replay stay keyed by physical link. *)
          let msg =
            Message.make ~id ~src:(to_logical w.w_src) ~dst:(to_logical dst) ~sent_at:w.w_sent_at
              ~tag:w.w_tag ~size:w.w_size w.w_payload
          in
          msg.Message.delay_ms <- Time.diff_ms (Event_queue.now queue) w.w_sent_at;
          P.on_message node ctxs.(dst) msg;
          if telemetry_on then note_view dst
        | None -> ())
  in
  let handle = function
    | Deliver (w, key) ->
      let dst = key land dst_mask in
      if costs.Cost_model.verify_ms > 0. && dst < pn && w.w_src <> dst then begin
        (* The receiver's CPU must verify the message before the protocol
           sees it; contention shows up as extra queueing delay. *)
        let now = Event_queue.now_ms queue in
        let finish =
          Cost_model.charge cpus.(dst) ~now_ms:now ~cost_ms:costs.Cost_model.verify_ms
        in
        Event_queue.schedule queue ~at:(Time.of_ms finish) (Deliver_verified (w, key))
      end
      else dispatch w ~id:(key lsr dst_bits) ~dst
    | Deliver_verified (w, key) -> dispatch w ~id:(key lsr dst_bits) ~dst:(key land dst_mask)
    | Node_timer timer ->
      let id = timer.Timer.id in
      let owner = timer.Timer.owner in
      let now_ms = Event_queue.now_ms queue in
      if
        (not (Dense_set.mem cancelled id))
        && Attack.Fault_schedule.crashed_at chaos ~node:owner ~at_ms:now_ms
      then begin
        (* Crash-recovery semantics: a down node's timer is deferred to
           its restart instant (its timeout fires "on reboot"), or lost
           with the node if it never comes back. *)
        match Attack.Fault_schedule.next_recovery_after chaos ~node:owner ~at_ms:now_ms with
        | Some recover_ms ->
          (* Deferred, not consumed: the id stays pending and cancellable. *)
          let deadline = Time.of_ms recover_ms in
          Event_queue.schedule queue ~at:deadline (Node_timer { timer with Timer.deadline })
        | None -> Dense_set.remove pending_timers id
      end
      else if consume_timer id then (
        match timer.Timer.payload with
        | Rc_retransmit { dst; seq } -> (
          (* Controller-owned alarm: never reaches [P.on_timer], and exempt
             from the incarnation check — the channel survives restarts. *)
          match Hashtbl.find_opt rc_out (owner, dst, seq) with
          | None -> () (* acked in the meantime; the channel is quiet *)
          | Some frame ->
            if frame.rc_attempts >= config.Config.retrans_max then begin
              (* Retry budget exhausted: the channel declares the peer
                 unreachable and abandons the frame. *)
              Hashtbl.remove rc_out (owner, dst, seq);
              record Trace.Drop ~node:owner ~peer:dst ~tag:frame.rc_tag ~detail:"rc-give-up"
            end
            else begin
              frame.rc_attempts <- frame.rc_attempts + 1;
              incr c_retrans;
              note_timer_fired timer;
              send_from owner ~dst ~tag:frame.rc_tag ~size:(frame.rc_size + rc_header_bytes)
                (Rc_frame { seq; tag = frame.rc_tag; size = frame.rc_size; inner = frame.rc_inner });
              rc_arm_retransmit owner ~dst ~seq ~attempt:frame.rc_attempts
            end)
        | _ ->
          let stale =
            has_restarts
            &&
            match Hashtbl.find_opt timer_epoch id with
            | Some epoch ->
              Hashtbl.remove timer_epoch id;
              epoch <> incarnation.(owner)
            | None -> false
          in
          if stale then
            (* Armed by a previous incarnation of a restarted node: the
               volatile state it referred to no longer exists. *)
            note_timer_cancelled timer
          else (
            match nodes.(owner) with
            | Some node ->
              note_timer_fired timer;
              record Trace.Timer_fired ~node:owner ~peer:(-1) ~tag:timer.Timer.tag ~detail:"";
              P.on_timer node ctxs.(owner) timer;
              if telemetry_on then note_view owner
            | None -> ()))
      else note_timer_cancelled timer
    | Attacker_timer timer -> (
      match timer.Timer.payload with
      | Sample_views ->
        sample_views ();
        let next = Time.add_ms timer.Timer.deadline (Option.get config.view_sample_ms) in
        let timer = { timer with Timer.deadline = next } in
        Event_queue.schedule queue ~at:next (Attacker_timer timer)
      | Workload_fire f ->
        if consume_timer timer.Timer.id then begin
          note_timer_fired timer;
          f ()
        end
        else note_timer_cancelled timer
      | Attack.Fault_schedule.Chaos_step (Attack.Fault_schedule.Restart p) when p >= 0 && p < pn
        ->
        if consume_timer timer.Timer.id then begin
          note_timer_fired timer;
          (* Let the chaos attacker log the transition first. *)
          attacker.Attack.Attacker.on_time_event attacker_env timer;
          (* Crash-recovery restart: a fresh node object — all volatile
             state is gone; only the WAL and the reliable-channel state
             survive.  Bumping the incarnation retires every alarm the
             previous life armed (including its crash-deferred ones, which
             land at this very instant but behind this timer). *)
          incarnation.(p) <- incarnation.(p) + 1;
          restart_at.(p) <- Event_queue.now_ms queue;
          awaiting_catchup.(p) <- true;
          (match tracer with
          | Some tr ->
            Obs.Tracer.instant tr ~name:"restart" ~cat:"recovery" ~node:p ~ts_us:(us_now ()) ()
          | None -> ());
          let node = P.create ctxs.(p) in
          nodes.(p) <- Some node;
          P.on_restart node ctxs.(p);
          if telemetry_on then note_view p
        end
        else note_timer_cancelled timer
      | _ ->
        if consume_timer timer.Timer.id then begin
          note_timer_fired timer;
          attacker.Attack.Attacker.on_time_event attacker_env timer
        end
        else note_timer_cancelled timer)
  in

  (* Liveness watchdog: the simulation has stalled when the clock has run
     [k * lambda] past the last decision by a counted node.  While the fault
     plan still has steps ahead (a pending recovery, heal or GST shift) the
     watchdog holds its fire — the scenario is still unfolding and relief
     may be scheduled — and the last step resets the stall clock. *)
  let last_chaos_ms =
    let chaos_last =
      List.fold_left Float.max Float.neg_infinity (Attack.Fault_schedule.step_times chaos)
    in
    (* A twins schedule is a scheduled disturbance like chaos: while its
       partition rounds are still unfolding the watchdog holds its fire, and
       the heal at the end resets the stall clock. *)
    match twins with
    | None -> chaos_last
    | Some tw -> Float.max chaos_last (Attack.Twins_schedule.end_ms tw)
  in
  (* [stall_ms] is an absolute override: it arms the watchdog even when the
     [watchdog] multiplier is unset, and wins over it when both are given —
     lossy runs make legitimate progress gaps longer than any sensible
     multiple of lambda. *)
  let watchdog_ms =
    match config.Config.stall_ms with
    | Some s -> Some s
    | None -> Option.map (fun k -> k *. config.lambda_ms) config.watchdog
  in
  (* Per-phase profiling: each handled event becomes a span at its simulated
     instant carrying the host-time cost of its handler as an argument —
     wall clock stays out of the registry (see the determinism rule). *)
  let ev_label = function
    | Deliver (w, key) | Deliver_verified (w, key) -> ("on_msg:" ^ w.w_tag, key land dst_mask)
    | Node_timer t -> ("on_time:" ^ t.Timer.tag, t.Timer.owner)
    | Attacker_timer t -> ("attacker:" ^ t.Timer.tag, -1)
  in
  let handle_traced ev =
    incr c_events;
    match tracer with
    | None -> handle ev
    | Some tr ->
      let now_ms = Event_queue.now_ms queue in
      let w0 = Unix.gettimeofday () in
      handle ev;
      let wall_dur_us = (Unix.gettimeofday () -. w0) *. 1e6 in
      let name, node = ev_label ev in
      Obs.Tracer.span tr ~name ~cat:"sim" ~node ~ts_us:(now_ms *. 1000.) ~dur_us:0.
        ~args:[ ("wall_dur_us", Obs.Tracer.Float wall_dur_us) ]
        ()
  in
  let rec loop () =
    if !finished <> None then ()
    else if cancel () then
      (* Cooperative wall-clock deadline (DESIGN.md §3.13): abandon the run
         between events.  Runs that complete are never perturbed, so their
         results stay deterministic. *)
      raise Supervisor.Cancelled
    else if Event_queue.popped queue >= config.max_events then outcome := Event_cap
    else if Event_queue.is_empty queue then outcome := Queue_drained
    else
      (* Allocation-free pop: take the event alone and read the advanced
         clock from the unboxed lane, instead of boxing a (time, event)
         option per event. *)
      let ev = Event_queue.next_exn queue in
      begin
        let now_ms = Event_queue.now_ms queue in
        if now_ms > config.max_time_ms then outcome := Timed_out
        else begin
          match watchdog_ms with
          | Some limit
            when now_ms >= last_chaos_ms
                 && now_ms -. Float.max !last_progress last_chaos_ms > limit ->
            Simlog.info "watchdog: no progress since %g ms, aborting at %g ms" !last_progress
              now_ms;
            outcome := Stalled { last_progress_ms = !last_progress }
          | _ ->
            handle_traced ev;
            loop ()
        end
      end
  in
  (* The mirror and ambient probes are domain-local; a cancellation or
     crash escaping the loop must not leave them pointing into this run's
     dead tracer for the next run scheduled on the same domain. *)
  Fun.protect
    ~finally:(fun () ->
      if telemetry_on then begin
        Simlog.set_mirror None;
        Obs.Probe.clear ()
      end)
    loop;

  let time_ms =
    match !finished with
    | Some at -> at
    | None -> Float.min (Event_queue.now_ms queue) config.max_time_ms
  in
  if telemetry_on then begin
    (match reg with
    | Some r ->
      Obs.Metrics.set_gauge r "sim.time_ms" time_ms;
      Obs.Metrics.set_gauge r "queue.pending_end" (float_of_int (Event_queue.pending queue));
      if twins <> None then Obs.Metrics.set_gauge r "twins.instances" (float_of_int (pn - n))
    | None -> ())
  end;
  (* The safety sweep runs over physical slots ([counted]/[aligned] are
     physical predicates); the published decision table carries logical ids,
     so a twin's two halves appear as two rows under one identity. *)
  let decisions_phys = List.init pn (fun p -> (p, List.rev !(decisions.(p)))) in
  let decisions_list = List.map (fun (p, values) -> (to_logical p, values)) decisions_phys in
  let violations = Invariant.violations monitor in
  (* The online agreement monitor subsumes the post-hoc sweep; keep the
     sweep as a final belt-and-braces pass over the complete sequences. *)
  let safety_violation =
    match Invariant.first_violation monitor ~monitor:"agreement" with
    | Some v -> Some v.Invariant.detail
    | None -> check_safety ~counted:aligned decisions_phys
  in
  let stats = Network.stats network in
  {
    config;
    outcome = !outcome;
    time_ms;
    messages_sent = stats.Network.sent;
    bytes_sent = stats.Network.bytes;
    messages_dropped = !dropped;
    events_processed = Event_queue.popped queue;
    decisions = decisions_list;
    safety_ok = safety_violation = None;
    safety_violation;
    violations;
    corrupted = List.sort compare !corrupted_order;
    per_decision_latency_ms = time_ms /. float_of_int config.decisions_target;
    per_decision_messages =
      float_of_int stats.Network.sent /. float_of_int config.decisions_target;
    final_views =
      Array.mapi
        (fun i node -> match node with Some nd when not crashed.(i) -> P.view nd | _ -> -1)
        nodes;
    view_samples = List.rev !view_samples;
    trace;
    metrics = reg;
    spans = tracer;
  }

let throughput r =
  if r.time_ms <= 0. then 0.
  else float_of_int r.config.Config.decisions_target /. (r.time_ms /. 1000.)

let wall_clock_of_run config =
  let start = Unix.gettimeofday () in
  let result = run config in
  (Unix.gettimeofday () -. start, result)
