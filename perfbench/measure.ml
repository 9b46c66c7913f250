(* Clocks, exact allocation counters, order statistics and in-memory spans.
   Nothing here calls into the simulator. *)

(* Monotonic clock, in seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Minor-heap words allocated by every domain so far.  [Gc.minor_words] sees
   only the calling domain, and [Gc.quick_stat] advances a running domain's
   count only at its minor collections; forcing one here makes the calling
   domain's share exact, and domains that already terminated (a joined pool)
   were folded in exactly when they exited.  Call it only while no other
   domain runs. *)
let exact_minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let maximum xs = List.fold_left Float.max neg_infinity xs

(* The highest whole percentile that still has at least ten samples above
   it, with its value: [None] below eleven samples. *)
let high_percentile xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 11 then None
  else
    let p = Float.of_int (100 * (n - 10) / n) in
    let rank = int_of_float (Float.ceil (p /. 100. *. Float.of_int n)) - 1 in
    Some (p, a.(max 0 rank))

(* Time per call over one batch of [reps] calls of [f]. *)
let batch reps f =
  snd
    (time (fun () ->
         for _ = 1 to reps do
           f ()
         done))
  /. Float.of_int reps

(* Calls of [f] per batch, doubling until one batch takes [batch_s]. *)
let calibrate ~batch_s f =
  let rec go reps = if batch reps f *. Float.of_int reps >= batch_s then reps else go (2 * reps) in
  go 1

(* Time per call of [f]: the median of [batches] batches of [batch_s]. *)
let per_call ?(batches = 5) ?(batch_s = 0.002) f =
  let reps = calibrate ~batch_s f in
  median (List.init batches (fun _ -> batch reps f))

(* Host-speed reference.  The 2-core virtual host this benchmark was defined
   on shifts between speed modes up to 1.7x apart, each lasting from seconds
   to minutes, so a run's raw wall times depend on when it ran.  [sample]
   times a fixed toy simulation written with the standard library only, so
   no change to the simulator moves it: an all-to-all vote exchange ordered
   by a [Map] event queue, with [Hashtbl] tallies, that allocates and chases
   pointers the way the simulator does.  It runs under fixed GC parameters,
   whatever the simulator's own tuning, and between full major collections,
   so that it neither sweeps the simulator's garbage nor leaves its own to
   the next round.  Sampled between the rounds, its median is the host's
   speed over the same stretch of time.  Contention
   for the memory hierarchy slows a job with a large working set more than
   one that stays in cache, so a workload picks the size that matches its
   own: [small] keeps its queue of a few thousand messages in cache, and
   [large] holds n^2 = 262,144 messages in flight, like Fig 2 at n=512. *)
module Reference = struct
  type t = {
    nodes : int;
    rounds : int;
    nominal_s : float;
        (** The sample's median on the defining host; it only sets the scale
            of the normalised times. *)
  }

  let small = { nodes = 56; rounds = 32; nominal_s = 0.08 }
  let large = { nodes = 512; rounds = 0; nominal_s = 0.7 }

  module Q = Map.Make (struct
    type t = float * int

    let compare (t, i) (t', i') =
      match Float.compare t t' with 0 -> Int.compare i i' | c -> c
  end)

  (* Every node broadcasts its round; a node that holds [2n/3 + 1] votes for
     its current round moves to the next one.  Returns the deliveries. *)
  let simulate { nodes; rounds; _ } =
    let rng = Random.State.make [| 11 |] in
    let queue = ref Q.empty and seq = ref 0 in
    let votes = Hashtbl.create 4096 in
    let round = Array.make nodes 0 in
    let broadcast t src r =
      for dst = 0 to nodes - 1 do
        incr seq;
        queue := Q.add (t +. 1. +. Random.State.float rng 1., !seq) (src, dst, r) !queue
      done
    in
    for src = 0 to nodes - 1 do
      broadcast 0. src 0
    done;
    let count key = Option.value (Hashtbl.find_opt votes key) ~default:0 in
    let rec advance t dst =
      let r = round.(dst) in
      if r < rounds && count (dst, r) > 2 * nodes / 3 then begin
        round.(dst) <- r + 1;
        Hashtbl.remove votes (dst, r);
        broadcast t dst (r + 1);
        advance t dst
      end
    in
    let delivered = ref 0 in
    while not (Q.is_empty !queue) do
      let ((t, _) as key), (_, dst, r) = Q.min_binding !queue in
      queue := Q.remove key !queue;
      incr delivered;
      if r >= round.(dst) then Hashtbl.replace votes (dst, r) (count (dst, r) + 1);
      if r = round.(dst) then advance t dst
    done;
    !delivered

  (* Seconds for one toy simulation of size [r].  The untimed full major
     collections before and after it keep the simulator's heap and the
     reference's apart. *)
  let sample r =
    let saved = Gc.get () in
    Gc.full_major ();
    Gc.set { saved with Gc.minor_heap_size = 262_144; space_overhead = 120 };
    let delivered, dt = time (fun () -> simulate r) in
    Gc.set saved;
    Gc.full_major ();
    if delivered <> r.nodes * r.nodes * (r.rounds + 1) then
      failwith "Reference.sample: wrong delivery count";
    dt
end

module Spans = struct
  type span = { id : int; name : string; parent : int; run : int; t0 : float; t1 : float }

  type t = { mutable spans : span list; mutable next : int; mutable stack : int list }

  let create () = { spans = []; next = 1; stack = [] }

  (* Records [name] around [f ()]; the enclosing open span is its parent. *)
  let record t ?(run = 0) name f =
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    t.stack <- id :: t.stack;
    let t0 = now () in
    let finish () =
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; parent; run; t0; t1 = now () } :: t.spans
    in
    match f () with
    | x ->
      finish ();
      x
    | exception e ->
      finish ();
      raise e

  let with_span t ?run name f = match t with None -> f () | Some t -> record t ?run name f

  (* Self time per span name: duration minus the time its children cover. *)
  let self_times t =
    let child = Hashtbl.create 64 in
    List.iter
      (fun s ->
        let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0. in
        Hashtbl.replace child s.parent (prev +. (s.t1 -. s.t0)))
      t.spans;
    let self = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let own = s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.id) ~default:0. in
        let prev = Option.value (Hashtbl.find_opt self s.name) ~default:0. in
        Hashtbl.replace self s.name (prev +. own))
      t.spans;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [])

  let write t path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"parent\":%d,\"run\":%d,\"start_s\":%.9f,\"end_s\":%.9f}\n" s.id
          s.name s.parent s.run s.t0 s.t1)
      (List.rev t.spans);
    close_out oc
end
