(* Allocation-free binary min-heap in parallel lanes.

   The heap state lives in three flat arrays indexed by heap slot: an
   unboxed float lane for priorities, an int lane for insertion sequence
   numbers, and a uniform lane for the payloads.  A push or pop therefore
   moves words between flat arrays instead of allocating and chasing a
   boxed entry record per element — the representation the simulator's
   per-event cost budget rests on (DESIGN.md §3.15).

   The payload lane is created from an immediate filler, so it is always a
   generic (pointer/immediate) array even when ['a] is [float]; payloads of
   float type are stored boxed, which is the only representation the
   polymorphic reads below are correct for.  Vacated slots are overwritten
   with the filler on [pop]/[clear] so the heap never pins popped payloads
   (the space leak the boxed representation had). *)

type 'a t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

(* An immediate stand-in for an empty payload slot.  Guarded by [size]:
   no code path ever reads a slot holding the filler. *)
let filler : unit -> 'a = fun () -> Obj.magic 0

let create ?(initial_capacity = 0) () =
  let cap = Stdlib.max 0 initial_capacity in
  {
    prio = Array.make cap 0.;
    seq = Array.make cap 0;
    vals = Array.make cap (filler ());
    size = 0;
    next_seq = 0;
  }

let length q = q.size

let is_empty q = q.size = 0

(* [before q i j] decides heap order between slots: smaller priority first,
   insertion order on ties.  This is the invariant the whole simulator's
   determinism rests on.  NaN never enters ([push] rejects it), so [=] on
   the priority lane coincides with [Float.equal]. *)
let[@inline] before q i j =
  let pi = Array.unsafe_get q.prio i and pj = Array.unsafe_get q.prio j in
  pi < pj || (pi = pj && Array.unsafe_get q.seq i < Array.unsafe_get q.seq j)

let grow q =
  let cap = Stdlib.max 64 (2 * Array.length q.prio) in
  let prio' = Array.make cap 0. in
  let seq' = Array.make cap 0 in
  let vals' = Array.make cap (filler ()) in
  Array.blit q.prio 0 prio' 0 q.size;
  Array.blit q.seq 0 seq' 0 q.size;
  Array.blit q.vals 0 vals' 0 q.size;
  q.prio <- prio';
  q.seq <- seq';
  q.vals <- vals'

let[@inline never] nan_priority () = invalid_arg "Pqueue.push: NaN priority"

(* Sifting moves a hole instead of swapping pairs: the entry being placed
   is held in locals while the entries it passes shift one level, and it is
   written once at its final slot.  That halves the lane writes per level,
   including the [caml_modify] on the payload lane.  Pop order cannot change,
   because [(priority, seq)] is a strict total order. *)
let[@inline] push q ~priority value =
  if Float.is_nan priority then nan_priority ();
  if q.size = Array.length q.prio then grow q;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let hole = ref q.size in
  q.size <- !hole + 1;
  (* The new entry's seq exceeds every queued seq, so it only passes
     parents with a strictly greater priority. *)
  let rising = ref true in
  while !rising && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let pp = Array.unsafe_get q.prio parent in
    if priority < pp then begin
      Array.unsafe_set q.prio !hole pp;
      Array.unsafe_set q.seq !hole (Array.unsafe_get q.seq parent);
      Array.unsafe_set q.vals !hole (Array.unsafe_get q.vals parent);
      hole := parent
    end
    else rising := false
  done;
  Array.unsafe_set q.prio !hole priority;
  Array.unsafe_set q.seq !hole seq;
  Array.unsafe_set q.vals !hole value

(* Re-seats the entry in slot [last] (just vacated by [size] shrinking to
   [last]) by sifting a hole down from the root. *)
let sift_down_last q last =
  let p = Array.unsafe_get q.prio last and s = Array.unsafe_get q.seq last in
  let v = Array.unsafe_get q.vals last in
  let hole = ref 0 and sinking = ref true in
  while !sinking do
    let left = (2 * !hole) + 1 in
    if left >= last then sinking := false
    else begin
      let right = left + 1 in
      let c = if right < last && before q right left then right else left in
      let pc = Array.unsafe_get q.prio c in
      if pc < p || (pc = p && Array.unsafe_get q.seq c < s) then begin
        Array.unsafe_set q.prio !hole pc;
        Array.unsafe_set q.seq !hole (Array.unsafe_get q.seq c);
        Array.unsafe_set q.vals !hole (Array.unsafe_get q.vals c);
        hole := c
      end
      else sinking := false
    end
  done;
  Array.unsafe_set q.prio !hole p;
  Array.unsafe_set q.seq !hole s;
  Array.unsafe_set q.vals !hole v

let min_priority q =
  if q.size = 0 then invalid_arg "Pqueue.min_priority: empty queue";
  Array.unsafe_get q.prio 0

let pop_exn q =
  let n = q.size - 1 in
  if n < 0 then invalid_arg "Pqueue.pop_exn: empty queue";
  let v = Array.unsafe_get q.vals 0 in
  q.size <- n;
  if n > 0 then sift_down_last q n;
  (* Clear the vacated slot so the heap does not pin the payload. *)
  Array.unsafe_set q.vals n (filler ());
  v

let pop q =
  if q.size = 0 then None
  else begin
    let priority = Array.unsafe_get q.prio 0 in
    let v = pop_exn q in
    Some (priority, v)
  end

let peek q =
  if q.size = 0 then None else Some (Array.unsafe_get q.prio 0, Array.unsafe_get q.vals 0)

let clear q =
  Array.fill q.vals 0 q.size (filler ());
  q.size <- 0

let to_sorted_list q =
  let idx = Array.init q.size Fun.id in
  Array.sort (fun i j -> if before q i j then -1 else 1) idx;
  Array.to_list (Array.map (fun i -> (q.prio.(i), q.vals.(i))) idx)
