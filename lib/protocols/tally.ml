(* Each key's voter set is a bitset indexed by node id plus a running count,
   so a vote is a shift, a mask and an increment and allocates nothing
   (DESIGN.md §3.15). *)
type entry = { voters : Bftsim_sim.Dense_set.t; mutable count : int }

type 'k t = {
  table : ('k, entry) Hashtbl.t;
  mutable order : 'k list;  (** Keys in first-seen order, newest first. *)
}

let create () = { table = Hashtbl.create 32; order = [] }

(* [Hashtbl.find] with a handler, not [find_opt]: no option per vote. *)
let entry t key =
  match Hashtbl.find t.table key with
  | e -> e
  | exception Not_found ->
    let e = { voters = Bftsim_sim.Dense_set.create (); count = 0 } in
    Hashtbl.replace t.table key e;
    t.order <- key :: t.order;
    e

let add t key ~voter =
  let e = entry t key in
  if not (Bftsim_sim.Dense_set.mem e.voters voter) then begin
    Bftsim_sim.Dense_set.add e.voters voter;
    e.count <- e.count + 1
  end;
  e.count

let count t key = match Hashtbl.find t.table key with e -> e.count | exception Not_found -> 0

let has_voted t key ~voter =
  match Hashtbl.find t.table key with
  | e -> Bftsim_sim.Dense_set.mem e.voters voter
  | exception Not_found -> false

let voters t key =
  match Hashtbl.find t.table key with
  | e -> Bftsim_sim.Dense_set.elements e.voters
  | exception Not_found -> []

let keys t = t.order

let max_count t =
  (* Walk keys in first-seen order so ties resolve deterministically. *)
  List.fold_left
    (fun best key ->
      let c = count t key in
      match best with Some (_, bc) when bc >= c -> best | _ -> Some (key, c))
    None (List.rev t.order)

let clear t =
  Hashtbl.reset t.table;
  t.order <- []
