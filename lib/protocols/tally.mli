(** Duplicate-safe vote counting.

    Every threshold rule in the protocols ("on receiving [2f+1] prepares for
    digest [d] …") needs a map from a vote key to the {e set} of distinct
    voters, because a faulty or retransmitting node must not be counted
    twice.  ['k] is the vote key — typically a [(view, phase, value)]
    tuple.  Voters are node ids: non-negative, and a key's voter set costs
    one bit per id up to the largest voter seen. *)

type 'k t

val create : unit -> 'k t

val add : 'k t -> 'k -> voter:int -> int
(** [add t key ~voter] records the vote and returns the new number of
    distinct voters for [key].  Re-votes do not change the count.
    @raise Invalid_argument if [voter] is negative. *)

val count : 'k t -> 'k -> int
(** Number of distinct voters recorded for [key]; 0 if none. *)

val has_voted : 'k t -> 'k -> voter:int -> bool

val voters : 'k t -> 'k -> int list
(** Ascending list of distinct voters for [key]. *)

val keys : 'k t -> 'k list
(** All keys with at least one vote, in unspecified order. *)

val max_count : 'k t -> ('k * int) option
(** The key with the most distinct voters (ties broken arbitrarily but
    deterministically for a given insertion history). *)

val clear : 'k t -> unit
