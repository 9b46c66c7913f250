(** Domain-pool parallel map for independent simulation runs.

    {!Controller.run} is domain-safe (per-run state is confined to the run;
    the only cross-cutting hooks — the {!Bftsim_sim.Simlog} clock and the
    HotStuff+NS pacemaker-reset policy — are domain-local and configuration
    fields respectively, and a run writes no process-global state), so
    independent replications can fan out across a pool of OCaml 5 domains.
    Determinism is preserved: results are keyed by input index and
    reassembled in input order, so aggregation sees the identical sequence
    the sequential path produces. *)

val default_jobs : unit -> int
(** Pool size used when [?jobs] is omitted:
    [Domain.recommended_domain_count ()] (at least 1) — one worker per
    hardware thread, counting the calling domain, which works too —
    overridden by the [BFTSIM_JOBS] environment variable when it parses as a
    positive integer. *)

val tune_gc : unit -> unit
(** Grows the current domain's minor heap to the simulation profile
    (32 MiB) if it is smaller.  Event-loop garbage is short-lived, so a
    large minor heap makes collections rare — and, under a domain pool,
    divides the number of stop-the-world synchronizations by the same
    factor.  Entry points (CLI, bench) call it at startup; {!map} applies
    it to every spawned worker automatically.  Never shrinks a heap the
    user already grew via [OCAMLRUNPARAM]. *)

val map : ?jobs:int -> ?chunk:int -> ?oversubscribe:bool -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] is [List.map f xs] computed by up to [jobs] workers (the
    caller participates as one worker; at most [jobs - 1] are spawned,
    never more than there are chunks, and — because OCaml 5 minor GCs
    synchronize every running domain, making oversubscription strictly
    slower — never more than fill the hardware together with the caller,
    i.e. [Domain.recommended_domain_count () - 1]; pass
    [~oversubscribe:true] to lift that last cap, e.g. to exercise true
    multi-domain interleavings on a small machine).  Spawned workers are
    joined before [map] returns.  Workers claim [chunk]
    consecutive indices at a time from a shared atomic queue; by default
    [chunk] targets ~8 claims per worker (at least 1).  [f] must be
    domain-safe for the elements it receives.  Output order equals input
    order regardless of [jobs], [chunk] and the pool size actually used.
    If any application of [f] raises, the first exception (by completion
    time) is re-raised in the caller after all workers have stopped.
    @raise Invalid_argument if [jobs < 1] or [chunk < 1]. *)

val try_map :
  ?jobs:int ->
  ?chunk:int ->
  ?oversubscribe:bool ->
  ('a -> 'b) ->
  'a list ->
  ('b, exn * Printexc.raw_backtrace) result list
(** {!map} with per-element crash isolation: an application that raises
    becomes [Error (exn, backtrace)] in its slot and every other element
    still runs — the behaviour campaigns need (DESIGN.md §3.13), where
    {!map}'s first-failure short-circuit would discard the whole batch.
    Same ordering and determinism guarantees as {!map}. *)
