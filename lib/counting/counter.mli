(** Unified front end over the model-counting backends.

    The paper's tooling treats the counter as a pluggable component
    (ApproxMC or ProjMC); this module provides the corresponding
    dispatch, timing, and timeout discipline (the paper uses a 5000 s
    timeout; ours defaults lower and is configurable).

    {b Thread safety.}  [count] may be called concurrently from
    several domains: each call builds its own solver/counter state,
    and the optional {!cache} is internally synchronized.  Timing uses
    the monotonic clock ({!Mcml_obs.Obs.monotonic_s}), so budgets are
    immune to wall-clock adjustments. *)

open Mcml_logic

type backend =
  | Exact
      (** exact projected counting by decision-DNNF compilation
          ({!Exact}), filling the paper's ProjMC role *)
  | Approx of Approx.config  (** the ApproxMC stand-in *)
  | Brute  (** exhaustive reference counter (tests, tiny instances) *)

type outcome = {
  count : Bignat.t;
  exact : bool;  (** whether the backend guarantees exactness *)
  time : float;  (** wall-clock seconds *)
}

val name : backend -> string
(** Human-readable backend name, e.g. ["exact(ddnnf)"] — for display;
    not parseable back (the serve protocol uses its own wire names). *)

type cache
(** Content-addressed memo of count outcomes, keyed by the full
    (backend, CNF) content — see {!cache_key}.  A completed count
    answers a lookup under any budget.  A timeout is cached with the
    budget it ran out under and answers only lookups whose budget is
    equal or smaller: re-asking under the same budget would time out
    again, while a larger budget recounts and its outcome replaces the
    timeout.  A cached outcome keeps the {e original} [time] field. *)

val cache_create : ?capacity:int -> ?disk:Mcml_exec.Diskcache.t -> unit -> cache
(** Bounded (FIFO-evicted, default 4096 entries) cache; its hit/miss/
    eviction counters are exported as [exec.count_cache.*] through
    [Mcml_obs].  With [disk], the memo is backed by the persistent
    {!Mcml_exec.Diskcache}: misses consult the disk (a disk hit counts
    as a cache {e hit} and is promoted into memory) and new outcomes
    are written through, so a restarted process answers previously
    counted keys without recounting.  Only completed counts reach the
    disk; timeouts stay in memory.  The caller owns the disk handle
    (and closes it). *)

val cache_stats : cache -> Mcml_exec.Memo.stats

val cache_key : backend:backend -> Cnf.t -> string
(** The full serialized identity of a count query: backend (with all
    Approx parameters, including the seed), [nvars], the projection
    set (an explicit set is distinguished from [None]), and every
    clause literal.  The budget is not part of it.  Exposed for
    tests. *)

val count :
  ?budget:float -> ?cache:cache -> backend:backend -> Cnf.t -> outcome option
(** [count ~backend cnf] runs the chosen counter; [None] on timeout
    ([budget] in seconds, default 5000 like the paper).  With [cache],
    the query key is looked up first (a cached timeout answers only if
    it ran out under at least [budget]) and the computed outcome stored
    after.  While telemetry is enabled, every call feeds the
    per-backend latency histogram [counter.count.<backend>_ms]
    (end-to-end as the caller sees it, cache lookup included). *)

val count_all :
  ?pool:Mcml_exec.Pool.t ->
  ?budget:float ->
  ?cache:cache ->
  backend:backend ->
  Cnf.t list ->
  outcome list option
(** [count_all ~backend cnfs] runs {!count} on every CNF and returns
    the outcomes in input order, or [None] if any count timed out.
    The counts run through {!Mcml_exec.Pool.map_list} when [pool] is
    given and {!List.map} otherwise; a [jobs <= 1] pool is the same
    left-to-right sequence.  After the first timeout no further count
    starts: sequentially, that is every count after it; under a pool,
    every count not yet picked up (counts already running finish). *)
