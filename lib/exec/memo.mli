(** Content-addressed, bounded, thread-safe memo cache.

    Entries are keyed by the {e full content string} the caller
    serializes (for the count cache: the backend and the entire
    CNF).  Internally keys are addressed by a short digest, but the
    full key is stored and compared on lookup, so a digest collision
    degrades to a miss — never to a wrong value ("hash-collision
    safety"; the test suite forces collisions through [hash]).

    Eviction is FIFO over insertion order, bounded by [capacity].

    {b Thread safety.}  All operations are serialized by an internal
    mutex.  {!find_or_add} deliberately computes the value {e outside}
    the lock: two domains racing on the same absent key may both
    compute it (the first insert wins); for the deterministic counter
    workloads this wastes at most one duplicate count and never
    changes results.

    {b Persistent tier.}  An optional {!backing} store sits behind the
    memory tier: {!find} consults it on a memory miss (outside the
    lock) and {e promotes} a backing hit into memory, counting it as a
    hit — "miss" means {e had to be recomputed}, which is the contract
    restart-replay checks rely on; {!add} writes through.  Eviction
    never touches the backing store (it is the durable, append-only
    tier — see {!Diskcache}).

    {b Telemetry.}  Hits, misses and evictions are always tracked in
    the cache itself ({!stats}) and mirrored to [Mcml_obs] counters
    [<name>.hits] / [<name>.misses] / [<name>.evictions] /
    [<name>.disk_hits] (backing-tier hits) when a sink is installed;
    {!find} also feeds the [<name>.lookup_ms] latency histogram (the
    cost includes hashing the full key). *)

type 'a t

type 'a backing = {
  load : string -> 'a option;  (** [None] = absent (not "cached absent") *)
  store : string -> 'a -> unit;
      (** must tolerate re-stores of an existing key (no-op) *)
}
(** A persistent tier, already serialized for the caller's ['a] —
    {!Mcml_counting.Counter.cache_create} wires this to
    {!Diskcache}. *)

type stats = {
  hits : int;  (** memory- or backing-tier hits *)
  misses : int;  (** absent from both tiers *)
  evictions : int;
  size : int;
  backing_hits : int;  (** the subset of [hits] served by the backing tier *)
}

val create :
  ?capacity:int ->
  ?hash:(string -> string) ->
  ?backing:'a backing ->
  name:string ->
  unit ->
  'a t
(** [capacity] defaults to 4096 entries.  [hash] maps a full key to
    its short address and defaults to [Digest.string] (MD5); it is
    injectable only so tests can force collisions. *)

val find : ?accept:('a -> bool) -> 'a t -> key:string -> 'a option
(** [accept] (default: every entry) decides whether a stored entry
    answers this lookup; an entry it rejects is returned, and counted,
    as a miss. *)

val add : ?replace:('a -> bool) -> 'a t -> key:string -> 'a -> unit
(** First insert wins: adding an existing key is a no-op, unless
    [replace] (default: never) holds for the entry already stored; the
    new value then overwrites it in place, keeping its eviction slot,
    and is written through to the backing store. *)

val find_or_add : 'a t -> key:string -> (unit -> 'a) -> 'a
(** Lookup; on a miss, compute (outside the lock) and insert. *)

val stats : 'a t -> stats
