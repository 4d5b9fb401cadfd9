(** Instruction-cache simulator.

    Code growth is the price of replication (Section 7.4): more executable
    copies mean more I-cache misses.  The engine reports every executed code
    range through [fetch]; the cache counts line misses, which the pipeline
    model converts into cycles.  A configuration with [size_bytes = 0]
    disables the cache (no misses), modelling an infinite I-cache. *)

type config = {
  size_bytes : int;  (** total capacity; [0] = infinite (never misses) *)
  line_bytes : int;  (** line size, a power of two *)
  associativity : int;  (** ways per set *)
}

val infinite : config

val make_config :
  size_bytes:int -> line_bytes:int -> associativity:int -> config
(** Validates that the geometry divides evenly. *)

val descriptor : config -> string
(** Canonical fingerprint ["icache(size,line,assoc)"] of the geometry.
    Distinct configurations produce distinct strings, so the string is a
    safe key for memo tables and store fingerprints; stable across runs
    (store fingerprints embed it). *)

type t

(** Validates the geometry like {!make_config} (raising
    [Invalid_argument]), so configurations built as literal records are
    checked too. *)
val create : config -> t
val config : t -> config

val create_bank : config list -> (string * t) list
(** Fresh caches for the requested geometries, deduplicated by
    {!descriptor} in first-occurrence order -- the construction step of a
    banked replay, which drives all of them over one fetch stream.
    Geometries whose {!create} raises are dropped: the bank simulates the
    valid ones, and the per-cell path re-raises the error with cell context
    when the invalid geometry is actually used. *)

val fetch : t -> addr:int -> bytes:int -> hits:int ref -> misses:int ref -> unit
(** Touch every line overlapping [addr, addr+bytes); adds the line hit and
    miss counts into the given accumulators.  A fetch of [bytes <= 0]
    touches the one line holding [addr].  Every counted line access --
    including fast-path hits on the internally memoized last line -- advances
    the LRU clock and refreshes that line's recency stamp. *)

val fetch_block :
  t -> Event_block.fetch -> hits:int ref -> misses:int ref -> unit
(** {!fetch} over every event of the block, in order, in one loop that
    allocates nothing per event.  The accumulators, the LRU clock and the
    cache contents end exactly as [fetch] applied event by event would
    leave them. *)

val clock : t -> int
(** Number of line accesses applied to the LRU recency clock so far.  For a
    finite cache this equals the total hits plus misses reported by [fetch];
    the invariant is what keeps hot lines from going stale in the eviction
    order, and what tests use to pin the memoized fast path to the memo-free
    reference behaviour.  Always [0] for the infinite cache. *)

val resident : t -> line:int -> bool
(** Whether the given line index currently occupies a way (always [true] for
    the infinite cache).  Exposed for tests and cache-content tooling. *)

val set_observer : t -> (line:int -> set:int -> evicted:int -> unit) option -> unit
(** Introspection hook, called once per line miss with the missing line,
    its set, and the line tag the allocation displaced ([-1] when the way
    was empty).  The infinite cache never misses, so it never calls the
    observer.  Absent (the default), the hook costs one match on the miss
    path and can never change a decision. *)

val reset : t -> unit
