(** An LRU buffer cache over single-block reads.

    Models the main-memory file cache of Section 2.1: repeated reads of
    hot metadata blocks (packed inodes, directories, indirect blocks)
    cost no disk time.  Writers must call {!put} (write-through update)
    or {!invalidate} so the cache never returns stale data. *)

type t

val create : capacity:int -> t
(** Capacity in blocks.  A zero capacity disables caching. *)

val read : t -> fetch:(int -> bytes) -> int -> bytes
(** [read t ~fetch addr] returns a copy of the block, from cache when
    possible; on a miss [fetch addr] supplies it from the device below. *)

val read_range :
  t -> block_size:int -> fetch:(int -> int -> bytes) -> int -> int -> bytes
(** [read_range t ~block_size ~fetch addr n] reads [n] consecutive
    blocks, serving each from the cache when present and counting a hit
    or miss per block.  Maximal runs of missing blocks are fetched with a
    single [fetch addr count] call, so a cold segment-sized read still
    costs one device IO; fetched blocks populate the cache (as copies).
    The result belongs to the caller: on a complete miss it is the
    buffer [fetch] returned, otherwise a fresh one. *)

val put : t -> int -> bytes -> unit
(** Record the new contents of a block just written.  The cache takes
    ownership of the buffer and keeps it as the entry without copying:
    the caller must not mutate it afterwards. *)

val invalidate : t -> int -> unit
val invalidate_range : t -> int -> int -> unit

val clear : t -> unit
(** Drop every entry and reset the hit/miss counters: after a clear the
    cache reports statistics for the new, cold epoch only. *)

val hits : t -> int
val misses : t -> int
