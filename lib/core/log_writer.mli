(** The log appender.

    Buffers blocks destined for the current segment and writes each batch
    as a single large sequential transfer preceded by its summary block —
    this is where "many small synchronous random writes become large
    asynchronous sequential transfers".  Batches are bounded by the
    summary's entry capacity and by the end of the segment (a
    partial-segment write, Section 3.2).

    The writer drives N independent {e heads} (Section 3.5's hot/cold
    segregation): each head owns its current segment, open batch, and
    summary chain, while all heads share one global sequence counter and
    one clean-segment allocator.  Head 0 is the hot head for fresh
    foreground data; higher heads receive cleaner and demotion survivors
    binned by age.  With one head the writer behaves exactly as the
    classic single-threaded log.

    Addresses are assigned at {!append} time so callers can update their
    maps immediately; payloads may be supplied lazily and are rendered at
    batch-write time (the inode map and segment usage table exploit this:
    their blocks self-describe accounting that the append itself
    changes).

    Every head always holds a reservation for its next segment
    ({!reserved_segment}); every summary records it, which is how
    roll-forward follows each head's chain across segment boundaries. *)

type payload =
  | Bytes of bytes  (** exactly one block *)
  | Slice of bytes * int
      (** [Slice (buf, off)]: the block at byte offset [off] of a larger
          buffer (a segment or run image), copied only when the batch is
          assembled; [buf] must not change until then.  A slice that
          does not lie wholly inside [buf] raises [Invalid_argument] at
          batch-write time. *)
  | Lazy of (unit -> bytes)  (** rendered at batch-write time *)

type position = { pos_seg : int; pos_off : int; pos_next : int }
(** One head's place in the log: current segment, next free slot, and the
    reserved next segment.  Recorded per head in every checkpoint. *)

type head_stats = { segments : int; blocks : int; syncs : int }
(** Per-head lifetime counters: segments opened, payload blocks appended,
    and batch writes issued. *)

type t

val create :
  Layout.t ->
  Lfs_disk.Vdev.t ->
  pick_clean:(exclude:int list -> int) ->
  on_append:(Types.block_kind -> seg:int -> mtime:float -> unit) ->
  on_batch:(head:int -> addr:int -> blocks:int -> unit) ->
  heads:position array ->
  seq:int ->
  t
(** [pick_clean ~exclude] must return a clean segment not in [exclude]
    (raising {!Types.Fs_error} when none remains).  [on_append] is called
    for every payload block as it is placed (for usage accounting);
    [on_batch] after each physical batch write with the issuing head, its
    disk address, and total block count including the summary.  [heads]
    gives each head's starting position; segments named there must be
    mutually distinct. *)

val append :
  ?head:int ->
  t ->
  kind:Types.block_kind ->
  ino:Types.ino ->
  blockno:int ->
  version:int ->
  mtime:float ->
  payload ->
  Types.baddr
(** Queue one block for [head]'s chain (default 0, the hot head) and
    return its (final) disk address. *)

val sync : t -> unit
(** Submit every head's buffered batch to disk, each as one tagged
    sequential transfer, in head order.  Under queued device modes the
    writes pipeline ahead of the next {!barrier}; in the default Direct
    mode they complete immediately. *)

val barrier : t -> float
(** Await every batch write not yet confirmed, across all heads (the
    fsync barrier); returns an upper bound on the completion time of the
    latest one, or [neg_infinity] when none was pending. *)

val unflushed_batches : t -> int
(** Batch writes submitted but not yet confirmed by {!barrier}, summed
    over all heads. *)

val nheads : t -> int

val current_segment : ?head:int -> t -> int
val current_offset : ?head:int -> t -> int
(** Next free slot in the head's current segment ({b including} queued
    blocks). *)

val reserved_segment : ?head:int -> t -> int

val position : ?head:int -> t -> position
val positions : t -> position array
(** Every head's position, indexed by head. *)

val active_segments : t -> int list
(** Every segment some head is writing into or holds reserved.  Callers
    must exclude these from cleaning, demotion, and reuse. *)

val seq : t -> int
(** Sequence number the next batch (from any head) will carry. *)

val pending_blocks : t -> int
(** Queued payload blocks not yet written, summed over all heads. *)

val head_stats : t -> int -> head_stats

val segment_bytes_remaining : ?head:int -> t -> int
