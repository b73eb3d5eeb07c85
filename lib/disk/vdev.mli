(** A first-class block-device interface.

    Everything above the device layer ({!Lfs_core}, {!Lfs_ffs}, the
    benchmarks) programs against this record of operations instead of
    the concrete {!Disk} simulator, so devices compose: a file system
    can run over a plain disk, a RAID-0 stripe ({!Vdev_stripe}), a
    block cache ({!Vdev_cache}), a tracing shim ({!Vdev_trace}), or any
    stack of them.

    IO has two faces.  The synchronous [read_blocks]/[write_blocks]/
    [zero_blocks] are thin submit-then-complete wrappers: in the default
    [Direct] mode every transfer is serviced at submit time, so existing
    call sites behave exactly as before.  The tagged
    [submit_read]/[submit_write] expose the time plane: each leaf
    transfer takes a tag on its device's {!Io_queue}, a C-LOOK elevator
    orders outstanding requests, and tickets resolve at the modelled
    completion time.  Switching a stack to [Queued] ({!set_mode}) makes
    the synchronous wrappers submit without waiting, so callers overlap
    transfers and settle at barriers ({!drain}, {!await}).

    Crash plumbing arms a torn-write power cut after which every IO
    raises {!Crashed} until [reboot]; countdowns are consumed at submit
    time in submission order, independent of queueing. *)

type mode = Io_queue.mode = Direct | Queued of (unit -> float)

type t = {
  name : string;  (** for traces and error messages, e.g. ["disk"], ["stripe(4)"] *)
  block_size : int;
  nblocks : int;
  read_blocks : int -> int -> bytes;
      (** [read_blocks addr n]: [n] contiguous blocks starting at [addr].
          Like [submit_read], the buffer belongs to the caller. *)
  write_blocks : int -> bytes -> unit;
      (** [write_blocks addr b]: [Bytes.length b / block_size] contiguous
          blocks; length must be a positive multiple of [block_size]. *)
  zero_blocks : int -> int -> unit;
      (** Write zeros: charged and crash-checked like [write_blocks]. *)
  submit_read : ?now:float -> int -> int -> Io_queue.ticket * bytes;
      (** Tagged read: data is produced at submit time, the ticket
          resolves at the modelled completion.  The returned buffer
          belongs to the caller, who may mutate or keep it: no layer
          retains it or hands it out again, so a layer may pass its
          lower device's buffer up unchanged. *)
  submit_write : ?now:float -> int -> bytes -> Io_queue.ticket;
      (** Tagged write: contents (and any armed crash) land at submit
          time, the ticket resolves at the modelled completion. *)
  drain : unit -> float;
      (** Barrier: service every outstanding request on every leaf;
          returns the latest completion time. *)
  pump : now:float -> (int * float) list;
      (** Event-driven servicing; see {!Io_queue.pump}.  Composites
          concatenate their children's pumps in child order. *)
  outstanding_in : lo:int -> hi:int -> int;
      (** Not-yet-serviced leaf requests with tag in [\[lo, hi)]. *)
  set_mode : mode -> unit;  (** Applied to every leaf device of the stack. *)
  get_mode : unit -> mode;
  stats : unit -> Io_stats.t;
      (** Cumulative statistics of the device (a live view for single
          devices; an aggregated snapshot for composites). *)
  plan_crash : after_blocks:int -> unit;
  cancel_crash : unit -> unit;
  is_crashed : unit -> bool;
  reboot : unit -> unit;
}

exception Crashed
(** Equal to {!Disk.Crashed}: raised by any layer once a planned crash
    has triggered, whichever device in the stack it was armed on. *)

val of_disk : Disk.t -> t
(** The canonical implementation: expose a simulated {!Disk} through the
    interface.  All operations delegate 1:1. *)

(** Convenience wrappers (derived from the record's fields). *)

val block_size : t -> int
val nblocks : t -> int

val read_block : t -> int -> bytes
(** [read_block v addr] = [v.read_blocks addr 1]. *)

val write_block : t -> int -> bytes -> unit
(** Writes exactly one block; raises [Invalid_argument] on a length
    mismatch. *)

val read_blocks : t -> int -> int -> bytes
(** Validates the result length against [n * block_size] so a
    misbehaving compositor fails loudly at the boundary. *)

val write_blocks : t -> int -> bytes -> unit
val zero_blocks : t -> int -> int -> unit

val submit_read : ?now:float -> t -> int -> int -> Io_queue.ticket * bytes
(** Validated like {!read_blocks}. *)

val submit_write : ?now:float -> t -> int -> bytes -> Io_queue.ticket

val await : Io_queue.ticket -> float
(** Re-export of {!Io_queue.await}: force service of everything the
    ticket covers and return an upper bound on its completion time. *)

val drain : t -> float
val pump : t -> now:float -> (int * float) list
val outstanding_in : t -> lo:int -> hi:int -> int
val set_mode : t -> mode -> unit
val get_mode : t -> mode

val next_tag : unit -> int
(** Re-export of {!Io_queue.next_tag}: bracket a block of work with two
    reads to learn the tag range of every leaf transfer it submitted. *)

val stats : t -> Io_stats.t
val plan_crash : t -> after_blocks:int -> unit
val cancel_crash : t -> unit
val is_crashed : t -> bool
val reboot : t -> unit

val register_metrics : ?prefix:string -> Lfs_obs.Metrics.t -> t -> unit
(** Register callback gauges [<prefix>.reads], [.writes], [.blocks_read],
    [.blocks_written], [.seeks], [.busy_s], [.queue_wait_s] and
    [.max_queue_depth], all backed by the live {!stats} of this layer.
    [prefix] defaults to ["vdev." ^ name].  Works on any layer of a
    stack — register each wrapper to see per-layer IO in one
    {!Lfs_obs.Metrics} registry. *)
