(** Per-device request queue in the modelled-time domain.

    Splits every IO into two planes.  The {e data plane} executes at
    submit time, in submission order: block contents move, crash
    countdowns tick, caches stay coherent — so torn-write enumeration
    and replay determinism are untouched by scheduling.  The {e time
    plane} is this queue: each submit takes a globally monotonic tag,
    outstanding requests are ordered by a C-LOOK elevator, and the
    device services one request at a time with
    [service start = max(previous completion, submit time)].

    In {!mode} [Direct] (the default for every device) a submit is
    serviced immediately, which reproduces the historical synchronous
    timings exactly; [Queued] defers service to {!await}, {!drain} and
    {!pump}, letting queued requests overlap. *)

type t

type ticket =
  | Done  (** completed at submit time (e.g. a cache hit) *)
  | Tag of t * int  (** one leaf transfer on one queue *)
  | Join of ticket list  (** completes when every member completes *)

type mode =
  | Direct  (** every submit is serviced immediately (synchronous timing) *)
  | Queued of (unit -> float)
      (** submits default their arrival time to the given clock and wait
          in the queue for {!await}/{!drain}/{!pump} *)

val next_tag : unit -> int
(** The tag the next submit (on any queue) will take.  Two reads around
    a block of work bracket every leaf transfer it submitted. *)

val create :
  service:(head:int -> addr:int -> nblocks:int -> float * bool) ->
  stats:Io_stats.t ->
  t
(** [service] returns the modelled duration of one transfer and whether
    it repositioned the head; the queue accumulates [busy_s], [seeks],
    [queue_wait_s] and [max_queue_depth] into [stats]. *)

val submit :
  ?on_commit:(unit -> unit) -> t -> now:float -> addr:int -> nblocks:int -> int
(** Enqueue a request that arrived at [now]; returns its tag.
    [on_commit] runs when the elevator services the request — the hook
    by which a device defers its data plane (payload persistence, crash
    countdowns) to commit order under [Queued] mode.  Exceptions raised
    by the hook (a tripped crash countdown) propagate out of whichever
    call forced the service ({!await}, {!drain} or {!pump}). *)

val await : ticket -> float
(** Force service (in elevator order) of everything the ticket covers.
    Returns an upper bound on its completion time — exact when the
    awaited request was serviced last, the queue horizon otherwise.
    [Done] yields [neg_infinity]. *)

val service_now : t -> int -> unit
(** [Direct]-mode service: commit the tag's request at once (in elevator
    order, like {!await}) and log no completion for it, so {!pump} never
    reports it.  Costs O(1) bookkeeping per IO however long the device
    runs unpumped. *)

val drain : t -> float
(** Service every outstanding request; returns the final horizon.  The
    sync-barrier primitive. *)

val pump : t -> now:float -> (int * float) list
(** If the device is idle at [now], commit the elevator's next pick.
    Returns every [(tag, finish)] committed since the last pump, in
    commit order, so the caller can schedule completion events.
    Commits made by {!service_now} are not reported. *)

val outstanding_in : t -> lo:int -> hi:int -> int
(** Number of not-yet-serviced requests with tag in [\[lo, hi)]. *)

val head : t -> int
val set_head : t -> int -> unit
val horizon : t -> float
(** Completion time of the most recently serviced request. *)

val set_horizon : t -> float -> unit
val depth : t -> int
val reset : t -> unit
(** Forget outstanding and unacknowledged requests (reboot). *)
