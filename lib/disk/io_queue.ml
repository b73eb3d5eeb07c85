(* Per-device request queue in the modelled-time domain.

   The data plane (moving bytes, crash countdowns, cache coherence) runs
   at submit time in submission order; this queue only decides *when* the
   device is modelled to finish each transfer.  Requests are tagged with
   a globally monotonic id, ordered for service by a C-LOOK elevator, and
   serviced one at a time: service start = max(previous completion,
   submit time), so queued requests overlap their wait with the device's
   current transfer instead of summing serially. *)

type req = {
  tag : int;
  addr : int;
  nblocks : int;
  submit_s : float;
  on_commit : (unit -> unit) option;
      (* data-plane action deferred to service time (queued writes) *)
}

type t = {
  service : head:int -> addr:int -> nblocks:int -> float * bool;
      (* modelled duration of one transfer and whether it repositioned *)
  stats : Io_stats.t;
  mutable head : int;  (* block index just past the previous transfer *)
  mutable horizon : float;  (* completion time of the last serviced request *)
  mutable outstanding : req list;  (* submission order, oldest first *)
  mutable started : (int * float) list;
      (* services committed since the last [pump], newest first:
         (tag, finish) *)
}

type ticket = Done | Tag of t * int | Join of ticket list

type mode = Direct | Queued of (unit -> float)

(* One id space across every queue in a stack: a contiguous range of
   tags identifies "all leaf IO submitted between two points in time",
   which is how the serving engine tracks per-request completion. *)
let tag_counter = ref 0
let next_tag () = !tag_counter

let create ~service ~stats =
  { service; stats; head = -1; horizon = 0.0; outstanding = []; started = [] }

let head t = t.head
let set_head t h = t.head <- h
let horizon t = t.horizon
let set_horizon t h = t.horizon <- h
let depth t = List.length t.outstanding

let reset t =
  t.outstanding <- [];
  t.started <- []

let submit ?on_commit t ~now ~addr ~nblocks =
  let tag = !tag_counter in
  incr tag_counter;
  t.outstanding <-
    t.outstanding @ [ { tag; addr; nblocks; submit_s = now; on_commit } ];
  let d = List.length t.outstanding in
  if d > t.stats.Io_stats.max_queue_depth then
    t.stats.Io_stats.max_queue_depth <- d;
  tag

(* C-LOOK: the next outstanding request at or beyond the head, lowest
   address first (ties break by submission order); when nothing lies
   ahead, sweep back to the lowest address. *)
let pick t =
  match t.outstanding with
  | [] -> None
  | reqs ->
      let pool =
        match List.filter (fun r -> r.addr >= t.head) reqs with
        | [] -> reqs
        | ahead -> ahead
      in
      Some
        (List.fold_left
           (fun best r -> if r.addr < best.addr then r else best)
           (List.hd pool) pool)

let commit t r =
  t.outstanding <- List.filter (fun x -> x.tag <> r.tag) t.outstanding;
  let start = Float.max t.horizon r.submit_s in
  let dur, seeked = t.service ~head:t.head ~addr:r.addr ~nblocks:r.nblocks in
  if seeked then t.stats.Io_stats.seeks <- t.stats.Io_stats.seeks + 1;
  t.stats.Io_stats.busy_s <- t.stats.Io_stats.busy_s +. dur;
  t.stats.Io_stats.queue_wait_s <-
    t.stats.Io_stats.queue_wait_s +. (start -. r.submit_s);
  t.head <- r.addr + r.nblocks;
  t.horizon <- start +. dur;
  t.started <- (r.tag, t.horizon) :: t.started;
  (* Deferred data plane last: a crash countdown tripping here must not
     leave the request half-accounted in the time plane. *)
  match r.on_commit with None -> () | Some f -> f ()

let service_next t =
  match pick t with
  | None -> false
  | Some r ->
      commit t r;
      true

(* Service (in elevator order) until [tag] is no longer outstanding.
   Returns the queue horizon, an upper bound on the tag's completion
   time that is exact when the awaited tag was serviced last. *)
let await_tag t tag =
  while List.exists (fun r -> r.tag = tag) t.outstanding do
    ignore (service_next t)
  done;
  t.horizon

(* Direct-mode service: commit [tag] on the spot and keep no record of
   it.  Nothing pumps a Direct device, so a logged completion would only
   pile up until the next [pump] (a mode switch) handed back stale
   history.  [tag]'s commit is the newest one, since [await_tag] stops as
   soon as it is serviced. *)
let service_now t tag =
  ignore (await_tag t tag);
  match t.started with
  | (tg, _) :: rest when tg = tag -> t.started <- rest
  | _ -> ()

let rec await = function
  | Done -> neg_infinity
  | Tag (q, tag) -> await_tag q tag
  | Join ts -> List.fold_left (fun acc tk -> Float.max acc (await tk)) neg_infinity ts

let drain t =
  while t.outstanding <> [] do
    ignore (service_next t)
  done;
  t.horizon

(* Event-driven servicing: once the horizon has passed, commit the
   elevator's next pick, and hand back every service committed since the
   last pump (including ones forced by [await]/[drain]) so the caller
   can schedule completion events. *)
let pump t ~now =
  if t.outstanding <> [] && t.horizon <= now then ignore (service_next t);
  let out = List.rev t.started in
  t.started <- [];
  out

let outstanding_in t ~lo ~hi =
  List.length (List.filter (fun r -> r.tag >= lo && r.tag < hi) t.outstanding)
