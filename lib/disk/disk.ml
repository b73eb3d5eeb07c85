type t = {
  geometry : Geometry.t;
  data : bytes array;
  stats : Io_stats.t;
  queue : Io_queue.t;
  mutable mode : Io_queue.mode;
  mutable crash_countdown : int option;  (* blocks until power cut *)
  mutable crashed : bool;
  mutable pending : (int * int * bytes) list;
      (* queued-mode writes submitted but not yet committed by the
         elevator: (seq, addr, payload) in submission order.  Reads
         overlay these so the FS observes its own writes; a reboot
         drops them. *)
  mutable write_seq_counter : int;
  write_seq : int array;
      (* per block, the submission seq of the newest committed write:
         content is defined by submission order even though the elevator
         commits out of order, so a commit must not clobber a block a
         later-submitted write has already retired. *)
}

exception Crashed

(* Modelled duration of one transfer: reposition (none when the head is
   already at [addr]), transfer at media bandwidth, fixed per-IO
   overhead.  A cold head ([-1], fresh or rebooted device) pays an
   average-ish seek of a third of the disk. *)
let service_fn geometry ~head ~addr ~nblocks =
  let seeked = addr <> head in
  let reposition =
    if not seeked then 0.0
    else begin
      let distance_blocks =
        if head < 0 then geometry.Geometry.blocks / 3 else abs (addr - head)
      in
      Geometry.seek_time geometry ~distance_blocks
      +. geometry.Geometry.rotational_latency_s
    end
  in
  let transfer =
    if geometry.Geometry.bandwidth_bytes_per_s = infinity then 0.0
    else
      float_of_int (nblocks * geometry.Geometry.block_size)
      /. geometry.Geometry.bandwidth_bytes_per_s
  in
  (reposition +. transfer +. geometry.Geometry.per_io_overhead_s, seeked)

let create geometry =
  let stats = Io_stats.create () in
  {
    geometry;
    data = Array.init geometry.Geometry.blocks (fun _ -> Bytes.make geometry.Geometry.block_size '\000');
    stats;
    queue = Io_queue.create ~service:(service_fn geometry) ~stats;
    mode = Io_queue.Direct;
    crash_countdown = None;
    crashed = false;
    pending = [];
    write_seq_counter = 0;
    write_seq = Array.make geometry.Geometry.blocks 0;
  }

let geometry t = t.geometry
let block_size t = t.geometry.Geometry.block_size
let nblocks t = t.geometry.Geometry.blocks
let stats t = t.stats
(* Entering queued mode re-bases the idle device into the caller's clock
   domain: the horizon accumulated by Direct-mode service (total busy
   time since creation) is history, not future busy time, so the first
   queued request must not wait behind it. *)
let set_mode t m =
  (match m with
  | Io_queue.Queued clock when Io_queue.depth t.queue = 0 ->
      Io_queue.set_horizon t.queue (clock ())
  | _ -> ());
  t.mode <- m

let get_mode t = t.mode

let check_range t addr n what =
  if addr < 0 || n < 0 || addr + n > nblocks t then
    invalid_arg
      (Printf.sprintf "Disk.%s: blocks [%d, %d) out of range [0, %d)" what addr
         (addr + n) (nblocks t))

(* Enqueue the transfer on the time plane.  [Direct] services it on the
   spot — submission order, zero wait, the historical synchronous
   timings — and logs no completion, since nothing pumps a Direct
   device; [Queued] leaves it for await/drain/pump. *)
let enqueue ?on_commit t ?now ~addr ~n () =
  let now =
    match now with
    | Some s -> s
    | None -> (
        match t.mode with
        | Io_queue.Direct -> Io_queue.horizon t.queue
        | Io_queue.Queued clock -> clock ())
  in
  let tag = Io_queue.submit ?on_commit t.queue ~now ~addr ~nblocks:n in
  (match t.mode with
  | Io_queue.Direct -> Io_queue.service_now t.queue tag
  | Io_queue.Queued _ -> ());
  Io_queue.Tag (t.queue, tag)

let ensure_alive t = if t.crashed then raise Crashed

(* Overlay not-yet-committed queued writes, oldest first, so reads are
   coherent with the submission order the FS observed.  A block whose
   committed content is already newer (a later-submitted write the
   elevator retired first) keeps the committed data. *)
let overlay_pending t ~addr ~n out =
  let bs = block_size t in
  List.iter
    (fun (seq, waddr, payload) ->
      let wn = Bytes.length payload / bs in
      let lo = max addr waddr and hi = min (addr + n) (waddr + wn) in
      for blk = lo to hi - 1 do
        if t.write_seq.(blk) <= seq then
          Bytes.blit payload ((blk - waddr) * bs) out ((blk - addr) * bs) bs
      done)
    t.pending

let submit_read ?now t addr n =
  ensure_alive t;
  check_range t addr n "read_blocks";
  t.stats.Io_stats.reads <- t.stats.Io_stats.reads + 1;
  t.stats.Io_stats.blocks_read <- t.stats.Io_stats.blocks_read + n;
  let bs = block_size t in
  let out = Bytes.create (n * bs) in
  for i = 0 to n - 1 do
    Bytes.blit t.data.(addr + i) 0 out (i * bs) bs
  done;
  if t.pending <> [] then overlay_pending t ~addr ~n out;
  (enqueue t ?now ~addr ~n (), out)

let read_blocks t addr n = snd (submit_read t addr n)
let read_block t addr = read_blocks t addr 1

(* How many of the next [n] blocks may still be persisted before the
   armed crash triggers.  Returns [n] when no crash is armed. *)
let writable_prefix t n =
  match t.crash_countdown with
  | None -> n
  | Some k -> min k n

let consume_countdown t n =
  match t.crash_countdown with
  | None -> ()
  | Some k ->
      let k = k - n in
      if k <= 0 then begin
        t.crash_countdown <- None;
        t.crashed <- true
      end
      else t.crash_countdown <- Some k

(* Land one write on the medium: persist the writable prefix, burn the
   crash countdown, raise if it tripped.  In [Direct] mode this runs at
   submit time (submission order == service order); in [Queued] mode it
   is deferred into the elevator's commit, so countdowns burn — and
   crashes tear — in the order the device actually retires writes. *)
let perform_write t ~seq addr payload =
  if t.crashed then raise Crashed;
  let bs = block_size t in
  let n = Bytes.length payload / bs in
  let persist = writable_prefix t n in
  for i = 0 to persist - 1 do
    if t.write_seq.(addr + i) <= seq then begin
      Bytes.blit payload (i * bs) t.data.(addr + i) 0 bs;
      t.write_seq.(addr + i) <- seq
    end
  done;
  consume_countdown t n;
  if t.crashed then raise Crashed

let submit_write_payload ?now t addr payload =
  let bs = block_size t in
  let n = Bytes.length payload / bs in
  t.write_seq_counter <- t.write_seq_counter + 1;
  let seq = t.write_seq_counter in
  match t.mode with
  | Io_queue.Direct ->
      let tk = enqueue t ?now ~addr ~n () in
      perform_write t ~seq addr payload;
      tk
  | Io_queue.Queued _ ->
      let payload = Bytes.copy payload in
      let cell = (seq, addr, payload) in
      t.pending <- t.pending @ [ cell ];
      enqueue t ?now ~addr ~n ()
        ~on_commit:(fun () ->
          t.pending <- List.filter (fun c -> c != cell) t.pending;
          perform_write t ~seq addr payload)

let submit_write ?now t addr b =
  ensure_alive t;
  let bs = block_size t in
  if Bytes.length b mod bs <> 0 then
    invalid_arg "Disk.write_blocks: buffer is not a whole number of blocks";
  let n = Bytes.length b / bs in
  check_range t addr n "write_blocks";
  t.stats.Io_stats.writes <- t.stats.Io_stats.writes + 1;
  t.stats.Io_stats.blocks_written <- t.stats.Io_stats.blocks_written + n;
  submit_write_payload ?now t addr b

let write_blocks t addr b = ignore (submit_write t addr b)

let write_block t addr b =
  if Bytes.length b <> block_size t then
    invalid_arg "Disk.write_block: buffer is not exactly one block";
  write_blocks t addr b

(* Zeroing is a write of zeros: it charges modelled time, counts in the
   stats, and respects an armed crash (a torn zero clears only its
   writable prefix). *)
let zero_blocks t addr n =
  ensure_alive t;
  check_range t addr n "zero_blocks";
  t.stats.Io_stats.writes <- t.stats.Io_stats.writes + 1;
  t.stats.Io_stats.blocks_written <- t.stats.Io_stats.blocks_written + n;
  ignore (submit_write_payload t addr (Bytes.make (n * block_size t) '\000'))

let drain t = Io_queue.drain t.queue
let pump t ~now = Io_queue.pump t.queue ~now
let outstanding_in t ~lo ~hi = Io_queue.outstanding_in t.queue ~lo ~hi
let queue_depth t = Io_queue.depth t.queue

let plan_crash t ~after_blocks =
  assert (after_blocks >= 0);
  t.crash_countdown <- Some after_blocks

let cancel_crash t = t.crash_countdown <- None
let is_crashed t = t.crashed

let reboot t =
  t.crashed <- false;
  t.crash_countdown <- None;
  (* Submitted-but-uncommitted writes die with the power: only what the
     elevator actually retired is on the medium. *)
  t.pending <- [];
  Io_queue.reset t.queue;
  Io_queue.set_head t.queue (-1)

let snapshot t =
  let stats = Io_stats.copy t.stats in
  let queue = Io_queue.create ~service:(service_fn t.geometry) ~stats in
  Io_queue.set_head queue (Io_queue.head t.queue);
  Io_queue.set_horizon queue (Io_queue.horizon t.queue);
  {
    geometry = t.geometry;
    data = Array.map Bytes.copy t.data;
    stats;
    queue;
    mode = Io_queue.Direct;
    crash_countdown = t.crash_countdown;
    crashed = t.crashed;
    pending = [];
    write_seq_counter = 0;
    write_seq = Array.make t.geometry.Geometry.blocks 0;
  }

let restore t ~from =
  if t.geometry <> from.geometry then
    invalid_arg "Disk.restore: geometry mismatch";
  Array.iteri (fun i b -> Bytes.blit b 0 t.data.(i) 0 (Bytes.length b)) from.data;
  let s = t.stats and s' = from.stats in
  s.Io_stats.reads <- s'.Io_stats.reads;
  s.Io_stats.writes <- s'.Io_stats.writes;
  s.Io_stats.blocks_read <- s'.Io_stats.blocks_read;
  s.Io_stats.blocks_written <- s'.Io_stats.blocks_written;
  s.Io_stats.seeks <- s'.Io_stats.seeks;
  s.Io_stats.busy_s <- s'.Io_stats.busy_s;
  s.Io_stats.queue_wait_s <- s'.Io_stats.queue_wait_s;
  s.Io_stats.max_queue_depth <- s'.Io_stats.max_queue_depth;
  (* Pending time-plane requests do not survive a restore. *)
  t.pending <- [];
  Array.fill t.write_seq 0 (Array.length t.write_seq) 0;
  t.write_seq_counter <- 0;
  Io_queue.reset t.queue;
  Io_queue.set_head t.queue (Io_queue.head from.queue);
  Io_queue.set_horizon t.queue (Io_queue.horizon from.queue);
  t.crash_countdown <- from.crash_countdown;
  t.crashed <- from.crashed

let save_file t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Array.iter (fun b -> output_bytes oc b) t.data)

let load_file geometry path =
  let expected = Geometry.capacity_bytes geometry in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      if in_channel_length ic <> expected then
        invalid_arg
          (Printf.sprintf "Disk.load_file: %s is %d bytes, geometry wants %d"
             path (in_channel_length ic) expected);
      let t = create geometry in
      Array.iter (fun b -> really_input ic b 0 (Bytes.length b)) t.data;
      t)
