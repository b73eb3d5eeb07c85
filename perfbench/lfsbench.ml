(* One run of one benchmark workload.  See README.md for the metrics,
   the workloads and the per-layer table; run.py is the entry point. *)

module Engine = Lfs_server.Engine
module Metrics = Lfs_obs.Metrics
module Prng = Lfs_util.Prng
module Io_stats = Lfs_disk.Io_stats
module Disk = Lfs_disk.Disk
module Geometry = Lfs_disk.Geometry
module Fs = Lfs_core.Fs
module Config = Lfs_core.Config
module Layout = Lfs_core.Layout
module Types = Lfs_core.Types

let s_engine = Trace.register "engine.run" Trace.Engine
let s_churn = Trace.register "harness.churn" Trace.Harness

(* {1 Small helpers} *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* A registry reading as one number: counters and gauges as they are,
   histograms by their sum, dists by their total. *)
let reading m name =
  match Metrics.value m name with
  | Some (Metrics.Int n) -> float_of_int n
  | Some (Metrics.Float f) -> f
  | Some (Metrics.Summary s) -> s.sum
  | Some (Metrics.Series s) -> s.total
  | None -> Float.nan

let pct m name q =
  match Metrics.value m name with
  | Some (Metrics.Summary { p50; p95; p99; _ }) -> (
      match q with `P50 -> p50 | `P95 -> p95 | `P99 -> p99)
  | _ -> Float.nan

let p50 m name = pct m name `P50
let p95 m name = pct m name `P95
let p99 m name = pct m name `P99

let finite_or_zero x = if Float.is_finite x then x else 0.0
let ratio a b = if b > 0.0 then a /. b else 0.0
let word_mb = float_of_int (Sys.word_size / 8) /. 1e6

(* Process peak of the major heap so far, in MB. *)
let top_heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_mb

(* Digest of a device's contents, read from a copy so the device's own
   statistics and head position stay as the run left them. *)
let disk_digest disk =
  let d = Disk.snapshot disk in
  let n = Disk.nblocks d and chunk = 1024 in
  List.init ((n + chunk - 1) / chunk) (fun i ->
      let a = i * chunk in
      Digest.bytes (Disk.read_blocks d a (min chunk (n - a))))
  |> String.concat "" |> Digest.string |> Digest.to_hex

(* {1 Bounds}

   Every set-up and measured phase is armed with the watchdog ([Trace]):
   it is cut off after [phase_bound_s] elapsed seconds, and at the latest
   [cut_bound_s] after the invocation started.  A process that has not
   reported [kill_bound_s] after the start is killed.  Cut or killed,
   the operations it was to run count as failed.  run.py's own
   backstop, 170 s, lies past all of these. *)

let phase_bound_s = 60.0
let cut_bound_s = 125.0
let kill_bound_s = 150.0

(* Kill time of a set-up's process; each measurement under it is killed
   [nested_margin_s] earlier, so the set-up's process still reports. *)
let kill_at = ref infinity
let nested_margin_s = 5.0

let catch_cut f =
  match f () with
  | v -> Ok v
  | exception Trace.Cut_off why -> Error why

(* {1 Processes}

   Each set-up runs in a child process, and each measurement in a child
   of that one.  The measurement processes of one set-up are all forked
   before any of them starts, so they start from one identical state:
   two that do the same work must end alike, with the same modelled
   metrics, allocation count, peak heap and device contents.  (The same
   input run twice in one process allocates slightly differently,
   because the runtime's heap state differs; reading one child's result
   before forking the next is enough to show it.)  Results come back
   marshalled over a pipe. *)

type 'a child = Done of 'a | Killed | Died of string

let rec retry f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry f

(* Runs each of [fs] in its own child process, one after another: a
   child waits for a start byte, which it gets once the previous child
   has ended.  A child that has not reported by [kill_at] is killed, and
   every child is waited for.  A child whose parent dies reads end of
   file instead of its start byte and exits. *)
let in_children ~kill_at fs =
  flush_all ();
  let fs = Array.of_list fs in
  let n = Array.length fs in
  let go = Array.init n (fun _ -> Unix.pipe ~cloexec:true ()) in
  let back = Array.init n (fun _ -> Unix.pipe ~cloexec:true ()) in
  let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let child i =
    for j = 0 to n - 1 do
      close_quietly (snd go.(j));
      close_quietly (fst back.(j));
      if j <> i then begin
        close_quietly (fst go.(j));
        close_quietly (snd back.(j))
      end
    done;
    if retry (fun () -> Unix.read (fst go.(i)) (Bytes.create 1) 0 1) = 0 then
      Unix._exit 1;
    let v = match fs.(i) () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
    flush_all ();
    let oc = Unix.out_channel_of_descr (snd back.(i)) in
    Marshal.to_channel oc (v : (_, string) result) [];
    close_out oc;
    Unix._exit 0
  in
  let pids = Array.make n 0 in
  (* Nothing is allocated between the forks, so every child starts
     from the same heap. *)
  for i = 0 to n - 1 do
    match Unix.fork () with 0 -> child i | pid -> pids.(i) <- pid
  done;
  Array.iter (fun (go_r, _) -> Unix.close go_r) go;
  Array.iter (fun (_, wr) -> Unix.close wr) back;
  let finish i =
    let go_w = snd go.(i) and rd = fst back.(i) in
    (try ignore (Unix.write_substring go_w "g" 0 1) with Unix.Unix_error _ -> ());
    Unix.close go_w;
    let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
    (* Read the result until end of file, or give up at [kill_at]. *)
    let rec read () =
      let left = kill_at -. Trace.now () in
      if left <= 0.0 then false
      else
        match retry (fun () -> Unix.select [ rd ] [] [] left) with
        | [], _, _ -> read ()
        | _ ->
            let k = retry (fun () -> Unix.read rd chunk 0 (Bytes.length chunk)) in
            if k = 0 then true
            else begin
              Buffer.add_subbytes buf chunk 0 k;
              read ()
            end
    in
    let ended = read () in
    if not ended then Unix.kill pids.(i) Sys.sigkill;
    Unix.close rd;
    let _, status = retry (fun () -> Unix.waitpid [] pids.(i)) in
    if not ended then Killed
    else
      match status with
      | Unix.WEXITED 0 when Buffer.length buf > 0 -> (
          match (Marshal.from_string (Buffer.contents buf) 0 : (_, string) result) with
          | Ok v -> Done v
          | Error e -> Died ("raised " ^ e))
      | _ -> Died "ended without a result"
  in
  List.init n finish

let in_child ~kill_at f = List.hd (in_children ~kill_at [ f ])

(* {1 One measured phase} *)

type phase = {
  host_s : float;  (** processor seconds of the measured phase *)
  wall_s : float;  (** elapsed seconds of the measured phase *)
  words : float;  (** minor + direct-major words allocated in the phase *)
  heap_mb : float;  (** process peak of the major heap, set-up included *)
  ops : int;
  failed : int;
  cut : string option;
  modelled : (string * float) list;  (** deterministic per sub-seed *)
  layer : (string * float) list;  (** per-layer metrics *)
  digest : string;  (** of the device's contents after the phase *)
  problems : string list;
}

(* How to measure a phase.  A phase is [compared] with another measured
   from the same set-up: it digests the device's contents. *)
type plan = { traced : bool; gate : bool; compared : bool }

(* A phase that never ran to a report: all its operations failed. *)
let lost ~ops why =
  {
    host_s = Float.nan; wall_s = Float.nan; words = Float.nan; heap_mb = Float.nan;
    ops; failed = ops; cut = Some why; modelled = []; layer = []; digest = "";
    problems = [];
  }

(* Before/after readings of the file system's registry and the device
   around the measured phase. *)
type probe = {
  fsm : Metrics.t;
  before : (string * float) list;
  io0 : Io_stats.t;
  gc0 : Gc.stat;
  disk : Disk.t;
}

let fs_names =
  [ "fs.log.blocks_new"; "fs.log.blocks_cleaner"; "fs.cleaner.blocks_read";
    "fs.cleaner.segments_cleaned"; "fs.cleaner.stall_s"; "fs.cleaner.fg.passes";
    "fs.cleaner.bg.passes"; "fs.checkpoints"; "fs.checkpoint.busy_s";
    "vdev.cache.hits"; "vdev.cache.misses" ]

let probe (st : Stack.t) =
  let fsm = Fs.metrics st.fs in
  {
    fsm;
    before = List.map (fun n -> (n, reading fsm n)) fs_names;
    io0 = Io_stats.copy (Disk.stats st.disk);
    gc0 = Gc.quick_stat ();
    disk = st.disk;
  }

let delta p name = reading p.fsm name -. List.assoc name p.before

let write_cost p =
  let fresh = delta p "fs.log.blocks_new" in
  ratio
    (fresh +. delta p "fs.log.blocks_cleaner" +. delta p "fs.cleaner.blocks_read")
    fresh

(* Per-layer metrics that every workload reports; [extra] adds the
   engine's.  Host-time entries are self times from the spans. *)
let layer_metrics p (st : Stack.t) ~wall_s ~extra =
  let io = Io_stats.diff (Disk.stats p.disk) p.io0 in
  let gc1 = Gc.quick_stat () in
  let calls l = float_of_int (Trace.layer_calls l) in
  let per_call l = ratio (Trace.layer_self_words l) (calls l) in
  let cleaned = delta p "fs.cleaner.segments_cleaned" in
  let ckpts = delta p "fs.checkpoints" in
  let hits = delta p "vdev.cache.hits" and misses = delta p "vdev.cache.misses" in
  let self_sum =
    List.fold_left (fun a l -> a +. Trace.layer_self_s l) 0.0 Trace.layers
  in
  extra
  @ [
      ("fs.calls", calls Trace.Fs);
      ("fs.host_self_s", Trace.layer_self_s Trace.Fs);
      ("fs.alloc_words_per_call", per_call Trace.Fs);
      ("log.sync_calls", calls Trace.Log);
      ("log.sync_host_self_s", Trace.layer_self_s Trace.Log);
      ("log.sync_alloc_words_per_call", per_call Trace.Log);
      ( "log.blocks_per_batch",
        ratio (float_of_int st.log_blocks) (float_of_int st.log_batches) );
      ("cleaner.calls", calls Trace.Cleaner);
      ("cleaner.host_self_s", Trace.layer_self_s Trace.Cleaner);
      ("cleaner.alloc_words_per_call", per_call Trace.Cleaner);
      ( "cleaner.useful_frac",
        ratio (float_of_int st.useful_steps) (float_of_int st.clean_steps) );
      ("cleaner.segments_cleaned", cleaned);
      ("cleaner.blocks_copied", delta p "fs.log.blocks_cleaner");
      ("cleaner.stall_s", delta p "fs.cleaner.stall_s");
      ("cleaner.fg_passes", delta p "fs.cleaner.fg.passes");
      ("cleaner.bg_passes", delta p "fs.cleaner.bg.passes");
      ("checkpoint.count", ckpts);
      ("checkpoint.per_segment_freed", ckpts /. Float.max 1.0 cleaned);
      ("checkpoint.busy_s", delta p "fs.checkpoint.busy_s");
      ("cache.hit_rate", ratio hits (hits +. misses));
      ("cache.misses", misses);
      ("vdev.calls", calls Trace.Vdev);
      ("vdev.host_s", Trace.layer_self_s Trace.Vdev);
      ("vdev.alloc_words_per_call", per_call Trace.Vdev);
      ("disk.busy_s", io.Io_stats.busy_s);
      ("disk.seeks", float_of_int io.Io_stats.seeks);
      ("disk.blocks_read", float_of_int io.Io_stats.blocks_read);
      ("disk.blocks_written", float_of_int io.Io_stats.blocks_written);
      ("disk.queue_wait_s", io.Io_stats.queue_wait_s);
      ( "gc.minor_collections",
        float_of_int (gc1.Gc.minor_collections - p.gc0.Gc.minor_collections) );
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - p.gc0.Gc.major_collections) );
      ("gc.major_words", gc1.Gc.major_words -. p.gc0.Gc.major_words);
      ("harness.host_self_s", Trace.layer_self_s Trace.Harness);
      ("trace.measured_host_s", wall_s);
      ("trace.self_sum_frac", ratio self_sum wall_s);
      ("trace.spans", float_of_int (!Trace.nspans + !Trace.dropped));
    ]

(* The engine's per-layer metrics where no engine result exists. *)
let no_engine =
  List.map
    (fun n -> (n, 0.0))
    [ "engine.host_self_s"; "engine.mean_batch"; "engine.queue_depth_p95";
      "engine.flush_p99_ms"; "engine.bg_steps" ]

(* Where a traced phase writes its span dump. *)
let span_file = ref "spans.tsv"

(* The traced phase's self-time tables, per span name and per layer,
   and its span dump. *)
let report_spans ~wall_s =
  Printf.printf "  %-24s %10s %8s %10s %14s\n" "span" "calls" "self_s" "share" "words/call";
  Array.iteri
    (fun id (n, _) ->
      if Trace.calls.(id) > 0 then
        Printf.printf "  %-24s %10d %8.3f %9.1f%% %14.1f\n" n Trace.calls.(id)
          Trace.self_s.(id)
          (100.0 *. ratio Trace.self_s.(id) wall_s)
          (ratio Trace.self_w.(id) (float_of_int Trace.calls.(id))))
    !Trace.names;
  Printf.printf "  %-24s %10s %8s %10s\n" "layer" "calls" "self_s" "share";
  List.iter
    (fun l ->
      Printf.printf "  %-24s %10d %8.3f %9.1f%%\n" (Trace.layer_name l)
        (Trace.layer_calls l) (Trace.layer_self_s l)
        (100.0 *. ratio (Trace.layer_self_s l) wall_s))
    Trace.layers;
  (try Sys.mkdir (Filename.dirname !span_file) 0o755 with Sys_error _ -> ());
  Trace.dump !span_file;
  Printf.printf "  spans: %d written to %s (%d past the cap not stored)\n"
    !Trace.nspans !span_file !Trace.dropped

(* Latency limit of [max_rate_at_slo], on modelled write p99. *)
let slo_s = 0.250

(* Workloads that run one offered rate report, under the same name,
   the modelled rate of requests that met the limit: served rate times
   the share of writes within [slo_s]. *)
let within_slo_frac lats =
  ratio
    (float_of_int (List.length (List.filter (fun l -> l <= slo_s) lats)))
    (float_of_int (List.length lats))

(* The same share read off a latency histogram: its percentile curve is
   monotone, so bisect for the quantile that sits at the limit. *)
let hist_within_slo_frac m name =
  let h = Metrics.histogram m name in
  if not (Metrics.percentile h 1.0 > slo_s) then 1.0
  else if Metrics.percentile h 0.0 > slo_s then 0.0
  else begin
    let lo = ref 0.0 and hi = ref 1.0 in
    for _ = 1 to 40 do
      let mid = (!lo +. !hi) /. 2.0 in
      if Metrics.percentile h mid <= slo_s then lo := mid else hi := mid
    done;
    !lo
  end

(* {1 Office workloads: the serving engine} *)

type office = {
  heads : int;
  bg_clean : bool;
  io_depth : int;
  files : int;  (** per client *)
  ops_per_client : int;
  rate : float;  (** offered ops/s *)
  ladder : float list;
      (** offered rates for [max_rate_at_slo], ascending; [[]] reports
          the measured rate within the limit instead *)
  prefill : bool;  (** create the whole working set before measuring *)
  sub_seeds : int;  (** input streams a run measures *)
}

let clients = 16
let disk_blocks = 16384

(* Fill every session slot with a file of the size and fill the engine
   would write, so the measured phase starts from the full working set.
   Without a prefill the stack is left exactly as [serve] leaves it: the
   engine makes the client directories itself. *)
let fill_office w (st : Stack.t) ~seed =
  if w.prefill then begin
    let prng = Prng.create ~seed:(seed lxor 0x0FF1CE) in
    for c = 0 to clients - 1 do
      let dir = Printf.sprintf "/c%d" c in
      ignore (st.ops.mkdir_path dir);
      for i = 0 to w.files - 1 do
        let size = 1 + Prng.int prng Engine.default.Engine.write_size in
        let fill = Char.chr (Char.code 'a' + ((c + size) mod 26)) in
        let ino = st.ops.create_path (Printf.sprintf "%s/f%d" dir i) in
        st.ops.write ino ~off:0 (Bytes.make size fill)
      done
    done;
    st.ops.sync ()
  end

(* Format, mount and fill a fresh stack [office_reps] times; each is a
   set-up sample, and the last stack is the one measured.  Each earlier
   stack is collected before the next is built, so the peak heap holds
   one stack. *)
let office_reps = 3

let office_setup w ~seed =
  let once () =
    let t0 = Trace.cpu () in
    let config = { Config.default with Config.log_heads = w.heads } in
    let st = Stack.build ~geometry:(Geometry.wren_iv ~blocks:disk_blocks) ~config in
    fill_office w st ~seed;
    (st, Trace.cpu () -. t0)
  in
  let rec go k samples =
    let st, s = once () in
    if k = 1 then (st, List.rev (s :: samples))
    else begin
      Gc.full_major ();
      go (k - 1) (s :: samples)
    end
  in
  go office_reps []

let office_measure w (st : Stack.t) ~seed { traced; gate; compared } =
  let cfg =
    {
      Engine.default with
      Engine.clients;
      ops_per_client = w.ops_per_client;
      seed;
      think_mean_s = float_of_int clients /. w.rate;
      session_files = w.files;
      bg_clean = w.bg_clean;
      io_depth = w.io_depth;
    }
  in
  let ops = clients * w.ops_per_client in
  let p = probe st in
  st.log_batches <- 0;
  st.log_blocks <- 0;
  st.clean_steps <- 0;
  st.useful_steps <- 0;
  if traced then Trace.reset ();
  Trace.enabled := traced;
  Trace.arm ~seconds:phase_bound_s ~idle:(4 * (Fs.layout st.fs).Layout.nsegs);
  let w0 = Trace.words_raw () in
  let c0 = Trace.cpu () and h0 = Trace.now () in
  let res = catch_cut (fun () -> Trace.span s_engine (fun () -> Engine.run cfg st.ops)) in
  let wall_s = Trace.now () -. h0 and host_s = Trace.cpu () -. c0 in
  let words = Trace.words_raw () -. w0 in
  Trace.enabled := false;
  Trace.disarm ();
  let heap_mb = top_heap_mb () in
  let dirs = List.init clients (Printf.sprintf "/c%d") in
  match res with
  | Ok r ->
      let m = r.Engine.metrics in
      let ms x = 1000.0 *. x in
      let modelled =
        [
          ("write_p50_ms", ms (p50 m "server.latency.write.s"));
          ("write_p99_ms", ms (p99 m "server.latency.write.s"));
          ("read_p50_ms", ms (p50 m "server.latency.read.s"));
          ("read_p99_ms", ms (p99 m "server.latency.read.s"));
          ("served_ops_per_s", r.Engine.throughput_ops_s);
          ( "disk_ms_per_op",
            ms (ratio r.Engine.disk_s (float_of_int r.Engine.completed)) );
          ("write_cost", write_cost p);
        ]
        @
        if w.ladder = [] then
          [
            ( "max_rate_at_slo",
              r.Engine.throughput_ops_s
              *. hist_within_slo_frac m "server.latency.write.s" );
          ]
        else []
      in
      let layer =
        layer_metrics p st ~wall_s
          ~extra:
            [
              ("engine.host_self_s", Trace.layer_self_s Trace.Engine);
              ("engine.mean_batch", finite_or_zero r.Engine.mean_batch);
              ("engine.queue_depth_p95", finite_or_zero (p95 m "server.queue.depth_at_admit"));
              ("engine.flush_p99_ms", finite_or_zero (ms (p99 m "server.flush.busy_s")));
              ("engine.bg_steps", float_of_int r.Engine.bg_clean_steps);
            ]
      in
      if traced then report_spans ~wall_s;
      let digest = if compared then disk_digest st.disk else "" in
      let problems =
        if gate then
          Stack.gate ~registries:[ ("engine", m) ] ~cut:false
            ~check_files:(Stack.check_shadow st ~dirs) st
        else []
      in
      {
        host_s; wall_s; words; heap_mb; ops;
        failed = r.Engine.shed + r.Engine.errors;
        cut = None; modelled; layer; digest; problems;
      }
  | Error why ->
      (* Cut off: every operation of the run counts as failed.  The
         device must still recover to a consistent file system; the
         shadow is not checked, since the cut can fall between a write
         and the flush that would have acknowledged it. *)
      {
        host_s; wall_s; words; heap_mb; ops; failed = ops; cut = Some why;
        modelled = []; layer = layer_metrics p st ~wall_s ~extra:no_engine;
        digest = "";
        problems = Stack.gate ~cut:true ~check_files:(fun _ _ -> ()) st;
      }

(* The highest offered rate whose write p99 stays within [slo_s]:
   the highest passing rung, interpolated on p99 towards the next. *)
let max_rate_at_slo rungs =
  let ok = List.filter (fun (_, p) -> p <= slo_s *. 1000.0) rungs in
  match List.rev ok with
  | [] -> 0.0
  | (r, p) :: _ -> (
      match List.find_opt (fun (r', _) -> r' > r) rungs with
      | None -> r
      | Some (r', p') ->
          if p' <= p then r'
          else r +. ((r' -. r) *. ((slo_s *. 1000.0) -. p) /. (p' -. p)))

(* The rungs [max_rate_at_slo] needs, walking out from the measured
   one on the assumption that p99 grows with offered rate: downwards
   while rungs miss the limit, upwards while they meet it, stopping at
   the first rung past the boundary.  [run_rung] is [None] when a rung's
   run was cut off; the ladder is then empty and the metric reads 0. *)
let ladder w ~measured ~run_rung =
  let limit = slo_s *. 1000.0 in
  let _, p0 = measured in
  let down = p0 > limit in
  let next =
    if down then List.rev (List.filter (fun r -> r < w.rate) w.ladder)
    else List.filter (fun r -> r > w.rate) w.ladder
  in
  let rec walk acc = function
    | [] -> Some acc
    | r :: rest -> (
        match run_rung r with
        | None -> None
        | Some ((_, p) as rung) ->
            if (down && p > limit) || ((not down) && p <= limit) then
              walk (rung :: acc) rest
            else Some (rung :: acc))
  in
  match walk [ measured ] next with
  | None -> []
  | Some rungs -> List.sort compare rungs

(* {1 Churn: Fs directly, filled to 85%, 90/10 whole-file overwrites} *)

let churn_util = 0.85
let churn_file_blocks = 16
let churn_warmup_per_file = 1
let churn_measured = 800

let churn_config =
  {
    Config.default with
    Config.log_heads = 2;
    max_inodes = 4096;
    seg_blocks = 128;
    write_buffer_blocks = 128;
    cleaner_read = Config.Live_blocks;
    bg_clean_start = 10;
    bg_clean_stop = 12;
  }

let payloads =
  lazy
    (Array.init 26 (fun i ->
         Bytes.make (churn_file_blocks * churn_config.Config.block_size)
           (Char.chr (Char.code 'a' + i))))

(* A churn stack after its fill and warm-up. *)
type churn = {
  st : Stack.t;
  nfiles : int;
  version : int array;  (** payload of each file's last acknowledged write *)
  unknown : bool array;  (** the file's last overwrite failed *)
  overwrite : unit -> bool;  (** false when it raised [Fs_error] *)
  lat : float list ref;  (** modelled disk time of each overwrite *)
  warm_ops : int;
  warm_failed : int;
}

let churn_name i = Printf.sprintf "/f%d" i

let churn_setup ~seed =
  let payloads = Lazy.force payloads in
  let t0 = Trace.cpu () in
  let st =
    Stack.build ~geometry:(Geometry.wren_iv ~blocks:disk_blocks) ~config:churn_config
  in
  let fs = st.fs in
  let layout = Fs.layout fs in
  let capacity = layout.Layout.nsegs * layout.Layout.seg_blocks in
  let nfiles =
    int_of_float (churn_util *. float_of_int capacity) / (churn_file_blocks + 1)
  in
  let nhot = max 1 (nfiles / 10) in
  let version = Array.make nfiles 0 in
  let unknown = Array.make nfiles false in
  (* 90/10: every tenth overwrite goes to a cold file, the rest to hot
     ones, each drawn from a deck shuffled afresh when it runs out, so
     every file of a class is rewritten equally often.  Drawing with
     replacement instead leaves the write cost of a short run hanging
     on which files the stream happened to pick. *)
  let prng = Prng.create ~seed in
  let deck lo n =
    let cards = Array.init n (fun i -> lo + i) and next = ref n in
    fun () ->
      if !next = n then begin
        Prng.shuffle prng cards;
        next := 0
      end;
      incr next;
      cards.(!next - 1)
  in
  let hot = deck 0 nhot and cold = deck nhot (nfiles - nhot) in
  let count = ref 0 in
  let lat = ref [] in
  let overwrite () =
    incr count;
    let i = if !count mod 10 = 0 then cold () else hot () in
    let v = version.(i) + 1 in
    let d0 = (Disk.stats st.disk).Io_stats.busy_s in
    let ok =
      try
        Trace.span Stack.s_write_path (fun () ->
            Trace.tick ();
            Fs.write_path fs (churn_name i) payloads.(v mod 26));
        Trace.span Stack.s_sync (fun () -> Fs.sync fs);
        version.(i) <- v;
        unknown.(i) <- false;
        true
      with Types.Fs_error _ ->
        unknown.(i) <- true;
        false
    in
    lat := ((Disk.stats st.disk).Io_stats.busy_s -. d0) :: !lat;
    st.clean_steps <- st.clean_steps + 1;
    let before = Fs.clean_segment_count fs in
    let ok =
      match
        Trace.span Stack.s_clean_step (fun () -> Fs.clean_step ~max_segments:1 fs)
      with
      | _ -> ok
      | exception Types.Fs_error _ -> false
    in
    if Fs.clean_segment_count fs > before then
      st.useful_steps <- st.useful_steps + 1;
    ok
  in
  let warm_ops = churn_warmup_per_file * nfiles in
  let warm_failed = ref 0 in
  Trace.arm ~seconds:phase_bound_s ~idle:max_int;
  let filled =
    catch_cut (fun () ->
        for i = 0 to nfiles - 1 do
          Fs.write_path fs (churn_name i) payloads.(0)
        done;
        Fs.sync fs;
        for _ = 1 to warm_ops do
          if not (overwrite ()) then incr warm_failed
        done;
        Fs.sync fs)
  in
  Trace.disarm ();
  let setup_s = Trace.cpu () -. t0 in
  lat := [];
  Result.map
    (fun () ->
      ( { st; nfiles; version; unknown; overwrite; lat; warm_ops;
          warm_failed = !warm_failed },
        [ setup_s ] ))
    filled

let churn_measure c { traced; gate; compared } =
  let payloads = Lazy.force payloads in
  let st = c.st in
  let fs = st.fs in
  let p = probe st in
  st.log_batches <- 0;
  st.log_blocks <- 0;
  st.clean_steps <- 0;
  st.useful_steps <- 0;
  Fs.on_log_batch fs (fun ~blocks ->
      st.log_batches <- st.log_batches + 1;
      st.log_blocks <- st.log_blocks + blocks);
  if traced then Trace.reset ();
  Trace.enabled := traced;
  Trace.arm ~seconds:phase_bound_s ~idle:max_int;
  let failed = ref 0 in
  let w0 = Trace.words_raw () in
  let c0 = Trace.cpu () and h0 = Trace.now () in
  let d0 = (Disk.stats st.disk).Io_stats.busy_s in
  let res =
    catch_cut (fun () ->
        Trace.span s_churn (fun () ->
            for _ = 1 to churn_measured do
              if not (c.overwrite ()) then incr failed
            done;
            Trace.span Stack.s_sync (fun () -> Fs.sync fs)))
  in
  let wall_s = Trace.now () -. h0 and host_s = Trace.cpu () -. c0 in
  let words = Trace.words_raw () -. w0 in
  let busy = (Disk.stats st.disk).Io_stats.busy_s -. d0 in
  Trace.enabled := false;
  Trace.disarm ();
  let heap_mb = top_heap_mb () in
  let ops = churn_measured in
  let layer = layer_metrics p st ~wall_s ~extra:no_engine in
  let reads = ref [] in
  let check_files fs' add =
    let stats = Lfs_disk.Vdev.stats (List.hd (Fs.devices fs')) in
    for i = 0 to c.nfiles - 1 do
      let r0 = stats.Io_stats.busy_s in
      let got = Fs.read_path fs' (churn_name i) in
      reads := (stats.Io_stats.busy_s -. r0) :: !reads;
      match got with
      | None -> add ("missing file " ^ churn_name i)
      | Some b ->
          if (not c.unknown.(i)) && not (Bytes.equal b payloads.(c.version.(i) mod 26))
          then add ("contents differ: " ^ churn_name i)
    done
  in
  match res with
  | Ok () ->
      if traced then report_spans ~wall_s;
      let digest = if compared then disk_digest st.disk else "" in
      let problems = if gate then Stack.gate ~cut:false ~check_files st else [] in
      let ms x = 1000.0 *. x in
      let lat = !(c.lat) in
      (* The read latencies come from the gate's read-back. *)
      let modelled =
        [
          ("write_p50_ms", ms (median lat));
          ("write_p99_ms", ms (quantile lat 0.99));
        ]
        @ (if gate then
             [
               ("read_p50_ms", ms (median !reads));
               ("read_p99_ms", ms (quantile !reads 0.99));
             ]
           else [])
        @ [
            ("served_ops_per_s", ratio (float_of_int ops) busy);
            ("disk_ms_per_op", ms (busy /. float_of_int ops));
            ("write_cost", write_cost p);
            ("max_rate_at_slo", ratio (float_of_int ops) busy *. within_slo_frac lat);
          ]
      in
      {
        host_s; wall_s; words; heap_mb; ops; failed = !failed; cut = None;
        modelled; layer; digest; problems;
      }
  | Error why ->
      {
        host_s; wall_s; words; heap_mb; ops; failed = ops; cut = Some why;
        modelled = []; layer; digest = "";
        problems = Stack.gate ~cut:true ~check_files:(fun _ _ -> ()) st;
      }

(* {1 Workloads} *)

let office_hot =
  {
    heads = 1; bg_clean = false; io_depth = 8; files = 32; ops_per_client = 2000;
    rate = 160.0; ladder = [ 80.0; 120.0; 160.0; 200.0; 240.0 ]; prefill = true;
    sub_seeds = 5;
  }

let office_full =
  {
    heads = 2; bg_clean = true; io_depth = 1; files = 512; ops_per_client = 1000;
    rate = 16.0; ladder = []; prefill = false; sub_seeds = 3;
  }

type workload = Office of office | Churn

let workloads =
  [ ("office-hot", Office office_hot); ("office-full", Office office_full);
    ("churn-85", Churn) ]

let ops_of = function
  | Office w -> clients * w.ops_per_client
  | Churn -> churn_measured

(* Input streams a run measures, each from its own sub-seed; the run
   reports their median, so one stream's tail does not set a figure. *)
let distinct = function Office w -> w.sub_seeds | Churn -> 1
let sub_seed seed k = (seed * 7919) + k

(* {1 Samples: one set-up, one or more measurements from it} *)

let gated = { traced = false; gate = true; compared = false }

(* A repeat is not gated: it must end with the same device contents as
   the gated measurement of the same set-up. *)
let repeat = { traced = false; gate = false; compared = true }

type sample = {
  setups : float list;  (** host seconds of each set-up *)
  runs : phase list;  (** one per plan, in order *)
  pre_ops : int;  (** operations of the set-up (churn's warm-up) *)
  pre_failed : int;
}

type env = Office_env of office * Stack.t * int | Churn_env of churn

let run_sample wl ~seed plans =
  let ops = ops_of wl in
  let lost_all ?(problems = []) why =
    {
      setups = [];
      runs = List.map (fun _ -> { (lost ~ops why) with problems }) plans;
      pre_ops = 0;
      pre_failed = 0;
    }
  in
  let measure env plan =
    Gc.compact ();
    match env with
    | Office_env (w, st, seed) -> office_measure w st ~seed plan
    | Churn_env c -> churn_measure c plan
  in
  let body () =
    let setup =
      match wl with
      | Office w ->
          Trace.arm ~seconds:phase_bound_s ~idle:max_int;
          let r = catch_cut (fun () -> office_setup w ~seed) in
          Trace.disarm ();
          Result.map (fun (st, setups) -> (Office_env (w, st, seed), setups, 0, 0)) r
      | Churn ->
          Result.map
            (fun (c, setups) -> (Churn_env c, setups, c.warm_ops, c.warm_failed))
            (churn_setup ~seed)
    in
    match setup with
    | Error why -> lost_all ("in set-up: " ^ why)
    | Ok (env, setups, pre_ops, pre_failed) ->
        let kill_at = !kill_at -. nested_margin_s in
        let runs =
          List.map
            (function
              | Done p -> p
              | Killed -> lost ~ops "killed at the invocation bound"
              | Died why ->
                  { (lost ~ops why) with problems = [ "measurement died: " ^ why ] })
            (in_children ~kill_at (List.map (fun plan () -> measure env plan) plans))
        in
        { setups; runs; pre_ops; pre_failed }
  in
  match in_child ~kill_at:!kill_at body with
  | Done s -> s
  | Killed -> lost_all "killed at the invocation bound"
  | Died why -> lost_all ~problems:[ "set-up died: " ^ why ] why

(* Problems if two measurements forked from one set-up did not end
   alike.  [strict] also compares allocation and peak heap, which
   tracing changes. *)
let same_end ~what ~strict (a : phase) (b : phase) =
  if a.cut <> None || b.cut <> None then []
  else
    let num n x y = if x = y then [] else [ Printf.sprintf "%s %.17g then %.17g" n x y ] in
    let diffs =
      List.concat_map
        (fun (n, x) ->
          match List.assoc_opt n b.modelled with Some y -> num n x y | None -> [])
        a.modelled
      @ (if strict then num "alloc words" a.words b.words @ num "peak heap MB" a.heap_mb b.heap_mb
         else [])
      @ if a.digest = b.digest then [] else [ "device contents differ" ]
    in
    List.map (fun d -> what ^ " did not repeat exactly: " ^ d) diffs

(* {1 Output} *)

(* The metrics by name; run.py attaches the units BENCHMARK.json lists. *)
let print_result ~correct ~attempted ~failed kvs =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %.17g" k v) kvs))

let report_line name values =
  let q a = quantile values a in
  Printf.printf "  %-22s median %-12.6g q1 %-12.6g q3 %-12.6g n=%d\n" name (q 0.5)
    (q 0.25) (q 0.75) (List.length values)

(* {1 Runs} *)

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;
  metrics : (string * float) list;
}

let collect (samples : sample list) =
  let phases = List.concat_map (fun s -> s.runs) samples in
  let sum f = List.fold_left (fun a x -> a + f x) 0 in
  let attempted = sum (fun (p : phase) -> p.ops) phases + sum (fun s -> s.pre_ops) samples in
  let failed = sum (fun (p : phase) -> p.failed) phases + sum (fun s -> s.pre_failed) samples in
  let problems =
    List.concat_map
      (fun (p : phase) ->
        (match p.cut with
        | Some why -> [ "cut off (counted as failed): " ^ why ]
        | None -> [])
        @ p.problems)
      phases
  in
  (attempted, failed, problems)

(* End-to-end run: one gated measurement of each of [distinct]
   sub-seeds, plus one ungated repeat forked from the first sub-seed's
   set-up, which must end exactly as the gated one did. *)
let run_untraced name wl ~seed =
  let samples =
    List.init (distinct wl) (fun k ->
        run_sample wl ~seed:(sub_seed seed k)
          (if k = 0 then [ { gated with compared = true }; repeat ] else [ gated ]))
  in
  let firsts = List.map (fun s -> List.hd s.runs) samples in
  let repeats = List.concat_map (fun s -> List.tl s.runs) samples in
  let drift =
    match samples with
    | { runs = a :: b :: _; _ } :: _ -> same_end ~what:"sub-seed 0" ~strict:true a b
    | _ -> []
  in
  (* Ladder rungs other than the measured one feed [max_rate_at_slo]
     only.  Each rung's p99 is the median over the same sub-seeds as the
     measured rung's, which is the reported [write_p99_ms]. *)
  let uncut = List.filter (fun p -> p.cut = None) in
  let all_uncut = List.for_all (fun p -> p.cut = None) in
  let p99 ps = median (List.map (fun p -> List.assoc "write_p99_ms" p.modelled) ps) in
  let rungs, extra =
    match wl with
    | Office w when w.ladder <> [] && all_uncut firsts ->
        let extra = ref [] in
        let run_rung rate =
          let ss =
            List.init (distinct wl) (fun k ->
                run_sample (Office { w with rate }) ~seed:(sub_seed seed k) [ gated ])
          in
          extra := !extra @ ss;
          let ps = List.map (fun s -> List.hd s.runs) ss in
          if all_uncut ps then Some (rate, p99 ps) else None
        in
        let rungs = ladder w ~measured:(w.rate, p99 firsts) ~run_rung in
        (rungs, !extra)
    | _ -> ([], [])
  in
  let setups = List.concat_map (fun s -> s.setups) (samples @ extra) in
  let attempted, failed, problems = collect (samples @ extra) in
  (* Cut-off phases count as failed operations and feed no figure. *)
  let ok = uncut firsts in
  let med f l = if l = [] then 0.0 else median (List.map f l) in
  let modelled name = med (fun p -> List.assoc name p.modelled) ok in
  let host_rate p = float_of_int p.ops /. p.host_s in
  let e2e =
    [
      ("host_ops_per_s", med host_rate (uncut (firsts @ repeats)));
      ("alloc_words_per_op", med (fun p -> p.words /. float_of_int p.ops) ok);
      ("peak_heap_mb", med (fun p -> p.heap_mb) ok);
      ("setup_s", if setups = [] then 0.0 else median setups);
    ]
    @ List.map
        (fun n -> (n, modelled n))
        [ "write_p50_ms"; "write_p99_ms"; "read_p50_ms"; "read_p99_ms";
          "served_ops_per_s" ]
    @ [
        ( "max_rate_at_slo",
          match wl with
          | Office w when w.ladder <> [] -> max_rate_at_slo rungs
          | _ -> modelled "max_rate_at_slo" );
        ("disk_ms_per_op", modelled "disk_ms_per_op");
        ("write_cost", modelled "write_cost");
        ("ok_frac", 1.0 -. ratio (float_of_int failed) (float_of_int attempted));
      ]
  in
  Printf.printf "workload %s seed %d: %d set-ups, %d measured phases, %d ops attempted, %d failed\n"
    name seed (List.length (samples @ extra))
    (List.length (firsts @ repeats) + List.length extra)
    attempted failed;
  report_line "host_ops_per_s" (List.map host_rate (uncut (firsts @ repeats)));
  report_line "setup_s" setups;
  List.iter
    (fun (n, _) -> report_line n (List.map (fun p -> List.assoc n p.modelled) ok))
    (match ok with p :: _ -> p.modelled | [] -> []);
  List.iter
    (fun (r, p) -> Printf.printf "  ladder %6.1f ops/s offered: write p99 %.1f ms\n" r p)
    rungs;
  { attempted; failed; problems = problems @ drift; metrics = e2e }

(* Traced run: sub-seed 0 measured untraced, traced, untraced again from
   one set-up, so the tracing overhead compares the same input from the
   same state.  The traced pass is gated; the untraced ones must end as
   it did, and as each other. *)
let run_traced name wl ~seed =
  let plain = repeat and traced = { traced = true; gate = true; compared = true } in
  let s = run_sample wl ~seed:(sub_seed seed 0) [ plain; traced; plain ] in
  let before, traced, after =
    match s.runs with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  let attempted, failed, problems = collect [ s ] in
  let drift =
    same_end ~what:"untraced sub-seed 0" ~strict:true before after
    @ same_end ~what:"traced sub-seed 0" ~strict:false before traced
  in
  let plain_s = (before.host_s +. after.host_s) /. 2.0 in
  let overhead = finite_or_zero (ratio traced.host_s plain_s -. 1.0) in
  Printf.printf
    "workload %s seed %d traced: measured phase %.3f s elapsed; processor \
     %.3f s traced, %.3f and %.3f s untraced (overhead %+.2f%%)\n"
    name seed traced.wall_s traced.host_s before.host_s after.host_s
    (100.0 *. overhead);
  {
    attempted; failed; problems = problems @ drift;
    metrics = (if traced.layer = [] then [] else traced.layer @ [ ("trace.overhead_frac", overhead) ]);
  }

(* The known multi-head idle-checkpoint livelock, as
   [serve --clients 16 --ops 2000 --seed 42 --fs lfs:heads=2 --bg-clean]
   runs it (io-depth 1, 50 ms think, 32 files per client), must end as
   a cut-off run whose operations all count as failed, on a device that
   still recovers cleanly. *)
let selftest () =
  let w =
    {
      heads = 2; bg_clean = true; io_depth = 1; files = 32; ops_per_client = 2000;
      rate = float_of_int clients /. Engine.default.Engine.think_mean_s;
      ladder = []; prefill = false; sub_seeds = 1;
    }
  in
  let t0 = Trace.now () in
  let ph = List.hd (run_sample (Office w) ~seed:42 [ gated ]).runs in
  let dt = Trace.now () -. t0 in
  List.iter (fun p -> print_endline ("PROBLEM " ^ p)) ph.problems;
  match ph.cut with
  | Some why when ph.failed = ph.ops && ph.problems = [] ->
      Printf.printf
        "selftest: PASS: run cut off after %.1f s (%s); %d of %d operations \
         counted as failed; the device recovers and passes fsck\n"
        dt why ph.failed ph.ops;
      0
  | Some why ->
      Printf.printf "selftest: FAIL: cut off (%s) but %d of %d counted, %d problems\n"
        why ph.failed ph.ops (List.length ph.problems);
      1
  | None ->
      Printf.printf
        "selftest: the known livelock no longer reproduces: the run ended on \
         its own in %.1f s with %d failed operations\n"
        dt ph.failed;
      if ph.problems = [] then 0 else 1

let main () =
  let t_start = Trace.now () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Trace.stop_at := t_start +. cut_bound_s;
  kill_at := t_start +. kill_bound_s;
  let workload = ref "" and seed = ref 1 in
  let trace = ref 0 and out = ref ".perfbench" and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME office-hot | office-full | churn-85");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--out", Arg.Set_string out, "DIR where span dumps go");
      ("--selftest", Arg.Set self, " watchdog self-test on the known livelock");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "lfsbench --workload NAME --seed N --trace 0|1";
  if !self then exit (selftest ());
  let wl =
    match List.assoc_opt !workload workloads with
    | Some wl -> wl
    | None ->
        prerr_endline ("lfsbench: unknown workload " ^ !workload);
        exit 2
  in
  span_file := Filename.concat !out (Printf.sprintf "spans-%s-%d.tsv" !workload !seed);
  let o =
    if !trace = 1 then run_traced !workload wl ~seed:!seed
    else run_untraced !workload wl ~seed:!seed
  in
  List.iter (fun p -> print_endline ("PROBLEM " ^ p)) o.problems;
  let correct =
    List.for_all
      (fun p -> String.starts_with ~prefix:"cut off" p)
      o.problems
  in
  print_result ~correct ~attempted:o.attempted ~failed:o.failed o.metrics

let () = main ()
