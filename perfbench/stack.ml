(* The benchmark's own stack:

     Disk -> wrapped Vdev.t -> Fs.format / Fs.mount -> Fsops.of_lfs
          -> wrapped Fsops.t -> (Engine.run | churn loop)

   The two wrappers forward every closure of the library's records and
   put a span around each call, so each layer's host time and
   allocation land on a named layer.  The Fsops wrapper also keeps a
   shadow of acknowledged writes for the correctness gate and ticks the
   run watchdog. *)

module Disk = Lfs_disk.Disk
module Vdev = Lfs_disk.Vdev
module Fs = Lfs_core.Fs
module Fsck = Lfs_core.Fsck
module Fsops = Lfs_workload.Fsops
module Metrics = Lfs_obs.Metrics

let r = Trace.register

(* {1 Span names} *)

let s_read_blocks = r "vdev.read_blocks" Trace.Vdev
let s_write_blocks = r "vdev.write_blocks" Trace.Vdev
let s_zero_blocks = r "vdev.zero_blocks" Trace.Vdev
let s_submit_read = r "vdev.submit_read" Trace.Vdev
let s_submit_write = r "vdev.submit_write" Trace.Vdev
let s_drain = r "vdev.drain" Trace.Vdev
let s_pump = r "vdev.pump" Trace.Vdev
let s_outstanding = r "vdev.outstanding_in" Trace.Vdev
let s_create = r "fs.create_path" Trace.Fs
let s_mkdir = r "fs.mkdir_path" Trace.Fs
let s_resolve = r "fs.resolve" Trace.Fs
let s_unlink = r "fs.unlink" Trace.Fs
let s_rmdir = r "fs.rmdir" Trace.Fs
let s_rename = r "fs.rename" Trace.Fs
let s_write = r "fs.write" Trace.Fs
let s_truncate = r "fs.truncate" Trace.Fs
let s_read = r "fs.read" Trace.Fs
let s_file_size = r "fs.file_size" Trace.Fs
let s_drop_caches = r "fs.drop_caches" Trace.Fs
let s_write_path = r "fs.write_path" Trace.Fs
let s_sync = r "log.sync" Trace.Log
let s_clean_step = r "cleaner.clean_step" Trace.Cleaner

(* {1 Device wrapper} *)

(* With tracing off a call costs a watchdog tick and nothing else, so
   the untraced runs measure the stack, not the harness. *)
let wrap_vdev (v : Vdev.t) : Vdev.t =
  let on () = Trace.tick (); !Trace.enabled in
  {
    v with
    read_blocks =
      (fun a n ->
        if on () then Trace.span s_read_blocks (fun () -> v.read_blocks a n)
        else v.read_blocks a n);
    write_blocks =
      (fun a b ->
        if on () then Trace.span s_write_blocks (fun () -> v.write_blocks a b)
        else v.write_blocks a b);
    zero_blocks =
      (fun a n ->
        if on () then Trace.span s_zero_blocks (fun () -> v.zero_blocks a n)
        else v.zero_blocks a n);
    submit_read =
      (fun ?now a n ->
        if on () then
          Trace.span s_submit_read (fun () -> v.submit_read ?now a n)
        else v.submit_read ?now a n);
    submit_write =
      (fun ?now a b ->
        if on () then
          Trace.span s_submit_write (fun () -> v.submit_write ?now a b)
        else v.submit_write ?now a b);
    drain =
      (fun () -> if on () then Trace.span s_drain v.drain else v.drain ());
    pump =
      (fun ~now ->
        if on () then Trace.span s_pump (fun () -> v.pump ~now)
        else v.pump ~now);
    outstanding_in =
      (fun ~lo ~hi ->
        if on () then
          Trace.span s_outstanding (fun () -> v.outstanding_in ~lo ~hi)
        else v.outstanding_in ~lo ~hi);
  }

(* {1 Shadow of acknowledged writes}

   The engine writes a uniform fill at offset 0, so a file's expected
   contents are a staircase: runs [(len, fill)] with strictly
   increasing [len], newest write first.  A write of [s] bytes drops the
   runs it covers and becomes the head.  Calls the shadow does not
   model are counted, and any such count fails the gate. *)

type shadow = {
  files : (string, (int * char) list) Hashtbl.t;
  path_of : (int, string) Hashtbl.t;
  mutable untracked : int;
}

let new_shadow () =
  { files = Hashtbl.create 1024; path_of = Hashtbl.create 1024; untracked = 0 }

let shadow_write sh ino ~off b =
  match Hashtbl.find_opt sh.path_of ino with
  | Some p when off = 0 && Bytes.length b > 0 ->
      let s = Bytes.length b in
      let runs = Option.value ~default:[] (Hashtbl.find_opt sh.files p) in
      let rec drop = function (l, _) :: rest when l <= s -> drop rest | rs -> rs in
      Hashtbl.replace sh.files p ((s, Bytes.get b 0) :: drop runs)
  | Some _ when Bytes.length b = 0 -> ()
  | _ -> sh.untracked <- sh.untracked + 1

let expected runs =
  let len = match List.rev runs with [] -> 0 | (l, _) :: _ -> l in
  let b = Bytes.create len in
  (* Oldest (longest) first, so newer, shorter runs overwrite the prefix. *)
  List.iter (fun (l, c) -> Bytes.fill b 0 l c) (List.rev runs);
  b

(* {1 Stack} *)

type t = {
  disk : Disk.t;
  fs : Fs.t;
  mutable ops : Fsops.t;  (** the wrapped driver record *)
  shadow : shadow;
  mutable log_batches : int;
  mutable log_blocks : int;
  mutable clean_steps : int;
  mutable useful_steps : int;
}

let wrap_fsops st (o : Fsops.t) : Fsops.t =
  let sh = st.shadow in
  let on () = Trace.foreground (); !Trace.enabled in
  let untracked () = sh.untracked <- sh.untracked + 1 in
  {
    o with
    create_path =
      (fun p ->
        let ino =
          if on () then Trace.span s_create (fun () -> o.create_path p)
          else o.create_path p
        in
        Hashtbl.replace sh.path_of ino p;
        if not (Hashtbl.mem sh.files p) then Hashtbl.replace sh.files p [];
        ino);
    mkdir_path =
      (fun p ->
        let ino =
          if on () then Trace.span s_mkdir (fun () -> o.mkdir_path p)
          else o.mkdir_path p
        in
        Hashtbl.replace sh.path_of ino p;
        ino);
    resolve =
      (fun p ->
        let res =
          if on () then Trace.span s_resolve (fun () -> o.resolve p)
          else o.resolve p
        in
        (match res with Some ino -> Hashtbl.replace sh.path_of ino p | None -> ());
        res);
    unlink =
      (fun ~dir n ->
        if on () then Trace.span s_unlink (fun () -> o.unlink ~dir n)
        else o.unlink ~dir n;
        match Hashtbl.find_opt sh.path_of dir with
        | Some d -> Hashtbl.remove sh.files (d ^ "/" ^ n)
        | None -> untracked ());
    rmdir =
      (fun ~dir n ->
        untracked ();
        if on () then Trace.span s_rmdir (fun () -> o.rmdir ~dir n)
        else o.rmdir ~dir n);
    rename =
      (fun ~odir a ~ndir b ->
        untracked ();
        if on () then Trace.span s_rename (fun () -> o.rename ~odir a ~ndir b)
        else o.rename ~odir a ~ndir b);
    write =
      (fun ino ~off b ->
        if on () then Trace.span s_write (fun () -> o.write ino ~off b)
        else o.write ino ~off b;
        shadow_write sh ino ~off b);
    truncate =
      (fun ino ~len ->
        untracked ();
        if on () then Trace.span s_truncate (fun () -> o.truncate ino ~len)
        else o.truncate ino ~len);
    read =
      (fun ino ~off ~len ->
        if on () then Trace.span s_read (fun () -> o.read ino ~off ~len)
        else o.read ino ~off ~len);
    file_size =
      (fun ino ->
        if on () then Trace.span s_file_size (fun () -> o.file_size ino)
        else o.file_size ino);
    sync = (fun () -> if on () then Trace.span s_sync o.sync else o.sync ());
    drop_caches =
      (fun () ->
        if on () then Trace.span s_drop_caches o.drop_caches
        else o.drop_caches ());
    on_log_batch =
      Option.map
        (fun register f ->
          register (fun ~blocks ->
              st.log_batches <- st.log_batches + 1;
              st.log_blocks <- st.log_blocks + blocks;
              f ~blocks))
        o.on_log_batch;
    clean_step =
      Option.map
        (fun step ~max_segments ->
          Trace.idle_step ();
          st.clean_steps <- st.clean_steps + 1;
          if !Trace.enabled then begin
            let before = Fs.clean_segment_count st.fs in
            let owed = Trace.span s_clean_step (fun () -> step ~max_segments) in
            if Fs.clean_segment_count st.fs > before then
              st.useful_steps <- st.useful_steps + 1;
            owed
          end
          else step ~max_segments)
        o.clean_step;
  }

let build ~geometry ~config =
  let disk = Disk.create geometry in
  let dev = wrap_vdev (Vdev.of_disk disk) in
  Fs.format dev config;
  let fs = Fs.mount dev in
  let st =
    {
      disk;
      fs;
      ops = Fsops.of_lfs fs;
      shadow = new_shadow ();
      log_batches = 0;
      log_blocks = 0;
      clean_steps = 0;
      useful_steps = 0;
    }
  in
  st.ops <- wrap_fsops st st.ops;
  st

(* {1 Correctness gate}

   Outside the timed window: roll the run's device forward with
   [Fs.recover] on a fresh unwrapped view, then require a clean fsck,
   clean registries and every file matching [check_files]. *)

let validate name m =
  List.map
    (fun (k, why) -> Printf.sprintf "metrics %s: %s %s" name k why)
    (Metrics.validate m)

(* The problems found; [check_files fs add] reports through [add].  The
   registries of a run that was cut off are not validated: it may be cut
   before its first operation, when gauges such as the cache hit rate
   still read 0/0. *)
let gate ?(registries = []) ~cut ~check_files st =
  let problems = ref [] in
  let add p = problems := p :: !problems in
  if not cut then
    List.iter
      (fun (n, m) -> List.iter add (validate n m))
      (registries @ [ ("run", Fs.metrics st.fs) ]);
  if st.shadow.untracked > 0 then
    add (Printf.sprintf "%d calls the shadow does not model" st.shadow.untracked);
  (match Fs.recover (Vdev.of_disk st.disk) with
  | exception e -> add ("recover raised " ^ Printexc.to_string e)
  | fs, _ ->
      check_files fs add;
      let rep = Fsck.check fs in
      List.iter (fun e -> add ("fsck: " ^ e)) rep.Fsck.errors;
      List.iter add (validate "recovered" (Fs.metrics fs)));
  List.rev !problems

(* Every file under [dirs] must match the shadow, and every shadowed
   file must exist. *)
let check_shadow st ~dirs fs add =
  let seen = ref 0 in
  List.iter
    (fun dir ->
      match Fs.resolve fs dir with
      | None -> add ("missing directory " ^ dir)
      | Some d ->
          List.iter
            (fun (n, _) ->
              let p = dir ^ "/" ^ n in
              incr seen;
              match Hashtbl.find_opt st.shadow.files p with
              | None -> add ("unexpected file " ^ p)
              | Some runs ->
                  if Fs.read_path fs p <> Some (expected runs) then
                    add ("contents differ: " ^ p))
            (Fs.readdir fs d))
    dirs;
  if !seen <> Hashtbl.length st.shadow.files then
    add
      (Printf.sprintf "%d files recovered, %d acknowledged" !seen
         (Hashtbl.length st.shadow.files))
