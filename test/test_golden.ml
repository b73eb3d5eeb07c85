(* Golden on-disk bytes: a fixed LFS run must leave exactly the device
   image it always has.  Host-side refactors of the write path (batch
   assembly, checksumming, caching) promise not to change one byte
   written to the device; this pins that promise.  A deliberate format
   change must re-record the digests below. *)

module Fs = Lfs_core.Fs
module Config = Lfs_core.Config
module Fs_stats = Lfs_core.Fs_stats
module Disk = Lfs_disk.Disk
module Vdev = Lfs_disk.Vdev
module Geometry = Lfs_disk.Geometry

(* Self-contained content generator, so the digests do not depend on
   any other module's random stream. *)
let content ~seed len =
  Bytes.init len (fun i -> Char.chr ((i * 31 + (i lsr 12) * 7 + seed * 101) land 0xff))

(* Format; create a directory of small files and eight 60-block files
   (past the 10 direct pointers, so with indirect blocks); overwrite them
   (whole and in part) until the clean pool is below the background
   watermark; unlink one file; sync;
   one background clean step; checkpoint.  Returns the device and how
   many segments with live data the clean step compacted. *)
let run heads =
  let disk = Disk.create (Geometry.instant ~blocks:1024) in
  let dev = Vdev.of_disk disk in
  Fs.format dev { Helpers.test_config with Config.log_heads = heads };
  let fs = Fs.mount dev in
  ignore (Fs.mkdir_path fs "/d");
  for i = 0 to 5 do
    Fs.write_path fs (Printf.sprintf "/d/s%d" i) (content ~seed:i (700 * (i + 1)))
  done;
  for f = 0 to 7 do
    Fs.write_path fs (Printf.sprintf "/big%d" f) (content ~seed:(100 + f) (60 * 4096 + 123))
  done;
  for round = 0 to 23 do
    let big = Printf.sprintf "/big%d" (round mod 8) in
    if round mod 4 = 3 then
      Fs.write_path fs big (content ~seed:(200 + round) (60 * 4096 + 123));
    (match Fs.resolve fs big with
    | Some ino ->
        Fs.write fs ino ~off:((round * 7 mod 50) * 4096 + 5) (content ~seed:(300 + round) 9000)
    | None -> assert false);
    Fs.write_path fs
      (Printf.sprintf "/d/s%d" (round mod 6))
      (content ~seed:(400 + round) (500 + (round * 97)));
    if round mod 3 = 2 then Fs.sync fs
  done;
  Fs.unlink fs ~dir:(Option.get (Fs.resolve fs "/d")) "s5";
  Fs.sync fs;
  let live_cleaned () =
    let st = Fs.stats fs in
    Fs_stats.segments_cleaned st - Fs_stats.segments_cleaned_empty st
  in
  let before = live_cleaned () in
  ignore (Fs.clean_step fs);
  let copied = live_cleaned () - before in
  Fs.checkpoint fs;
  (disk, copied)

let image_digest disk =
  Digest.to_hex (Digest.bytes (Disk.read_blocks disk 0 (Disk.nblocks disk)))

(* MD5 over every device block, recorded on the commit before the
   one-buffer batch assembly and the deferred-modulo Adler-32. *)
let golden =
  [ (1, "be1dc33124c6642ff4a0b740ace5bc07"); (2, "ae46620bec59d5d9b3674e009b005a4a") ]

let test_golden heads expect () =
  let disk, copied = run heads in
  Alcotest.(check bool) "clean step copied live data" true (copied > 0);
  Alcotest.(check string)
    (Printf.sprintf "device image, log_heads=%d" heads)
    expect (image_digest disk)

let suite =
  ( "golden",
    List.map
      (fun (heads, expect) ->
        Alcotest.test_case
          (Printf.sprintf "on-disk bytes, %d head%s" heads (if heads = 1 then "" else "s"))
          `Quick (test_golden heads expect))
      golden )
