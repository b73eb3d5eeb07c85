(* Unit and property tests for the utility substrate. *)

module Prng = Lfs_util.Prng
module Stats = Lfs_util.Stats
module Histogram = Lfs_util.Histogram
module Table = Lfs_util.Table
module Checksum = Lfs_util.Checksum

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  Alcotest.(check bool) "different" false (Prng.bits64 a = Prng.bits64 b)

let test_prng_int_range () =
  let p = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int p 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_covers () =
  let p = Prng.create ~seed:9 in
  let seen = Array.make 8 false in
  for _ = 1 to 500 do
    seen.(Prng.int p 8) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_prng_float_range () =
  let p = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Prng.float p 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_prng_bernoulli_bias () =
  let p = Prng.create ~seed:5 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.bernoulli p ~p:0.3 then incr hits
  done;
  let frac = float_of_int !hits /. 10_000.0 in
  Alcotest.(check bool) "near 0.3" true (frac > 0.27 && frac < 0.33)

let test_prng_split_independent () =
  let a = Prng.create ~seed:11 in
  let b = Prng.split a in
  Alcotest.(check bool) "streams differ" false (Prng.bits64 a = Prng.bits64 b)

let test_prng_exponential_mean () =
  let p = Prng.create ~seed:13 in
  let s = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add s (Prng.exponential p ~mean:5.0)
  done;
  Alcotest.(check bool) "mean near 5" true
    (Stats.mean s > 4.7 && Stats.mean s < 5.3)

let test_prng_shuffle_permutes () =
  let p = Prng.create ~seed:17 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "total" 10.0 (Stats.total s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max_value s);
  Alcotest.(check (float 1e-6)) "variance" (5.0 /. 3.0) (Stats.variance s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check (float 0.0)) "mean of empty" 0.0 (Stats.mean s);
  Alcotest.(check (float 0.0)) "variance of empty" 0.0 (Stats.variance s)

let test_stats_percentile () =
  let data = Array.init 101 float_of_int in
  Alcotest.(check (float 1e-9)) "median" 50.0 (Stats.percentile data 0.5);
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Stats.percentile data 0.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile data 1.0)

let test_histogram_basic () =
  let h = Histogram.create ~bins:10 in
  Histogram.add h 0.05;
  Histogram.add h 0.05;
  Histogram.add h 0.95;
  Alcotest.(check (float 1e-9)) "bin 0 fraction" (2.0 /. 3.0) (Histogram.fraction h 0);
  Alcotest.(check (float 1e-9)) "bin 9 fraction" (1.0 /. 3.0) (Histogram.fraction h 9);
  Alcotest.(check (float 1e-9)) "total" 3.0 (Histogram.total h)

let test_histogram_clamps () =
  let h = Histogram.create ~bins:4 in
  Histogram.add h (-1.0);
  Histogram.add h 2.0;
  Alcotest.(check (float 1e-9)) "low clamped" 0.5 (Histogram.fraction h 0);
  Alcotest.(check (float 1e-9)) "high clamped" 0.5 (Histogram.fraction h 3)

let test_histogram_series_sums_to_one () =
  let h = Histogram.create ~bins:7 in
  let p = Prng.create ~seed:23 in
  for _ = 1 to 100 do
    Histogram.add h (Prng.float p 1.0)
  done;
  let sum = Array.fold_left (fun acc (_, f) -> acc +. f) 0.0 (Histogram.to_series h) in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 sum

let test_histogram_merge () =
  let a = Histogram.create ~bins:4 and b = Histogram.create ~bins:4 in
  Histogram.add a 0.1;
  Histogram.add b 0.9;
  let m = Histogram.merge a b in
  Alcotest.(check (float 1e-9)) "merged total" 2.0 (Histogram.total m);
  Alcotest.(check (float 1e-9)) "bin0" 0.5 (Histogram.fraction m 0)

let test_table_renders () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333" ] ] in
  Alcotest.(check bool) "has header" true
    (String.length s > 0
    && String.index_opt s 'a' <> None
    && String.index_opt s '+' <> None)

let test_table_pads_short_rows () =
  let s = Table.render ~header:[ "x"; "y"; "z" ] [ [ "only" ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_checksum_stable () =
  let c1 = Checksum.adler32_string "hello world" in
  let c2 = Checksum.adler32_string "hello world" in
  Alcotest.(check int32) "deterministic" c1 c2

let test_checksum_differs () =
  Alcotest.(check bool) "different inputs differ" false
    (Checksum.adler32_string "hello" = Checksum.adler32_string "hellp")

let test_checksum_range () =
  let b = Bytes.make 100 'x' in
  let whole = Checksum.adler32 b in
  let part = Checksum.adler32 ~pos:10 ~len:50 b in
  Alcotest.(check bool) "range differs from whole" false (whole = part);
  Alcotest.(check int32) "range stable" part (Checksum.adler32 ~pos:10 ~len:50 b)

(* Byte-at-a-time Adler-32 (RFC 1950), reducing after every byte: the
   reference the deferred-modulo implementation must agree with. *)
let adler32_reference b pos len =
  let a = ref 1 and s = ref 0 in
  for i = pos to pos + len - 1 do
    a := (!a + Char.code (Bytes.get b i)) mod 65521;
    s := (!s + !a) mod 65521
  done;
  Int32.logor (Int32.shift_left (Int32.of_int !s) 16) (Int32.of_int !a)

let test_checksum_known_vector () =
  Alcotest.(check int32) "Wikipedia" 0x11E60398l (Checksum.adler32_string "Wikipedia");
  Alcotest.(check int32) "empty" 1l (Checksum.adler32_string "")

(* All-0xFF maximises both running sums, so this is where a chunk one
   byte too long would overflow 32 bits (and where zlib's NMAX bound is
   tight). *)
let test_checksum_all_ff () =
  let b = Bytes.make ((3 * 5552) + 17) '\xff' in
  Alcotest.(check int32) "whole" (adler32_reference b 0 (Bytes.length b)) (Checksum.adler32 b);
  Alcotest.(check int32) "offset" (adler32_reference b 3 (2 * 5552 + 1))
    (Checksum.adler32 ~pos:3 ~len:((2 * 5552) + 1) b)

let test_checksum_bounds () =
  let b = Bytes.make 16 'x' in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises "negative pos" (fun () -> Checksum.adler32 ~pos:(-1) ~len:4 b);
  raises "negative len" (fun () -> Checksum.adler32 ~pos:0 ~len:(-1) b);
  raises "past end" (fun () -> Checksum.adler32 ~pos:10 ~len:7 b);
  raises "pos past end" (fun () -> Checksum.adler32 ~pos:17 b);
  raises "overflowing range" (fun () -> Checksum.adler32 ~pos:8 ~len:max_int b);
  Alcotest.(check int32) "empty range at end" 1l (Checksum.adler32 ~pos:16 b)

let test_plot_renders () =
  let s =
    Lfs_util.Plot.render ~title:"t"
      [ { Lfs_util.Plot.label = "s"; points = [| (0.0, 1.0); (1.0, 2.0) |] } ]
  in
  Alcotest.(check bool) "non-empty with glyph" true
    (String.length s > 0 && String.contains s '*')

let test_plot_empty_series () =
  let s = Lfs_util.Plot.render ~title:"t" [ { Lfs_util.Plot.label = "e"; points = [||] } ] in
  Alcotest.(check bool) "renders without crash" true (String.length s > 0)

(* Property tests. *)

let prop_adler32_matches_reference =
  QCheck.Test.make ~count:300 ~name:"adler32 = byte-at-a-time reference"
    QCheck.(
      triple
        (string_of_size (Gen.int_bound ((3 * 5552) + 17)))
        (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
    (fun (s, fp, fl) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let pos = int_of_float (fp *. float_of_int n) in
      let len = int_of_float (fl *. float_of_int (n - pos)) in
      Checksum.adler32 ~pos ~len b = adler32_reference b pos len
      && Checksum.adler32 b = adler32_reference b 0 n)

let prop_codec_roundtrip =
  QCheck.Test.make ~count:200 ~name:"bytes_codec roundtrip"
    QCheck.(
      triple (int_bound 0xffff) (string_of_size (Gen.int_bound 200)) (float_bound_exclusive 1e9))
    (fun (n, s, f) ->
      let module C = Lfs_util.Bytes_codec in
      let b = Bytes.make 1024 '\000' in
      let w = C.writer b in
      C.put_u16 w n;
      C.put_string w s;
      C.put_float w f;
      C.put_int w (-n);
      let r = C.reader b in
      C.get_u16 r = n && C.get_string r = s
      && C.get_float r = f
      && C.get_int r = -n)

let prop_codec_overflow =
  QCheck.Test.make ~count:50 ~name:"bytes_codec overflow raises"
    QCheck.(int_range 1 64)
    (fun n ->
      let module C = Lfs_util.Bytes_codec in
      let b = Bytes.make n '\000' in
      let w = C.at b (max 0 (n - 4)) in
      match C.put_u64 w 1L with
      | () -> n - (n - 4) >= 8
      | exception C.Overflow _ -> true)

let prop_percentile_bounds =
  QCheck.Test.make ~count:100 ~name:"percentile within min/max"
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_bound_exclusive 1e6)) (float_bound_inclusive 1.0))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let v = Stats.percentile a p in
      let lo = Array.fold_left min a.(0) a and hi = Array.fold_left max a.(0) a in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* ----- Io_stats: copy/diff/merge round-trips ----- *)

module Io_stats = Lfs_disk.Io_stats

let arb_io_stats =
  let gen =
    QCheck.Gen.(
      map
        (fun (reads, writes, blocks_read, blocks_written, seeks, busy) ->
          {
            Io_stats.reads;
            writes;
            blocks_read;
            blocks_written;
            seeks;
            busy_s = float_of_int busy /. 16.0;
            queue_wait_s = float_of_int seeks /. 8.0;
            max_queue_depth = reads mod 32;
          })
        (tup6 (int_bound 1000) (int_bound 1000) (int_bound 10000)
           (int_bound 10000) (int_bound 1000) (int_bound 1000)))
  in
  QCheck.make
    ~print:(fun s -> Format.asprintf "%a" Io_stats.pp s)
    gen

let stats_equal a b =
  a.Io_stats.reads = b.Io_stats.reads
  && a.Io_stats.writes = b.Io_stats.writes
  && a.Io_stats.blocks_read = b.Io_stats.blocks_read
  && a.Io_stats.blocks_written = b.Io_stats.blocks_written
  && a.Io_stats.seeks = b.Io_stats.seeks
  && Float.abs (a.Io_stats.busy_s -. b.Io_stats.busy_s) < 1e-9
  (* max_queue_depth is a watermark, not additive — excluded here. *)
  && Float.abs (a.Io_stats.queue_wait_s -. b.Io_stats.queue_wait_s) < 1e-9

let prop_io_stats_copy_independent =
  QCheck.Test.make ~count:100 ~name:"io_stats copy is independent" arb_io_stats
    (fun s ->
      let c = Io_stats.copy s in
      let before = Io_stats.copy s in
      c.Io_stats.reads <- c.Io_stats.reads + 1;
      c.Io_stats.busy_s <- c.Io_stats.busy_s +. 1.0;
      stats_equal s before)

let prop_io_stats_merge_diff_roundtrip =
  QCheck.Test.make ~count:100 ~name:"io_stats diff (merge a b) b = a"
    QCheck.(pair arb_io_stats arb_io_stats)
    (fun (a, b) ->
      (* merge is commutative, and diff undoes it *)
      stats_equal (Io_stats.merge a b) (Io_stats.merge b a)
      && stats_equal (Io_stats.diff (Io_stats.merge a b) b) a)

let test_io_stats_merge_zero () =
  let z = Io_stats.create () in
  let s = Io_stats.create () in
  s.Io_stats.reads <- 3;
  s.Io_stats.blocks_read <- 7;
  s.Io_stats.busy_s <- 0.5;
  Alcotest.(check bool) "zero is neutral" true
    (stats_equal (Io_stats.merge s z) s && stats_equal (Io_stats.merge z s) s)

let test_io_stats_reset () =
  let s = Io_stats.create () in
  s.Io_stats.writes <- 9;
  s.Io_stats.busy_s <- 2.0;
  Io_stats.reset s;
  Alcotest.(check bool) "reset zeroes" true (stats_equal s (Io_stats.create ()))

let suite =
  ( "util",
    [
      Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
      Alcotest.test_case "prng seeds differ" `Quick test_prng_seeds_differ;
      Alcotest.test_case "prng int range" `Quick test_prng_int_range;
      Alcotest.test_case "prng int covers" `Quick test_prng_int_covers;
      Alcotest.test_case "prng float range" `Quick test_prng_float_range;
      Alcotest.test_case "prng bernoulli bias" `Quick test_prng_bernoulli_bias;
      Alcotest.test_case "prng split" `Quick test_prng_split_independent;
      Alcotest.test_case "prng exponential mean" `Quick test_prng_exponential_mean;
      Alcotest.test_case "prng shuffle permutes" `Quick test_prng_shuffle_permutes;
      Alcotest.test_case "stats basic" `Quick test_stats_basic;
      Alcotest.test_case "stats empty" `Quick test_stats_empty;
      Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
      Alcotest.test_case "histogram basic" `Quick test_histogram_basic;
      Alcotest.test_case "histogram clamps" `Quick test_histogram_clamps;
      Alcotest.test_case "histogram sums to one" `Quick test_histogram_series_sums_to_one;
      Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
      Alcotest.test_case "table renders" `Quick test_table_renders;
      Alcotest.test_case "table pads short rows" `Quick test_table_pads_short_rows;
      Alcotest.test_case "checksum stable" `Quick test_checksum_stable;
      Alcotest.test_case "checksum differs" `Quick test_checksum_differs;
      Alcotest.test_case "checksum range" `Quick test_checksum_range;
      Alcotest.test_case "checksum known vector" `Quick test_checksum_known_vector;
      Alcotest.test_case "checksum all 0xFF" `Quick test_checksum_all_ff;
      Alcotest.test_case "checksum bounds" `Quick test_checksum_bounds;
      Alcotest.test_case "plot renders" `Quick test_plot_renders;
      Alcotest.test_case "plot empty series" `Quick test_plot_empty_series;
      Alcotest.test_case "io_stats merge zero" `Quick test_io_stats_merge_zero;
      Alcotest.test_case "io_stats reset" `Quick test_io_stats_reset;
      QCheck_alcotest.to_alcotest prop_codec_roundtrip;
      QCheck_alcotest.to_alcotest prop_adler32_matches_reference;
      QCheck_alcotest.to_alcotest prop_codec_overflow;
      QCheck_alcotest.to_alcotest prop_percentile_bounds;
      QCheck_alcotest.to_alcotest prop_io_stats_copy_independent;
      QCheck_alcotest.to_alcotest prop_io_stats_merge_diff_roundtrip;
    ] )
