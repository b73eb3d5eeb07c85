let base = 65521

(* zlib's NMAX: the most bytes whose sums can be accumulated from
   reduced starting values before [b] could exceed 2^32 - 1, so one
   [mod] per chunk gives the same result as one per byte. *)
let nmax = 5552

let adler32 ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Checksum.adler32: range out of bounds";
  let a = ref 1 and bsum = ref 0 in
  let i = ref pos and stop = pos + len in
  while !i < stop do
    let chunk_end = min stop (!i + nmax) in
    for j = !i to chunk_end - 1 do
      a := !a + Char.code (Bytes.unsafe_get b j);
      bsum := !bsum + !a
    done;
    a := !a mod base;
    bsum := !bsum mod base;
    i := chunk_end
  done;
  Int32.logor
    (Int32.shift_left (Int32.of_int !bsum) 16)
    (Int32.of_int !a)

let adler32_string s = adler32 (Bytes.unsafe_of_string s)
