type t = { lower : Vdev.t; cache : Block_cache.t; view : Vdev.t }

let make_view lower cache name =
  let bs = Vdev.block_size lower in
  (* Cache hits complete at submit time (a [Done] ticket); misses
     forward to the lower device and join its tickets. *)
  let submit_read ?now addr n =
    if Vdev.is_crashed lower then raise Vdev.Crashed;
    let tickets = ref [] in
    let fetch addr n =
      let tk, b = Vdev.submit_read ?now lower addr n in
      tickets := tk :: !tickets;
      b
    in
    let b = Block_cache.read_range cache ~block_size:bs ~fetch addr n in
    let tk =
      match !tickets with [] -> Io_queue.Done | ts -> Io_queue.Join ts
    in
    (tk, b)
  in
  let submit_write ?now addr b =
    let n = Bytes.length b / bs in
    (* Invalidate first: if the write below is torn, nothing stale
       survives in the cache. *)
    Block_cache.invalidate_range cache addr n;
    let tk = Vdev.submit_write ?now lower addr b in
    (* One copy per block, owned by the cache from here on: the caller
       keeps [b] and may reuse it. *)
    for i = 0 to n - 1 do
      Block_cache.put cache (addr + i) (Bytes.sub b (i * bs) bs)
    done;
    tk
  in
  let zero_blocks addr n =
    Block_cache.invalidate_range cache addr n;
    Vdev.zero_blocks lower addr n
  in
  {
    lower with
    Vdev.name;
    read_blocks = (fun addr n -> snd (submit_read addr n));
    write_blocks = (fun addr b -> ignore (submit_write addr b));
    zero_blocks;
    submit_read;
    submit_write;
  }

let create ?(name = "cache") ~capacity lower =
  let cache = Block_cache.create ~capacity in
  { lower; cache; view = make_view lower cache name }

let vdev t = t.view
let hits t = Block_cache.hits t.cache
let misses t = Block_cache.misses t.cache

let hit_rate t =
  let h = hits t and m = misses t in
  if h + m = 0 then Float.nan else float_of_int h /. float_of_int (h + m)

let clear t = Block_cache.clear t.cache

let register_metrics ?prefix metrics t =
  let module M = Lfs_obs.Metrics in
  let p = match prefix with Some p -> p | None -> "vdev." ^ t.view.Vdev.name in
  let g name f = M.gauge_fn metrics (p ^ "." ^ name) f in
  g "hits" (fun () -> float_of_int (hits t));
  g "misses" (fun () -> float_of_int (misses t));
  g "hit_rate" (fun () -> hit_rate t)
