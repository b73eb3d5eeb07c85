(* Exact LRU: an intrusive doubly-linked list threaded through the
   entries plus a hash table for lookup. *)

type node = {
  addr : int;
  mutable data : bytes;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  capacity : int;
  table : (int, node) Hashtbl.t;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  {
    capacity;
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
  }

let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.head <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  match t.head with
  | Some h when h == n -> ()
  | Some _ | None ->
      unlink t n;
      push_front t n

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.addr

let insert t addr data =
  if t.capacity > 0 then begin
    (match Hashtbl.find_opt t.table addr with
    | Some n ->
        n.data <- data;
        touch t n
    | None ->
        if Hashtbl.length t.table >= t.capacity then evict_lru t;
        let n = { addr; data; prev = None; next = None } in
        Hashtbl.replace t.table addr n;
        push_front t n)
  end

let read t ~fetch addr =
  match Hashtbl.find_opt t.table addr with
  | Some n ->
      t.hits <- t.hits + 1;
      touch t n;
      Bytes.copy n.data
  | None ->
      t.misses <- t.misses + 1;
      let b = fetch addr in
      insert t addr (Bytes.copy b);
      b

let put t addr data = insert t addr data

let invalidate t addr =
  match Hashtbl.find_opt t.table addr with
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table addr
  | None -> ()

let invalidate_range t addr n =
  for a = addr to addr + n - 1 do
    invalidate t a
  done

(* [lo, hi) is a maximal run of missing blocks: fetch it with one call
   below so a cold multi-block read still costs a single device IO.  The
   cache keeps its own copy of each block, so the fetched buffer stays
   the caller's. *)
let fetch_run t ~block_size:bs ~fetch addr lo hi =
  let count = hi - lo in
  t.misses <- t.misses + count;
  let b = fetch (addr + lo) count in
  for k = lo to hi - 1 do
    insert t (addr + k) (Bytes.sub b ((k - lo) * bs) bs)
  done;
  b

let rec any_cached t addr n =
  n > 0 && (Hashtbl.mem t.table addr || any_cached t (addr + 1) (n - 1))

let read_range t ~block_size:bs ~fetch addr n =
  if n > 0 && not (any_cached t addr n) then
    (* A complete miss: hand back the device's buffer as is. *)
    fetch_run t ~block_size:bs ~fetch addr 0 n
  else begin
    let out = Bytes.create (n * bs) in
    let fill lo hi =
      if hi > lo then
        Bytes.blit (fetch_run t ~block_size:bs ~fetch addr lo hi) 0 out
          (lo * bs) ((hi - lo) * bs)
    in
    let run = ref 0 in
    for i = 0 to n - 1 do
      match Hashtbl.find_opt t.table (addr + i) with
      | Some node ->
          fill !run i;
          run := i + 1;
          t.hits <- t.hits + 1;
          touch t node;
          Bytes.blit node.data 0 out (i * bs) bs
      | None -> ()
    done;
    fill !run n;
    out
  end

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.hits <- 0;
  t.misses <- 0

let hits t = t.hits
let misses t = t.misses
