(* Host-clock spans around calls into each layer of the stack, plus the
   run watchdog.  Everything here is measured from outside the library:
   the wrappers in [Stack] call [span] around the public closures they
   forward to.  With tracing off a span is one branch and the watchdog's
   clock read, so untraced runs measure the end-to-end numbers. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

(* Monotonic host seconds, for spans and the watchdog. *)
let now () = Int64.to_float (clock_ns ()) *. 1e-9

(* Processor seconds of this process (user + system), for the
   end-to-end host figures: unlike elapsed time it does not count the
   time other processes on the machine hold the CPU. *)
let cpu () = Sys.time ()

(* Words allocated so far: minor plus direct-major (allocations too
   large for the minor heap), i.e. [Gc.allocated_bytes] in words. *)
let words_raw () =
  let mi, pro, ma = Gc.counters () in
  mi +. ma -. pro

(* {1 Layers} *)

type layer = Engine | Fs | Log | Cleaner | Vdev | Harness

let layers = [ Engine; Fs; Log; Cleaner; Vdev; Harness ]

let layer_name = function
  | Engine -> "engine"
  | Fs -> "fs"
  | Log -> "log"
  | Cleaner -> "cleaner"
  | Vdev -> "vdev"
  | Harness -> "harness"

(* {1 Span names}

   A small fixed set, registered once; a span is recorded by name id. *)

let names : (string * layer) array ref = ref [||]

let name id = fst !names.(id)

let max_names = 64

let register n layer =
  let id = Array.length !names in
  if id >= max_names then failwith "Trace.register: too many span names";
  names := Array.append !names [| (n, layer) |];
  id

(* {1 Accounting} *)

let enabled = ref false

let calls = Array.make max_names 0
let self_s = Array.make max_names 0.0
let self_w = Array.make max_names 0.0

(* The tracer's own reads of the allocation counters allocate a fixed
   number of words each; [words] subtracts them so per-layer
   allocation counts only the stack's work. *)
let reads = ref 0
let words_per_read = ref 0.0

let words () =
  let w = words_raw () in
  let r = !reads in
  incr reads;
  w -. (float_of_int r *. !words_per_read)

let calibrate () =
  words_per_read := 0.0;
  let a = words () in
  let b = words () in
  words_per_read := b -. a;
  reads := 0

(* Open spans, innermost last. *)
let max_depth = 64
let depth = ref 0
let st_span = Array.make max_depth 0
let st_child_s = Array.make max_depth 0.0
let st_child_w = Array.make max_depth 0.0

(* Recorded spans, kept in memory and written out when the run ends.
   Past [span_cap] spans only the accounting continues. *)
let span_cap = 2_000_000
let nspans = ref 0
let dropped = ref 0
let sp_name = ref (Array.make 0 0)
let sp_parent = ref (Array.make 0 0)
let sp_t0 = ref (Array.make 0 0.0)
let sp_t1 = ref (Array.make 0 0.0)
let origin = ref 0.0

let grow () =
  let n = Array.length !sp_name in
  let m = min span_cap (max 65536 (2 * n)) in
  let ext a fill =
    let b = Array.make m fill in
    Array.blit a 0 b 0 n;
    b
  in
  sp_name := ext !sp_name 0;
  sp_parent := ext !sp_parent (-1);
  sp_t0 := ext !sp_t0 0.0;
  sp_t1 := ext !sp_t1 0.0

let reset () =
  Array.fill calls 0 max_names 0;
  Array.fill self_s 0 max_names 0.0;
  Array.fill self_w 0 max_names 0.0;
  depth := 0;
  nspans := 0;
  dropped := 0;
  origin := now ();
  calibrate ()

let finish id t0 w0 =
  let t1 = now () in
  let w1 = words () in
  decr depth;
  let d = !depth in
  let dur = t1 -. t0 and dw = w1 -. w0 in
  calls.(id) <- calls.(id) + 1;
  self_s.(id) <- self_s.(id) +. (dur -. st_child_s.(d));
  self_w.(id) <- self_w.(id) +. (dw -. st_child_w.(d));
  let parent =
    if d > 0 then begin
      st_child_s.(d - 1) <- st_child_s.(d - 1) +. dur;
      st_child_w.(d - 1) <- st_child_w.(d - 1) +. dw;
      st_span.(d - 1)
    end
    else -1
  in
  let k = st_span.(d) in
  if k >= 0 then begin
    !sp_name.(k) <- id;
    !sp_parent.(k) <- parent;
    !sp_t0.(k) <- t0 -. !origin;
    !sp_t1.(k) <- t1 -. !origin
  end

(* [span id f] runs [f ()] inside a span named [id]. *)
let span id f =
  if not !enabled then f ()
  else begin
    let d = !depth in
    if d >= max_depth then failwith "Trace.span: nesting too deep";
    let k =
      if !nspans >= span_cap then (incr dropped; -1)
      else begin
        if !nspans >= Array.length !sp_name then grow ();
        let k = !nspans in
        incr nspans;
        k
      end
    in
    let t0 = now () in
    let w0 = words () in
    st_span.(d) <- k;
    st_child_s.(d) <- 0.0;
    st_child_w.(d) <- 0.0;
    depth := d + 1;
    match f () with
    | v ->
        finish id t0 w0;
        v
    | exception e ->
        finish id t0 w0;
        raise e
  end

let layer_sum arr layer =
  let acc = ref 0.0 in
  Array.iteri (fun id (_, l) -> if l = layer then acc := !acc +. arr.(id)) !names;
  !acc

let layer_self_s layer = layer_sum self_s layer
let layer_self_words layer = layer_sum self_w layer

let layer_calls layer =
  let acc = ref 0 in
  Array.iteri (fun id (_, l) -> if l = layer then acc := !acc + calls.(id)) !names;
  !acc

(* One line per span: id, parent id (-1 for a root), name, start and
   end in seconds from the start of the traced phase. *)
let dump path =
  let oc = open_out path in
  output_string oc "id\tparent\tname\tstart_s\tend_s\n";
  for k = 0 to !nspans - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%.9f\t%.9f\n" k !sp_parent.(k)
      (name !sp_name.(k)) !sp_t0.(k) !sp_t1.(k)
  done;
  close_out oc

(* {1 Watchdog}

   Every wrapped call ticks the watchdog.  A run is cut off when it
   passes its host-time deadline, or when the idle cleaner runs
   [idle_limit] steps in a row with no foreground call between them —
   a step that frees at most one segment cannot legitimately repeat
   more often than the disk has segments.  No deadline lies past
   [stop_at], the bound of the whole invocation. *)

exception Cut_off of string

let stop_at = ref infinity
let deadline = ref infinity
let idle_limit = ref max_int
let idle_run = ref 0

let arm ~seconds ~idle =
  deadline := Float.min (now () +. seconds) !stop_at;
  idle_limit := idle;
  idle_run := 0

let disarm () =
  deadline := infinity;
  idle_limit := max_int

(* Disarms before raising, so the engine's own clean-up (draining the
   device queues on the way out) runs to completion. *)
let cut why =
  disarm ();
  raise (Cut_off why)

let tick () = if now () > !deadline then cut "host-time bound reached"

let foreground () =
  idle_run := 0;
  tick ()

let idle_step () =
  incr idle_run;
  if !idle_run > !idle_limit then
    cut
      (Printf.sprintf "%d idle cleaner steps without a foreground call"
         !idle_run);
  tick ()
