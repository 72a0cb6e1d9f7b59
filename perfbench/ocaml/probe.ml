(* Span tracer for the benchmark's traced runs.

   The benchmark wraps every boundary it controls — the routes and sinks
   it hands to hosts and links, the callbacks it registers, and every call
   it makes into a library — in [enter]/[leave].  The wiring is the same
   in plain and traced runs; a plain run's tracer is off and each wrapper
   costs one branch.

   A span records its kind, start, end, parent and [Gc.minor_words] at
   both ends.  Self time is the span minus its child spans.  Per kind the
   tracer folds calls, inclusive and self nanoseconds, self words and two
   log-linear histograms (inclusive and self ns) as spans close, so a run
   of millions of spans keeps a fixed footprint; the first [keep] spans
   are also kept whole and written out when the benchmark ends.  The
   tracer itself allocates nothing per span. *)

type kind =
  | Run_for
  | Link_send
  | Host_deliver
  | Cm_open
  | Cm_close
  | Cm_request
  | Cm_notify
  | Cm_update
  | Cm_grant_cb
  | Libcm_request
  | Libcm_update
  | Libcm_grant_cb
  | Udp_send
  | Udp_rx_cb
  | Tcp_rx_cb
  | Cmproto_send
  | Spec_elaborate
  | Spec_build
  | Spec_launch
  | Empty

let all_kinds =
  [
    Run_for; Link_send; Host_deliver; Cm_open; Cm_close; Cm_request; Cm_notify; Cm_update;
    Cm_grant_cb; Libcm_request; Libcm_update; Libcm_grant_cb; Udp_send; Udp_rx_cb; Tcp_rx_cb;
    Cmproto_send; Spec_elaborate; Spec_build; Spec_launch; Empty;
  ]

let index = function
  | Run_for -> 0
  | Link_send -> 1
  | Host_deliver -> 2
  | Cm_open -> 3
  | Cm_close -> 4
  | Cm_request -> 5
  | Cm_notify -> 6
  | Cm_update -> 7
  | Cm_grant_cb -> 8
  | Libcm_request -> 9
  | Libcm_update -> 10
  | Libcm_grant_cb -> 11
  | Udp_send -> 12
  | Udp_rx_cb -> 13
  | Tcp_rx_cb -> 14
  | Cmproto_send -> 15
  | Spec_elaborate -> 16
  | Spec_build -> 17
  | Spec_launch -> 18
  | Empty -> 19

let n_kinds = List.length all_kinds

(* Span name, and the layer its self time is charged to.  Callbacks the
   benchmark registers run application code, so their self time is the
   [app] layer's even where the metric name follows the layer that
   dispatches them. *)
let name = function
  | Run_for -> "eventsim.run_for"
  | Link_send -> "link.send"
  | Host_deliver -> "host.deliver"
  | Cm_open -> "cm.open"
  | Cm_close -> "cm.close"
  | Cm_request -> "cm.request"
  | Cm_notify -> "cm.notify"
  | Cm_update -> "cm.update"
  | Cm_grant_cb -> "cm.grant_cb"
  | Libcm_request -> "libcm.request"
  | Libcm_update -> "libcm.update"
  | Libcm_grant_cb -> "libcm.grant_cb"
  | Udp_send -> "udp.send"
  | Udp_rx_cb -> "udp.rx_cb"
  | Tcp_rx_cb -> "tcp.rx_cb"
  | Cmproto_send -> "cmproto.session_send"
  | Spec_elaborate -> "spec.elaborate"
  | Spec_build -> "spec.build"
  | Spec_launch -> "spec.launch"
  | Empty -> "bench.empty"

let layer = function
  | Run_for -> "eventsim"
  | Link_send -> "link"
  | Host_deliver -> "host"
  | Cm_open | Cm_close | Cm_request | Cm_notify | Cm_update -> "cm"
  | Libcm_request | Libcm_update -> "libcm"
  | Udp_send -> "udp"
  | Cmproto_send -> "cmproto"
  | Spec_elaborate | Spec_build | Spec_launch -> "spec"
  | Cm_grant_cb | Libcm_grant_cb | Udp_rx_cb | Tcp_rx_cb -> "app"
  | Empty -> "bench"

let layers = [ "eventsim"; "link"; "host"; "cm"; "libcm"; "udp"; "cmproto"; "app"; "spec"; "bench" ]

(* Nanosecond monotonic clock (CLOCK_MONOTONIC, unboxed, no allocation). *)
let now () = Int64.to_int (Monotonic_clock.now ())

(* ---- log-linear histogram: exact below 64 ns, then 32 buckets per
   power of two (about 3% resolution) ------------------------------------ *)

let sub_bits = 5
let max_exp = 46
let n_buckets = 64 + ((max_exp - 6 + 1) lsl sub_bits)

let rec log2 v acc = if v <= 1 then acc else log2 (v lsr 1) (acc + 1)

let bucket v =
  if v < 64 then if v < 0 then 0 else v
  else
    let e = Stdlib.min max_exp (log2 v 0) in
    64 + ((e - 6) lsl sub_bits) + ((v lsr (e - sub_bits)) land ((1 lsl sub_bits) - 1))

(* Midpoint of a bucket's range. *)
let bucket_value i =
  if i < 64 then i
  else
    let e = ((i - 64) lsr sub_bits) + 6 and sub = (i - 64) land ((1 lsl sub_bits) - 1) in
    let width = 1 lsl (e - sub_bits) in
    (((1 lsl sub_bits) + sub) * width) + (width / 2)

let percentile h ~count q =
  if count = 0 then 0
  else begin
    let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int count))) in
    let i = ref 0 and seen = ref 0 in
    while !seen + h.(!i) < rank do
      seen := !seen + h.(!i);
      incr i
    done;
    bucket_value !i
  end

(* The highest of p99.9 / p99 / p90 with at least ten samples beyond it;
   the median when there are fewer than 100 samples. *)
let tail_quantile count =
  match List.find_opt (fun q -> float_of_int count *. (1. -. q) >= 10.) [ 0.999; 0.99; 0.9 ] with
  | Some q -> q
  | None -> 0.5

(* ---- the tracer ------------------------------------------------------- *)

let max_depth = 64

type t = {
  mutable on : bool;
  mutable depth : int;
  st_kind : int array;
  st_start : int array;
  st_child_ns : int array;
  st_w0 : float array;
  st_child_w : float array;
  st_slot : int array;
  calls : int array;
  incl_ns : int array;
  self_ns : int array;
  self_w : float array;
  incl_w : float array;
  h_incl : int array array;
  h_self : int array array;
  keep : int;
  mutable kept : int;
  k_kind : int array;
  k_start : int array;
  k_end : int array;
  k_parent : int array;
  k_w0 : float array;
  k_w1 : float array;
  origin : int;
}

let create ?(keep = 20_000) ~on () =
  {
    on;
    depth = 0;
    st_kind = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child_ns = Array.make max_depth 0;
    st_w0 = Array.make max_depth 0.;
    st_child_w = Array.make max_depth 0.;
    st_slot = Array.make max_depth (-1);
    calls = Array.make n_kinds 0;
    incl_ns = Array.make n_kinds 0;
    self_ns = Array.make n_kinds 0;
    self_w = Array.make n_kinds 0.;
    incl_w = Array.make n_kinds 0.;
    h_incl = Array.init n_kinds (fun _ -> Array.make n_buckets 0);
    h_self = Array.init n_kinds (fun _ -> Array.make n_buckets 0);
    keep;
    kept = 0;
    k_kind = Array.make keep 0;
    k_start = Array.make keep 0;
    k_end = Array.make keep 0;
    k_parent = Array.make keep (-1);
    k_w0 = Array.make keep 0.;
    k_w1 = Array.make keep 0.;
    origin = now ();
  }

(* A tracer that is never switched on: the plain runs' wiring target. *)
let off = create ~keep:0 ~on:false ()

let enter t k =
  if t.on then begin
    let d = t.depth in
    let ki = index k in
    t.st_kind.(d) <- ki;
    t.st_child_ns.(d) <- 0;
    t.st_child_w.(d) <- 0.;
    let w0 = Gc.minor_words () in
    t.st_w0.(d) <- w0;
    if t.kept < t.keep then begin
      let s = t.kept in
      t.kept <- s + 1;
      t.st_slot.(d) <- s;
      t.k_kind.(s) <- ki;
      t.k_parent.(s) <- (if d > 0 then t.st_slot.(d - 1) else -1);
      t.k_w0.(s) <- w0
    end
    else t.st_slot.(d) <- -1;
    t.depth <- d + 1;
    (* read the clock last so the bookkeeping above is not charged to the span *)
    t.st_start.(d) <- now ()
  end

let leave t =
  if t.on then begin
    let stop = now () in
    let w1 = Gc.minor_words () in
    let d = t.depth - 1 in
    t.depth <- d;
    let k = t.st_kind.(d) in
    let incl = stop - t.st_start.(d) in
    let inclw = w1 -. t.st_w0.(d) in
    let self = incl - t.st_child_ns.(d) in
    t.calls.(k) <- t.calls.(k) + 1;
    t.incl_ns.(k) <- t.incl_ns.(k) + incl;
    t.self_ns.(k) <- t.self_ns.(k) + self;
    t.incl_w.(k) <- t.incl_w.(k) +. inclw;
    t.self_w.(k) <- t.self_w.(k) +. (inclw -. t.st_child_w.(d));
    let hi = t.h_incl.(k) and hs = t.h_self.(k) in
    let bi = bucket incl and bs = bucket self in
    hi.(bi) <- hi.(bi) + 1;
    hs.(bs) <- hs.(bs) + 1;
    if d > 0 then begin
      t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) + incl;
      t.st_child_w.(d - 1) <- t.st_child_w.(d - 1) +. inclw
    end;
    let s = t.st_slot.(d) in
    if s >= 0 then begin
      t.k_start.(s) <- t.st_start.(d);
      t.k_end.(s) <- stop;
      t.k_w1.(s) <- w1
    end
  end

(* Convenience for cold paths (set-up stages): not used per packet, where
   the closure would allocate. *)
let span t k f =
  enter t k;
  let r = f () in
  leave t;
  r

(* ---- reading the aggregates ------------------------------------------- *)

type stat = { s_calls : int; s_incl_ns : int; s_self_words : float; s_incl_words : float }

let stat t k =
  let i = index k in
  {
    s_calls = t.calls.(i);
    s_incl_ns = t.incl_ns.(i);
    s_self_words = t.self_w.(i);
    s_incl_words = t.incl_w.(i);
  }

let incl_percentile t k q =
  let i = index k in
  percentile t.h_incl.(i) ~count:t.calls.(i) q

let self_percentile t k q =
  let i = index k in
  percentile t.h_self.(i) ~count:t.calls.(i) q

(* Self nanoseconds of every span charged to [l] so far. *)
let layer_self_ns t l =
  List.fold_left (fun acc k -> if layer k = l then acc + t.self_ns.(index k) else acc) 0 all_kinds

(* The kept spans, for the trace file: times relative to the tracer's
   creation. *)
let kept_json t =
  let open Cm_util.Json in
  let names = Array.of_list (List.map name all_kinds) in
  List
    (List.init t.kept (fun s ->
         Obj
           [
             ("name", Str names.(t.k_kind.(s)));
             ("start_ns", Int (t.k_start.(s) - t.origin));
             ("end_ns", Int (t.k_end.(s) - t.origin));
             ("parent", Int t.k_parent.(s));
             ("minor_words_start", Int (int_of_float t.k_w0.(s)));
             ("minor_words_end", Int (int_of_float t.k_w1.(s)));
           ]))
