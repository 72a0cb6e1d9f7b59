(* Tests for the CM core: controllers, schedulers, macroflow window
   accounting, and the public API. *)

open Cm_util
open Eventsim
open Netsim
open Cm_spec
open Cm

let mtu = 1000

let make_env () =
  let engine = Engine.create () in
  let cm = Cm.create engine ~mtu () in
  (engine, cm)

let flow_key ?(sport = 100) ?(dport = 200) ?(dst = 1) () =
  Addr.flow
    ~src:(Addr.endpoint ~host:0 ~port:sport)
    ~dst:(Addr.endpoint ~host:dst ~port:dport)
    ~proto:Addr.Udp ()

(* ------------------------------------------------------------------ *)
(* Controller tests *)

let test_aimd_slow_start () =
  let c = Controller.aimd () ~mtu in
  Alcotest.(check int) "initial window is one mtu" mtu (Controller.cwnd c);
  Alcotest.(check bool) "starts in slow start" true (Controller.in_slow_start c);
  Controller.on_ack c ~nbytes:mtu;
  Alcotest.(check int) "doubles per window acked" (2 * mtu) (Controller.cwnd c);
  Controller.on_ack c ~nbytes:(2 * mtu);
  Alcotest.(check int) "pure byte counting" (4 * mtu) (Controller.cwnd c);
  Controller.on_ack c ~nbytes:(4 * mtu);
  (* a large batched feedback event opens the window in one step *)
  Alcotest.(check int) "batched feedback opens fully" (8 * mtu) (Controller.cwnd c)

let test_aimd_transient_halves () =
  let c = Controller.aimd () ~mtu in
  for _ = 1 to 10 do
    Controller.on_ack c ~nbytes:mtu
  done;
  let before = Controller.cwnd c in
  Controller.on_loss c Cm_types.Transient;
  Alcotest.(check int) "halved" (Stdlib.max (before / 2) (2 * mtu)) (Controller.cwnd c);
  Alcotest.(check bool) "no longer in slow start" false (Controller.in_slow_start c)

let test_aimd_persistent_collapses () =
  let c = Controller.aimd () ~mtu in
  for _ = 1 to 10 do
    Controller.on_ack c ~nbytes:mtu
  done;
  Controller.on_loss c Cm_types.Persistent;
  Alcotest.(check int) "back to one mtu" mtu (Controller.cwnd c);
  Alcotest.(check bool) "slow start restarts" true (Controller.in_slow_start c)

let test_aimd_congestion_avoidance_linear () =
  let c = Controller.aimd () ~mtu in
  Controller.on_ack c ~nbytes:mtu;
  Controller.on_loss c Cm_types.Transient;
  (* now in congestion avoidance at ssthresh *)
  let w0 = Controller.cwnd c in
  (* acking one full window grows the window by exactly one mtu *)
  let rec ack_window remaining =
    if remaining > 0 then begin
      let chunk = Stdlib.min remaining mtu in
      Controller.on_ack c ~nbytes:chunk;
      ack_window (remaining - chunk)
    end
  in
  ack_window w0;
  Alcotest.(check int) "one mtu per window" (w0 + mtu) (Controller.cwnd c)

let test_aimd_floor_and_reset () =
  let c = Controller.aimd () ~mtu in
  for _ = 1 to 5 do
    Controller.on_loss c Cm_types.Persistent
  done;
  Alcotest.(check bool) "never below one mtu" true (Controller.cwnd c >= mtu);
  for _ = 1 to 20 do
    Controller.on_ack c ~nbytes:mtu
  done;
  Controller.reset c;
  Alcotest.(check int) "reset restores initial window" mtu (Controller.cwnd c)

let test_aimd_ecn_like_transient () =
  let c1 = Controller.aimd () ~mtu and c2 = Controller.aimd () ~mtu in
  for _ = 1 to 8 do
    Controller.on_ack c1 ~nbytes:mtu;
    Controller.on_ack c2 ~nbytes:mtu
  done;
  Controller.on_loss c1 Cm_types.Transient;
  Controller.on_loss c2 Cm_types.Ecn_echo;
  Alcotest.(check int) "ecn reduces like transient" (Controller.cwnd c1)
    (Controller.cwnd c2)

let test_binomial_aimd_equivalence () =
  (* (k=0, l=1) must behave as AIMD: halve on loss *)
  let c = Controller.binomial ~k:0. ~l:1. () ~mtu in
  for _ = 1 to 16 do
    Controller.on_ack c ~nbytes:mtu
  done;
  let before = Controller.cwnd c in
  Controller.on_loss c Cm_types.Transient;
  let after = Controller.cwnd c in
  Alcotest.(check bool)
    (Printf.sprintf "halves on loss (%d -> %d)" before after)
    true
    (abs (after - (before / 2)) <= mtu)

let test_binomial_sqrt_gentler () =
  (* SQRT decreases less than AIMD from the same window *)
  let a = Controller.binomial ~k:0. ~l:1. () ~mtu in
  let s = Controller.binomial ~k:0.5 ~l:0.5 () ~mtu in
  for _ = 1 to 20 do
    Controller.on_ack a ~nbytes:mtu;
    Controller.on_ack s ~nbytes:mtu
  done;
  let wa = Controller.cwnd a and ws = Controller.cwnd s in
  Controller.on_loss a Cm_types.Transient;
  Controller.on_loss s Cm_types.Transient;
  let da = wa - Controller.cwnd a and ds = ws - Controller.cwnd s in
  Alcotest.(check bool)
    (Printf.sprintf "sqrt decrease %d < aimd decrease %d" ds da)
    true (ds < da)


let test_equation_slow_starts_then_tracks_loss_rate () =
  let c = Controller.equation () ~mtu in
  Alcotest.(check bool) "slow start before first loss" true (Controller.in_slow_start c);
  for _ = 1 to 10 do
    Controller.on_ack c ~nbytes:mtu
  done;
  Alcotest.(check bool) "window grew" true (Controller.cwnd c > 5 * mtu);
  (* a loss event every 50 mtu of acked data: p = 1/50, W = mtu*sqrt(75) ~ 8.6 mtu *)
  for _ = 1 to 10 do
    for _ = 1 to 50 do
      Controller.on_ack c ~nbytes:mtu
    done;
    Controller.on_loss c Cm_types.Transient
  done;
  let w = Controller.cwnd c in
  Alcotest.(check bool)
    (Printf.sprintf "window near equation value (%d)" w)
    true
    (w > 6 * mtu && w < 12 * mtu)

let test_equation_smoother_than_aimd () =
  (* after a steady loss pattern, one more loss barely moves the equation
     window while AIMD halves *)
  let e = Controller.equation () ~mtu and a = Controller.aimd () ~mtu in
  for _ = 1 to 10 do
    for _ = 1 to 50 do
      Controller.on_ack e ~nbytes:mtu;
      Controller.on_ack a ~nbytes:mtu
    done;
    Controller.on_loss e Cm_types.Transient;
    Controller.on_loss a Cm_types.Transient
  done;
  let we0 = Controller.cwnd e and wa0 = Controller.cwnd a in
  for _ = 1 to 50 do
    Controller.on_ack e ~nbytes:mtu;
    Controller.on_ack a ~nbytes:mtu
  done;
  Controller.on_loss e Cm_types.Transient;
  Controller.on_loss a Cm_types.Transient;
  let de = abs (Controller.cwnd e - we0) and da = abs (Controller.cwnd a - wa0) in
  Alcotest.(check bool)
    (Printf.sprintf "equation moved %d vs aimd %d" de da)
    true (de * 2 < da)

let test_equation_reset () =
  let c = Controller.equation () ~mtu in
  for _ = 1 to 100 do
    Controller.on_ack c ~nbytes:mtu
  done;
  Controller.on_loss c Cm_types.Transient;
  Controller.reset c;
  Alcotest.(check int) "initial window restored" mtu (Controller.cwnd c);
  Alcotest.(check bool) "back in slow start" true (Controller.in_slow_start c)

(* ------------------------------------------------------------------ *)
(* Scheduler tests *)

(* the first [n] dequeues, minus the empty sentinel [-1] *)
let drain sched n =
  List.init n (fun _ -> Scheduler.dequeue sched) |> List.filter (fun id -> id <> -1)

let test_rr_alternates () =
  let s = Scheduler.round_robin () in
  Scheduler.enqueue s 1;
  Scheduler.enqueue s 1;
  Scheduler.enqueue s 2;
  Scheduler.enqueue s 2;
  Alcotest.(check (list int)) "alternates flows" [ 1; 2; 1; 2 ] (drain s 4);
  Alcotest.(check int) "then empty" (-1) (Scheduler.dequeue s)

let test_rr_remove_purges () =
  let s = Scheduler.round_robin () in
  Scheduler.enqueue s 1;
  Scheduler.enqueue s 2;
  Scheduler.enqueue s 1;
  Scheduler.remove s 1;
  Alcotest.(check (list int)) "only flow 2 remains" [ 2 ] (drain s 3);
  Alcotest.(check int) "pending zero" 0 (Scheduler.pending s)

let test_rr_pending_counts () =
  let s = Scheduler.round_robin () in
  for _ = 1 to 5 do
    Scheduler.enqueue s 7
  done;
  Scheduler.enqueue s 9;
  Alcotest.(check int) "pending total" 6 (Scheduler.pending s);
  Alcotest.(check int) "pending for 7" 5 (Scheduler.pending_for s 7);
  Alcotest.(check int) "pending for 9" 1 (Scheduler.pending_for s 9)

let test_weighted_proportional () =
  let s = Scheduler.weighted () in
  Scheduler.set_weight s 1 3.0;
  Scheduler.set_weight s 2 1.0;
  for _ = 1 to 40 do
    Scheduler.enqueue s 1;
    Scheduler.enqueue s 2
  done;
  let grants = drain s 40 in
  let n1 = List.length (List.filter (( = ) 1) grants) in
  let n2 = List.length (List.filter (( = ) 2) grants) in
  Alcotest.(check bool)
    (Printf.sprintf "3:1 split (%d vs %d)" n1 n2)
    true
    (n1 >= 27 && n1 <= 33 && n1 + n2 = 40)

(* Pass rebasing must be invisible to fairness.  Weights scaled by 2^-24
   make the strides 10^6 * 2^24 and 10^5 * 2^24, exact integers, and the
   global pass crosses the 10^15 threshold every ~660 grants: ~15k
   rebases over 10M grants, and the 10:1 weight split has to survive
   every one of them. *)
let test_stride_rebase_fairness () =
  let s = Scheduler.weighted () in
  Scheduler.set_weight s 1 (Float.ldexp 1.0 (-24));
  Scheduler.set_weight s 2 (Float.ldexp 10.0 (-24));
  Scheduler.enqueue s 1;
  Scheduler.enqueue s 2;
  let n1 = ref 0 and n2 = ref 0 in
  let total = 10_000_000 in
  for _ = 1 to total do
    match Scheduler.dequeue s with
    | 1 ->
        incr n1;
        Scheduler.enqueue s 1
    | 2 ->
        incr n2;
        Scheduler.enqueue s 2
    | _ -> Alcotest.fail "scheduler ran dry"
  done;
  let ratio = float_of_int !n2 /. float_of_int !n1 in
  Alcotest.(check int) "every grant accounted" total (!n1 + !n2);
  Alcotest.(check bool)
    (Printf.sprintf "10:1 split after 10M grants across rebases (%d vs %d)" !n2 !n1)
    true
    (ratio > 9.9 && ratio < 10.1)

(* Every weight outside (0, inf) whose stride 10^6 / w is not finite is
   refused, NaN included: [nan <= 0.] is false, so a sign test alone let a
   NaN weight through, and its NaN pass took grants it had no share to. *)
let test_stride_rejects_bad_weights () =
  List.iter
    (fun w ->
      let s = Scheduler.weighted () in
      match Scheduler.set_weight s 1 w with
      | () -> Alcotest.failf "weight %h accepted" w
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity; 0.; -0.; -1.; 1e-320 ];
  let s = Scheduler.weighted () in
  Scheduler.set_weight s 1 1e-300;
  Scheduler.set_weight s 2 Float.max_float;
  Scheduler.enqueue s 1;
  Scheduler.enqueue s 2;
  Alcotest.(check (list int)) "extreme finite weights still schedule" [ 1; 2 ] (drain s 2)

(* Reference for the stride grant order: a list scan over the same float
   pass arithmetic, minimum pass first, ties FIFO by a stamp refreshed
   every time a flow is re-keyed. *)
type model_flow = {
  m_id : int;
  mutable m_count : int;
  mutable m_weight : float;
  mutable m_pass : float;
  mutable m_stamp : int;
}

type stride_op = Enq of int | Deq | Rem of int | Weight of int * float

let show_op = function
  | Enq i -> Printf.sprintf "enq %d" i
  | Deq -> "deq"
  | Rem i -> Printf.sprintf "rem %d" i
  | Weight (i, w) -> Printf.sprintf "weight %d %g" i w

let model_run ops =
  let flows = ref [] and global = ref 0. and stamp = ref 0 in
  let fresh () =
    incr stamp;
    !stamp
  in
  let flow id =
    match List.find_opt (fun f -> f.m_id = id) !flows with
    | Some f -> f
    | None ->
        let f = { m_id = id; m_count = 0; m_weight = 1.0; m_pass = !global; m_stamp = 0 } in
        flows := f :: !flows;
        f
  in
  List.filter_map
    (function
      | Enq id ->
          let f = flow id in
          f.m_count <- f.m_count + 1;
          if f.m_count = 1 then begin
            f.m_pass <- Float.max !global f.m_pass;
            f.m_stamp <- fresh ()
          end;
          None
      | Deq -> (
          let better a b = a.m_pass < b.m_pass || (a.m_pass = b.m_pass && a.m_stamp < b.m_stamp) in
          let pick =
            List.fold_left
              (fun best f ->
                if f.m_count = 0 then best
                else match best with Some b when not (better f b) -> best | _ -> Some f)
              None !flows
          in
          match pick with
          | None -> Some (-1)
          | Some f ->
              global := f.m_pass;
              f.m_count <- f.m_count - 1;
              f.m_pass <- f.m_pass +. (1_000_000. /. f.m_weight);
              f.m_stamp <- fresh ();
              Some f.m_id)
      | Rem id ->
          flows := List.filter (fun f -> f.m_id <> id) !flows;
          None
      | Weight (id, w) ->
          (flow id).m_weight <- w;
          None)
    ops

let sched_run s ops =
  List.filter_map
    (function
      | Enq id ->
          Scheduler.enqueue s id;
          None
      | Deq -> Some (Scheduler.dequeue s)
      | Rem id ->
          Scheduler.remove s id;
          None
      | Weight (id, w) ->
          Scheduler.set_weight s id w;
          None)
    ops

let prop_stride_matches_model =
  let op =
    QCheck.Gen.(
      let id = int_bound 5 in
      frequency
        [
          (5, map (fun i -> Enq i) id);
          (4, return Deq);
          (1, map (fun i -> Rem i) id);
          (1, map2 (fun i w -> Weight (i, w)) id (oneofl [ 0.5; 1.; 2.; 3.; 7. ]));
        ])
  in
  QCheck.Test.make ~name:"stride grant order = list-scan reference" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 0 300) op))
    (fun ops -> sched_run (Scheduler.weighted ()) ops = model_run ops)

(* Reference for the round-robin order: the active ring as a list of ids
   with pending requests, oldest turn first; a removed id leaves it. *)
let rr_model_run ops =
  let counts = Hashtbl.create 16 and ring = ref [] in
  let count id = Option.value (Hashtbl.find_opt counts id) ~default:0 in
  List.filter_map
    (function
      | Enq id ->
          let c = count id in
          Hashtbl.replace counts id (c + 1);
          if c = 0 then ring := !ring @ [ id ];
          None
      | Deq -> (
          match !ring with
          | [] -> Some (-1)
          | id :: rest ->
              let c = count id - 1 in
              Hashtbl.replace counts id c;
              ring := if c > 0 then rest @ [ id ] else rest;
              Some id)
      | Rem id ->
          Hashtbl.remove counts id;
          ring := List.filter (( <> ) id) !ring;
          None
      | Weight _ -> None)
    ops

(* Both schedulers start with one slot per member array and double as ids
   arrive.  The id range widens with the op index, from 2 to 64 ids, so
   the arrays grow through six doublings while requests are queued — the
   round-robin ring wrapped, ids removed and re-added — and a final drain
   reads out every request still pending. *)
let prop_sched_growth_matches_model =
  let gen =
    QCheck.Gen.(
      map
        (List.mapi (fun i (kind, x) ->
             let id = x mod Stdlib.min 64 (2 + (i / 4)) in
             if kind < 5 then Enq id
             else if kind < 8 then Deq
             else if kind < 9 then Rem id
             else Weight (id, List.nth [ 0.5; 1.; 2.; 3.; 7. ] (x mod 5))))
        (list_size (int_range 1 400) (pair (int_bound 9) (int_bound 1_000_000))))
  in
  QCheck.Test.make ~name:"schedulers grown from one slot = list models" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       ~shrink:QCheck.Shrink.list gen)
    (fun ops ->
      let ops = ops @ List.init 600 (fun _ -> Deq) in
      sched_run (Scheduler.round_robin ()) ops = rr_model_run ops
      && sched_run (Scheduler.weighted ()) ops = model_run ops)

(* Weights 2^-27 * {1, 2, 4, 5} scale every stride of weights {1, 2, 4,
   5} by exactly 2^27: strides 10^6 * 2^27 / w, exact integers, so each
   rebase (every ~90 grants at 10^15) is an exact subtraction.  Weights
   {1, 2, 4, 5} never reach the threshold in 1M grants, and every pass
   of the scaled run is 2^27 times a pass of the plain one minus the
   rebased base, so the two grant sequences must be equal. *)
let test_stride_rebase_keeps_order () =
  let grants scale =
    let s = Scheduler.weighted () in
    List.iteri (fun id w -> Scheduler.set_weight s id (scale *. w)) [ 1.; 2.; 4.; 5. ];
    List.iter (Scheduler.enqueue s) [ 0; 1; 2; 3 ];
    Array.init 1_000_000 (fun _ ->
        match Scheduler.dequeue s with
        | -1 -> Alcotest.fail "scheduler ran dry"
        | id ->
            Scheduler.enqueue s id;
            id)
  in
  let rebased = grants (Float.ldexp 1.0 (-27)) in
  let plain = grants 1.0 in
  Alcotest.(check bool) "same 1M-grant sequence" true (rebased = plain)

(* satellite (c): at N=4096, over full cycles with every flow backlogged,
   each flow's grant count stays within +/-1 of its weighted share *)
let check_full_cycle_share s ~weights ~cycles =
  let n = Array.length weights in
  let sum_w = Array.fold_left ( + ) 0 weights in
  for i = 0 to n - 1 do
    for _ = 1 to (cycles * weights.(i)) + 2 do
      Scheduler.enqueue s i
    done
  done;
  let got = Array.make n 0 in
  for _ = 1 to cycles * sum_w do
    match Scheduler.dequeue s with
    | -1 -> Alcotest.fail "scheduler ran dry"
    | i -> got.(i) <- got.(i) + 1
  done;
  Array.iteri
    (fun i g ->
      let ideal = cycles * weights.(i) in
      if abs (g - ideal) > 1 then
        Alcotest.failf "flow %d got %d grants, weighted share %d (weight %d)" i g ideal
          weights.(i))
    got

let test_rr_share_at_4096 () =
  let weights = Array.make 4096 1 in
  check_full_cycle_share (Scheduler.round_robin ()) ~weights ~cycles:3

let test_stride_share_at_4096 () =
  let weights = Array.init 4096 (fun i -> 1 + (i mod 3)) in
  let s = Scheduler.weighted () in
  Array.iteri (fun i w -> Scheduler.set_weight s i (float_of_int w)) weights;
  check_full_cycle_share s ~weights ~cycles:3

(* A grant allocates nothing in the scheduler: no option for the picked
   flow and no float box for a pass.  Three flows stay backlogged, so
   every cycle grants one request and queues it again.  The weighted
   case uses unequal weights scaled by 2^-23, so 10k grants cross the
   10^15 rebase threshold ~17 times (the global pass advances ~2e9 at
   the unscaled weights); the rebases' own allocation spread over the
   cycles stays far below one word.  Drained, and before any request, a dequeue is -1. *)
let test_sched_cycles_allocate_nothing () =
  let cycles = 10_000 in
  let cycle_words name s =
    Alcotest.(check int) (name ^ ": fresh dequeue is -1") (-1) (Scheduler.dequeue s);
    List.iter (Scheduler.enqueue s) [ 0; 1; 2 ];
    let cycle () = Scheduler.enqueue s (Scheduler.dequeue s) in
    cycle ();
    let w0 = Gc.minor_words () in
    for _ = 1 to cycles do
      cycle ()
    done;
    let words = (Gc.minor_words () -. w0) /. float_of_int cycles in
    if words >= 1. then Alcotest.failf "%s allocates %.2f words per cycle (budget < 1)" name words;
    Alcotest.(check (list int)) (name ^ ": drains three") [ 0; 1; 2 ]
      (List.sort compare (drain s 3));
    Alcotest.(check int) (name ^ ": drained dequeue is -1") (-1) (Scheduler.dequeue s)
  in
  cycle_words "round-robin" (Scheduler.round_robin ());
  let s = Scheduler.weighted () in
  List.iter
    (fun (id, w) -> Scheduler.set_weight s id (Float.ldexp w (-23)))
    [ (0, 1.); (1, 3.); (2, 0.7) ];
  cycle_words "weighted" s

(* A stride flow holds one queue id from its first request until [remove]
   releases it, and a flow added again takes a released id back: churn
   over a fixed set of flows allocates nothing however long it runs,
   where a leaked id would grow the queue's arrays. *)
let test_stride_readd_reuses_id () =
  let s = Scheduler.weighted () in
  List.iter (Scheduler.enqueue s) [ 0; 1; 2 ];
  let churn () =
    Scheduler.remove s 1;
    Scheduler.set_weight s 1 2.0;
    Scheduler.enqueue s 1
  in
  churn ();
  let b0 = Gc.allocated_bytes () in
  for _ = 1 to 100_000 do
    churn ()
  done;
  let bytes = Gc.allocated_bytes () -. b0 in
  if bytes > 1024. then Alcotest.failf "100k remove/re-add cycles allocated %.0f bytes" bytes;
  Alcotest.(check int) "one request left for the re-added flow" 1 (Scheduler.pending_for s 1);
  Alcotest.(check (list int)) "every flow still granted" [ 0; 1; 2 ] (List.sort compare (drain s 3))

(* ------------------------------------------------------------------ *)
(* CM API tests *)

let test_open_close () =
  let _engine, cm = make_env () in
  let fid = Cm.open_flow cm (flow_key ()) in
  Alcotest.(check int) "mtu exposed" mtu (Cm.mtu cm fid);
  Alcotest.(check (option int)) "lookup finds flow" (Some fid) (Cm.lookup cm (flow_key ()));
  Cm.close_flow cm fid;
  Alcotest.(check (option int)) "lookup after close" None (Cm.lookup cm (flow_key ()));
  Alcotest.check_raises "double close rejected" (Invalid_argument "Cm: unknown or closed flow 1")
    (fun () -> Cm.close_flow cm fid)

let test_duplicate_open_rejected () =
  let _engine, cm = make_env () in
  let _fid = Cm.open_flow cm (flow_key ()) in
  Alcotest.(check bool) "duplicate open raises" true
    (try
       ignore (Cm.open_flow cm (flow_key ()));
       false
     with Invalid_argument _ -> true)

let test_same_dst_shares_macroflow () =
  let _engine, cm = make_env () in
  let f1 = Cm.open_flow cm (flow_key ~sport:100 ()) in
  let f2 = Cm.open_flow cm (flow_key ~sport:101 ()) in
  let f3 = Cm.open_flow cm (flow_key ~sport:102 ~dst:2 ()) in
  Alcotest.(check int) "same destination, same macroflow" (Cm.macroflow_id cm f1)
    (Cm.macroflow_id cm f2);
  Alcotest.(check bool) "different destination, different macroflow" true
    (Cm.macroflow_id cm f1 <> Cm.macroflow_id cm f3)

let test_request_grant_cycle () =
  let engine, cm = make_env () in
  let fid = Cm.open_flow cm (flow_key ()) in
  let grants = ref 0 in
  Cm.register_send cm fid (fun g ->
      Alcotest.(check int) "grant names the flow" fid g;
      incr grants;
      (* client transmits a full mtu; notify is what the IP hook would do *)
      Cm.notify cm fid ~nbytes:mtu);
  Cm.request cm fid;
  Engine.run_for engine (Time.ms 1);
  Alcotest.(check int) "one grant delivered" 1 !grants;
  let mf = Cm.macroflow_of cm fid in
  Alcotest.(check int) "window fully outstanding" mtu (Macroflow.outstanding mf);
  (* second request must stall: window is full *)
  Cm.request cm fid;
  Engine.run_for engine (Time.ms 1);
  Alcotest.(check int) "no grant while window closed" 1 !grants;
  (* feedback opens the window and releases the pending request *)
  Cm.update cm fid ~nsent:mtu ~nrecd:mtu ~loss:Cm_types.No_loss ~rtt:(Time.ms 10) ();
  Engine.run_for engine (Time.ms 1);
  Alcotest.(check int) "pending grant released by update" 2 !grants

let test_grant_declined_passes_on () =
  let engine, cm = make_env () in
  let f1 = Cm.open_flow cm (flow_key ~sport:100 ()) in
  let f2 = Cm.open_flow cm (flow_key ~sport:101 ()) in
  let f2_grants = ref 0 in
  (* f1 declines its grant: cm_notify(0) *)
  Cm.register_send cm f1 (fun _ -> Cm.notify cm f1 ~nbytes:0);
  Cm.register_send cm f2 (fun _ ->
      incr f2_grants;
      Cm.notify cm f2 ~nbytes:mtu);
  Cm.request cm f1;
  Cm.request cm f2;
  Engine.run_for engine (Time.ms 1);
  Alcotest.(check int) "declined grant reaches the other flow" 1 !f2_grants

let test_query_reports_rtt_and_rate () =
  let engine, cm = make_env () in
  let fid = Cm.open_flow cm (flow_key ()) in
  let st0 = Cm.query cm fid in
  Alcotest.(check (option int)) "no srtt before feedback" None st0.Cm_types.srtt;
  Cm.update cm fid ~nsent:0 ~nrecd:0 ~loss:Cm_types.No_loss ~rtt:(Time.ms 100) ();
  Engine.run_for engine (Time.ms 1);
  let st = Cm.query cm fid in
  (match st.Cm_types.srtt with
  | Some srtt -> Alcotest.(check int) "first sample becomes srtt" (Time.ms 100) srtt
  | None -> Alcotest.fail "expected srtt");
  (* rate = cwnd / srtt = 1000 B / 0.1 s = 80_000 bps *)
  Alcotest.(check bool)
    (Printf.sprintf "rate near 80kbps (%f)" st.Cm_types.rate_bps)
    true
    (Float.abs (st.Cm_types.rate_bps -. 80_000.) < 1.)

let test_rate_callback_fires_on_change () =
  let engine, cm = make_env () in
  let fid = Cm.open_flow cm (flow_key ()) in
  let reported = ref [] in
  Cm.register_update cm fid (fun st -> reported := st.Cm_types.rate_bps :: !reported);
  Cm.set_thresh cm fid ~down:0.9 ~up:1.1;
  Cm.update cm fid ~nsent:0 ~nrecd:0 ~loss:Cm_types.No_loss ~rtt:(Time.ms 100) ();
  Engine.run_for engine (Time.ms 1);
  Alcotest.(check int) "first estimate reported" 1 (List.length !reported);
  (* massive growth: slow-start doubling should cross the 1.1x threshold *)
  Cm.update cm fid ~nsent:mtu ~nrecd:mtu ~loss:Cm_types.No_loss ();
  Engine.run_for engine (Time.ms 1);
  Alcotest.(check int) "growth reported" 2 (List.length !reported);
  (* tiny change: no callback *)
  Cm.update cm fid ~nsent:0 ~nrecd:0 ~loss:Cm_types.No_loss ~rtt:(Time.ms 100) ();
  Engine.run_for engine (Time.ms 1);
  Alcotest.(check int) "small change suppressed" 2 (List.length !reported)

let test_split_and_merge () =
  let _engine, cm = make_env () in
  let f1 = Cm.open_flow cm (flow_key ~sport:100 ()) in
  let f2 = Cm.open_flow cm (flow_key ~sport:101 ()) in
  Alcotest.(check int) "start together" (Cm.macroflow_id cm f1) (Cm.macroflow_id cm f2);
  Cm.split cm f1;
  Alcotest.(check bool) "split separates" true (Cm.macroflow_id cm f1 <> Cm.macroflow_id cm f2);
  Cm.merge cm f1 ~into:f2;
  Alcotest.(check int) "merge rejoins" (Cm.macroflow_id cm f1) (Cm.macroflow_id cm f2)

let test_attach_charges_outstanding () =
  let engine = Engine.create () in
  let net = Build.pipe engine (Spec.pipe ~bw:1e7 ~lat:(Time.ms 5) ()) in
  let cm = Cm.create engine ~mtu () in
  Cm.attach cm net.Build.a;
  let key =
    Addr.flow
      ~src:(Addr.endpoint ~host:0 ~port:100)
      ~dst:(Addr.endpoint ~host:1 ~port:200)
      ~proto:Addr.Udp ()
  in
  let fid = Cm.open_flow cm key in
  let pkt = Packet.make ~now:(Engine.now engine) ~flow:key ~payload_bytes:500 (Packet.Raw 500) in
  Host.ip_output net.Build.a pkt;
  let mf = Cm.macroflow_of cm fid in
  Alcotest.(check int) "ip hook charged the payload" 500 (Macroflow.outstanding mf)

let test_persistent_resets_outstanding () =
  let engine, cm = make_env () in
  let fid = Cm.open_flow cm (flow_key ()) in
  Cm.notify cm fid ~nbytes:(3 * mtu);
  let mf = Cm.macroflow_of cm fid in
  Alcotest.(check int) "charged" (3 * mtu) (Macroflow.outstanding mf);
  Cm.update cm fid ~nsent:0 ~nrecd:0 ~loss:Cm_types.Persistent ();
  ignore engine;
  Alcotest.(check int) "persistent congestion clears outstanding" 0 (Macroflow.outstanding mf)

let test_grant_reclaim () =
  let engine = Engine.create () in
  let cm = Cm.create engine ~mtu ~grant_reclaim_after:(Time.ms 200) () in
  let fid = Cm.open_flow cm (flow_key ()) in
  (* client takes the grant but never transmits nor declines *)
  Cm.register_send cm fid (fun _ -> ());
  Cm.request cm fid;
  Engine.run_for engine (Time.ms 50);
  let mf = Cm.macroflow_of cm fid in
  Alcotest.(check int) "grant outstanding" mtu (Macroflow.granted mf);
  Engine.run_for engine (Time.ms 500);
  Alcotest.(check int) "grant reclaimed by maintenance" 0 (Macroflow.granted mf);
  Alcotest.(check bool) "reclaim counted" true (Macroflow.grants_reclaimed mf >= 1)

(* Once its last flow is gone and nothing is granted or outstanding, a
   per-destination macroflow persists (Fig. 7) but parks its maintenance
   clock: the engine goes quiet.  A later transmission wakes the clock on
   its original 100 ms phase. *)
let test_idle_macroflow_parks_its_clock () =
  let engine, cm = make_env () in
  Engine.run_for engine (Time.ms 37);
  let origin = Engine.now engine in
  let f = Cm.open_flow cm (flow_key ()) in
  let mf = Cm.macroflow_of cm f in
  Cm.register_send cm f (fun _ -> ());
  Cm.request cm f;
  Engine.run_for engine (Time.ms 1);
  Alcotest.(check int) "grant held" mtu (Macroflow.granted mf);
  Cm.close_flow cm f;
  Alcotest.(check int) "close resolved the last grant" 0 (Macroflow.granted mf);
  Engine.run_for engine (Time.ms 150);
  Alcotest.(check bool) "per-destination macroflow persists" true (Macroflow.alive mf);
  Alcotest.(check int) "idle macroflow queues nothing" 0 (Engine.pending engine);
  Engine.run_for engine (Time.us 1_234_567);
  let g = Cm.open_flow cm (flow_key ~sport:101 ()) in
  Alcotest.(check bool) "same macroflow" true (Cm.macroflow_of cm g == mf);
  let woken_at = Engine.now engine in
  Cm.notify cm g ~nbytes:500;
  Alcotest.(check int) "the tick is the only event" 1 (Engine.pending engine);
  Alcotest.(check bool) "tick ran" true (Engine.step engine);
  let period = Time.ms 100 in
  let k = ((woken_at - origin) / period) + 1 in
  Alcotest.(check int) "next tick on origin + k * 100 ms" (origin + (k * period))
    (Engine.now engine);
  Alcotest.(check int) "busy macroflow keeps ticking" 1 (Engine.pending engine)

(* Parking is invisible: a macroflow whose [on_tick] hook keeps its clock
   ticking and one that parks, driven by the same script, issue the same
   grants at the same times and end every step in the same state. *)
type mf_op =
  | Mf_request of int
  | Mf_notify of int * int
  | Mf_update of int * int * bool
  | Mf_release of int
  | Mf_advance of int

let gen_mf_op =
  let open QCheck.Gen in
  let member = int_bound 2 in
  frequency
    [
      (4, map (fun m -> Mf_request m) member);
      (3, map2 (fun m n -> Mf_notify (m, n)) member (oneofl [ 0; 200; mtu ]));
      (2, map3 (fun sent recd loss -> Mf_update (sent, recd, loss)) (oneofl [ 0; 500; 2 * mtu ])
            (int_bound 100) (map (fun k -> k = 0) (int_bound 5)));
      (1, map (fun m -> Mf_release m) member);
      (4, map (fun ms -> Mf_advance ms) (oneofl [ 0; 1; 37; 100; 250; 600; 1_300 ]));
    ]

let pp_mf_op = function
  | Mf_request m -> Printf.sprintf "request %d" m
  | Mf_notify (m, n) -> Printf.sprintf "notify %d %dB" m n
  | Mf_update (s, r, l) -> Printf.sprintf "update sent %d recd %d%% loss %b" s r l
  | Mf_release m -> Printf.sprintf "release %d" m
  | Mf_advance ms -> Printf.sprintf "advance %dms" ms

let run_mf_script ?on_tick script =
  let engine = Engine.create () in
  let grants = ref [] in
  let mf =
    Macroflow.create engine ~id:1 ~mtu ~controller:(Controller.aimd ())
      ~scheduler:Scheduler.round_robin
      ~deliver_grant:(fun _ m ~reserved ->
        grants := (Engine.now engine, Macroflow.member_fid m, reserved) :: !grants)
      ~on_state_change:ignore ?on_tick ~watchdog:Macroflow.default_watchdog ()
  in
  let members = Array.init 3 (fun i -> Macroflow.add_member mf i) in
  let snapshots =
    List.map
      (fun op ->
        (match op with
        | Mf_request m -> Macroflow.request mf members.(m)
        | Mf_notify (m, nbytes) -> Macroflow.notify mf ~m:members.(m) ~nbytes ()
        | Mf_update (sent, pct, loss) ->
            let nsent = Stdlib.min sent (Macroflow.outstanding mf) in
            Macroflow.update mf ~nsent ~nrecd:(nsent * pct / 100)
              ~loss:(if loss then Cm_types.Transient else Cm_types.No_loss)
              ~rtt:(Some (Time.ms 40))
        | Mf_release m -> ignore (Macroflow.release_flow_grants mf members.(m) : int)
        | Mf_advance ms -> Engine.run_for engine (Time.ms ms));
        ( Macroflow.grants_reclaimed mf,
          Macroflow.watchdog_fires mf,
          Macroflow.outstanding mf,
          Macroflow.cwnd mf,
          Macroflow.granted mf ))
      script
  in
  Engine.run_for engine (Time.sec 3.);
  (List.rev !grants, snapshots, Engine.events_executed engine)

let prop_parking_is_invisible =
  QCheck.Test.make ~name:"a parking macroflow matches an always-ticking one" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_mf_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 80) gen_mf_op))
    (fun script ->
      let g_park, s_park, ev_park = run_mf_script script in
      let g_tick, s_tick, ev_tick = run_mf_script ~on_tick:ignore script in
      g_park = g_tick && s_park = s_tick && ev_park <= ev_tick)

(* Minor words one [Macroflow.create] allocates (AIMD, round-robin),
   averaged over 1000 macroflows; exact, as [Gc.minor_words] counts every
   allocation.  The CM keeps a macroflow per destination for the whole
   run, so this is live state per client of a busy server.  A controller
   instance is one small state record under the factory's shared
   operations, the round-robin scheduler is one state record in a
   variant, and the scheduler and member arrays start at one slot:
   107.9 words.  A scheduler as a record of seven closures over three
   refs read 150.9, and eight closures and three refs per controller and
   16- and 8-slot arrays read 256.9. *)
let test_macroflow_create_words () =
  let n = 1000 in
  let engine = Engine.create () in
  let controller = Controller.aimd () in
  let create id =
    Macroflow.create engine ~id ~mtu ~controller ~scheduler:Scheduler.round_robin
      ~deliver_grant:(fun _ _ ~reserved:_ -> ())
      ~on_state_change:ignore ()
  in
  let mfs = Array.make n (create 0) in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    mfs.(i) <- create (i + 1)
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  if words > 110. then Alcotest.failf "Macroflow.create allocates %.1f words (ceiling 110)" words;
  Array.iter
    (fun mf -> Alcotest.(check int) "initial window" mtu (Macroflow.cwnd mf))
    mfs

(* Minor words [Cm.open_flow] allocates for a flow to a destination the
   CM has not seen, averaged over 1000 destinations (exact): the flow
   record and its directory and table entries, and the destination's
   macroflow with its member slot and index.  Every macroflow hands
   itself to the CM's one grant hook; tying a hook to each macroflow
   through a ref cell, an option and two closures read 254.6 words,
   where this reads 240.6. *)
let test_open_new_destination_words () =
  let n = 1000 in
  let _, cm = make_env () in
  let keys = Array.init n (fun i -> flow_key ~dst:(i + 2) ()) in
  ignore (Cm.open_flow cm (flow_key ~dst:1 ()));
  let w0 = Gc.minor_words () in
  Array.iter (fun key -> ignore (Cm.open_flow cm key)) keys;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  if words > 250. then
    Alcotest.failf "open_flow to a new destination allocates %.1f words (ceiling 250)" words

let test_close_returns_granted_bytes () =
  (* granted-but-unnotified bytes come back the moment the flow closes,
     not 500 ms later when the reclaim timer would catch them *)
  let engine, cm = make_env () in
  let f1 = Cm.open_flow cm (flow_key ~sport:100 ()) in
  let f2 = Cm.open_flow cm (flow_key ~sport:101 ()) in
  (* f1 takes its grant and sits on it: never transmits, never declines *)
  Cm.register_send cm f1 (fun _ -> ());
  let f2_grants = ref 0 in
  Cm.register_send cm f2 (fun _ ->
      incr f2_grants;
      Cm.notify cm f2 ~nbytes:mtu);
  Cm.request cm f1;
  Engine.run_for engine (Time.ms 1);
  let mf = Cm.macroflow_of cm f1 in
  Alcotest.(check int) "grant held by f1" mtu (Macroflow.granted mf);
  (* the initial window is one mtu, so f2's request stalls behind it *)
  Cm.request cm f2;
  Engine.run_for engine (Time.ms 1);
  Alcotest.(check int) "f2 stalled behind the hoarded grant" 0 !f2_grants;
  Cm.close_flow cm f1;
  Alcotest.(check int) "granted bytes returned synchronously" 0 (Macroflow.granted mf);
  Alcotest.(check bool) "release counted" true (Macroflow.grants_released mf >= 1);
  Engine.run_for engine (Time.ms 1);
  Alcotest.(check int) "f2 granted without waiting for reclaim" 1 !f2_grants

let test_decline_restores_window () =
  (* cm_notify(0) on a flow with no competitor: the grant is returned to
     the window (nothing charged) and the decline is counted *)
  let engine, cm = make_env () in
  let fid = Cm.open_flow cm (flow_key ()) in
  Cm.register_send cm fid (fun _ -> Cm.notify cm fid ~nbytes:0);
  Cm.request cm fid;
  Engine.run_for engine (Time.ms 1);
  let mf = Cm.macroflow_of cm fid in
  Alcotest.(check int) "no bytes granted after decline" 0 (Macroflow.granted mf);
  Alcotest.(check int) "no bytes charged" 0 (Macroflow.outstanding mf);
  let c = Cm.counters cm in
  Alcotest.(check int) "decline counted" 1 c.Cm.declined_grants;
  Alcotest.(check int) "grant still counted as issued" 1 c.Cm.grants;
  (* the flow is unharmed: a later request is granted again *)
  let granted_again = ref 0 in
  Cm.register_send cm fid (fun _ ->
      incr granted_again;
      Cm.notify cm fid ~nbytes:mtu);
  Cm.request cm fid;
  Engine.run_for engine (Time.ms 1);
  Alcotest.(check int) "regranted after decline" 1 !granted_again

let test_counters () =
  let engine, cm = make_env () in
  let fid = Cm.open_flow cm (flow_key ()) in
  Cm.register_send cm fid (fun _ -> Cm.notify cm fid ~nbytes:mtu);
  Cm.request cm fid;
  Engine.run_for engine (Time.ms 1);
  let c = Cm.counters cm in
  Alcotest.(check int) "opens" 1 c.Cm.opens;
  Alcotest.(check int) "requests" 1 c.Cm.requests;
  Alcotest.(check int) "grants" 1 c.Cm.grants;
  Alcotest.(check int) "notifies" 1 c.Cm.notifies

let test_bulk_calls () =
  let engine, cm = make_env () in
  let f1 = Cm.open_flow cm (flow_key ~sport:100 ()) in
  let f2 = Cm.open_flow cm (flow_key ~sport:101 ()) in
  let got = ref [] in
  Cm.register_send cm f1 (fun g ->
      got := g :: !got;
      Cm.notify cm f1 ~nbytes:mtu);
  Cm.register_send cm f2 (fun g ->
      got := g :: !got;
      Cm.notify cm f2 ~nbytes:mtu);
  (* open the window first so both grants fit *)
  Cm.bulk_update cm [ (f1, 2 * mtu, 2 * mtu, Cm_types.No_loss, Some (Time.ms 10)) ];
  Cm.bulk_request cm [ f1; f2 ];
  Engine.run_for engine (Time.ms 1);
  Alcotest.(check int) "both flows granted" 2 (List.length !got)


let test_macroflow_state_persists_across_flows () =
  (* the Fig. 7 mechanism: close the only flow to a destination, open a
     new one, and inherit the macroflow's congestion state *)
  let engine, cm = make_env () in
  let f1 = Cm.open_flow cm (flow_key ~sport:100 ()) in
  let mf1 = Cm.macroflow_id cm f1 in
  (* grow the window well past the initial one *)
  for _ = 1 to 20 do
    Cm.update cm f1 ~nsent:mtu ~nrecd:mtu ~loss:Cm_types.No_loss ~rtt:(Time.ms 50) ()
  done;
  let grown = (Cm.query cm f1).Cm_types.cwnd in
  Cm.close_flow cm f1;
  Engine.run_for engine (Time.ms 10);
  let f2 = Cm.open_flow cm (flow_key ~sport:101 ()) in
  Alcotest.(check int) "same macroflow reused" mf1 (Cm.macroflow_id cm f2);
  Alcotest.(check int) "window inherited" grown ((Cm.query cm f2).Cm_types.cwnd);
  (match (Cm.query cm f2).Cm_types.srtt with
  | Some _ -> ()
  | None -> Alcotest.fail "srtt should persist")

let test_split_macroflow_dies_when_empty () =
  let _engine, cm = make_env () in
  let f1 = Cm.open_flow cm (flow_key ~sport:100 ()) in
  Cm.split cm f1;
  let split_id = Cm.macroflow_id cm f1 in
  Cm.close_flow cm f1;
  (* a fresh flow to the same destination lands in the (persistent)
     default macroflow, not the discarded split one *)
  let f2 = Cm.open_flow cm (flow_key ~sport:101 ()) in
  Alcotest.(check bool) "split macroflow not reused" true
    (Cm.macroflow_id cm f2 <> split_id)


let test_dscp_aggregation_modes () =
  (* §5: under diffserv, flows to the same host with different service
     classes should not share congestion state *)
  let engine = Engine.create () in
  let dst = Addr.endpoint ~host:1 ~port:200 in
  let mk ?dscp sport = Addr.flow ?dscp ~src:(Addr.endpoint ~host:0 ~port:sport) ~dst ~proto:Addr.Udp () in
  (* default: DSCP is ignored for aggregation *)
  let cm = Cm.create engine ~mtu () in
  let f1 = Cm.open_flow cm (mk 100) in
  let f2 = Cm.open_flow cm (mk ~dscp:46 101) in
  Alcotest.(check int) "default mode ignores dscp" (Cm.macroflow_id cm f1)
    (Cm.macroflow_id cm f2);
  (* diffserv-aware: distinct DSCPs get distinct macroflows *)
  let cm2 = Cm.create engine ~mtu ~aggregation:Cm.By_destination_and_dscp () in
  let g1 = Cm.open_flow cm2 (mk 100) in
  let g2 = Cm.open_flow cm2 (mk ~dscp:46 101) in
  let g3 = Cm.open_flow cm2 (mk ~dscp:46 102) in
  Alcotest.(check bool) "different dscp, different macroflow" true
    (Cm.macroflow_id cm2 g1 <> Cm.macroflow_id cm2 g2);
  Alcotest.(check int) "same dscp still shares" (Cm.macroflow_id cm2 g2)
    (Cm.macroflow_id cm2 g3)

let test_dscp_rejected_out_of_range () =
  let dst = Addr.endpoint ~host:1 ~port:200 in
  Alcotest.(check bool) "dscp > 63 rejected" true
    (try
       ignore (Addr.flow ~dscp:64 ~src:(Addr.endpoint ~host:0 ~port:1) ~dst ~proto:Addr.Udp ());
       false
     with Invalid_argument _ -> true)


let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  nl = 0 || at 0

let test_pp_summary_renders () =
  let engine, cm = make_env () in
  let fid = Cm.open_flow cm (flow_key ()) in
  Cm.update cm fid ~nsent:mtu ~nrecd:mtu ~loss:Cm_types.No_loss ~rtt:(Time.ms 10) ();
  Engine.run_for engine (Time.ms 1);
  let s = Format.asprintf "%a" Cm.pp_summary cm in
  Alcotest.(check bool) "mentions the flow" true (contains s "flow 1");
  Alcotest.(check bool) "mentions counters" true (contains s "updates")


let test_idle_restart_resets_window () =
  let engine = Engine.create () in
  let cm = Cm.create engine ~mtu ~idle_restart:(Time.sec 1.) () in
  let fid = Cm.open_flow cm (flow_key ()) in
  Cm.register_send cm fid (fun _ -> Cm.notify cm fid ~nbytes:mtu);
  for _ = 1 to 10 do
    Cm.request cm fid;
    Engine.run_for engine (Time.ms 1);
    Cm.update cm fid ~nsent:mtu ~nrecd:mtu ~loss:Cm_types.No_loss ~rtt:(Time.ms 10) ()
  done;
  let grown = (Cm.query cm fid).Cm_types.cwnd in
  (* a stop-and-wait client is bounded by window validation at ~4 MTU *)
  Alcotest.(check bool) "window grew" true (grown > mtu);
  (* idle past the threshold, then a fresh request *)
  Engine.run_for engine (Time.sec 3.);
  Cm.request cm fid;
  Alcotest.(check int) "slow-start restart" mtu (Cm.query cm fid).Cm_types.cwnd;
  (* without the option, state persists (covered by the fig7 test) *)
  ignore grown

(* window conservation under a random client, as a qcheck property *)
let prop_window_conservation =
  QCheck.Test.make ~name:"macroflow never exceeds cwnd" ~count:50
    QCheck.(small_list (int_bound 2))
    (fun actions ->
      let engine = Engine.create () in
      let cm = Cm.create engine ~mtu () in
      let fid = Cm.open_flow cm (flow_key ()) in
      let mf = Cm.macroflow_of cm fid in
      let ok = ref true in
      let check () =
        if Macroflow.outstanding mf + Macroflow.granted mf > Macroflow.cwnd mf + mtu then
          ok := false
      in
      Cm.register_send cm fid (fun _ ->
          Cm.notify cm fid ~nbytes:mtu;
          check ());
      List.iter
        (fun a ->
          (match a with
          | 0 -> Cm.request cm fid
          | 1 -> Cm.update cm fid ~nsent:mtu ~nrecd:mtu ~loss:Cm_types.No_loss ~rtt:(Time.ms 5) ()
          | _ -> Cm.update cm fid ~nsent:mtu ~nrecd:0 ~loss:Cm_types.Transient ());
          Engine.run_for engine (Time.us 100);
          check ())
        actions;
      !ok)


(* every controller, under any event sequence: window stays within
   [mtu, max]; reset restores the initial window *)
let prop_controller_invariants =
  let factories =
    [
      ("aimd", Controller.aimd ());
      ("iiad", Controller.iiad ());
      ("sqrt", Controller.sqrt_ctl ());
      ("equation", Controller.equation ());
      ("binomial(0,1)", Controller.binomial ~k:0. ~l:1. ());
    ]
  in
  QCheck.Test.make ~name:"controllers keep cwnd within bounds" ~count:100
    QCheck.(pair (int_bound (List.length factories - 1)) (small_list (int_bound 3)))
    (fun (which, ops) ->
      let _, factory = List.nth factories which in
      let c = factory ~mtu in
      let ok = ref true in
      let check () =
        let w = Controller.cwnd c in
        if w < mtu || w > 4 * 1024 * 1024 then ok := false
      in
      List.iter
        (fun op ->
          (match op with
          | 0 -> Controller.on_ack c ~nbytes:mtu
          | 1 -> Controller.on_ack c ~nbytes:(10 * mtu)
          | 2 -> Controller.on_loss c Cm_types.Transient
          | _ -> Controller.on_loss c Cm_types.Persistent);
          check ())
        ops;
      Controller.reset c;
      !ok && Controller.cwnd c = mtu)

(* satellite (a): closing one flow must examine a bounded number of
   macroflows no matter how many destinations the CM has ever talked to.
   [Cm.teardown_probes] counts macroflows examined by the teardown path;
   before the reverse index it grew with hosts-ever-contacted. *)
let close_probe_delta ~macroflows =
  let _engine, cm = make_env () in
  let keep =
    List.init macroflows (fun d -> Cm.open_flow cm (flow_key ~sport:100 ~dst:(1 + d) ()))
  in
  let victim = Cm.open_flow cm (flow_key ~sport:101 ~dst:1 ()) in
  let before = Cm.teardown_probes cm in
  Cm.close_flow cm victim;
  let delta = Cm.teardown_probes cm - before in
  List.iter (Cm.close_flow cm) keep;
  delta

let test_close_cost_constant () =
  let small = close_probe_delta ~macroflows:4 in
  let large = close_probe_delta ~macroflows:256 in
  Alcotest.(check int)
    (Printf.sprintf "probes per close equal at 4 and 256 macroflows (%d vs %d)" small large)
    small large;
  Alcotest.(check bool) "constant per close" true (small <= 2)

(* ------------------------------------------------------------------ *)
(* Flow-id recycling (Fid_dir) *)

let test_stale_fid_misses_after_reuse () =
  let _engine, cm = make_env () in
  let fid1 = Cm.open_flow cm (flow_key ~sport:100 ()) in
  Cm.close_flow cm fid1;
  (* the freed slot is recycled LIFO: the next open reuses it under a
     bumped generation, so the two ids share slot bits but differ *)
  let fid2 = Cm.open_flow cm (flow_key ~sport:101 ()) in
  Alcotest.(check int) "slot reused" (fid1 land 0xFFFFFF) (fid2 land 0xFFFFFF);
  Alcotest.(check bool) "stale and fresh ids differ" true (fid1 <> fid2);
  (* every API path through the stale (id, generation) must miss without
     touching the slot's new tenant *)
  let rejected f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "request through stale id rejected" true
    (rejected (fun () -> Cm.request cm fid1));
  Alcotest.(check bool) "notify through stale id rejected" true
    (rejected (fun () -> Cm.notify cm fid1 ~nbytes:10));
  Alcotest.(check bool) "query through stale id rejected" true
    (rejected (fun () -> ignore (Cm.query cm fid1)));
  Alcotest.(check bool) "close through stale id rejected" true
    (rejected (fun () -> Cm.close_flow cm fid1));
  Alcotest.(check int) "new tenant unharmed" mtu (Cm.mtu cm fid2);
  Alcotest.(check int) "one live flow" 1 (Cm.live_flows cm)

let test_million_churn_capacity_bounded () =
  let _engine, cm = make_env () in
  (* an anchor flow keeps the macroflow alive so the loop measures slot
     recycling, not macroflow setup/teardown *)
  let anchor = Cm.open_flow cm (flow_key ~sport:9999 ()) in
  for i = 1 to 1_000_000 do
    let fid = Cm.open_flow cm (flow_key ~sport:(10_000 + (i land 1)) ()) in
    Cm.close_flow cm fid
  done;
  Alcotest.(check int) "only the anchor left" 1 (Cm.live_flows cm);
  (* 1,000,001 opens at peak concurrency 2: the directory is bounded by
     the peak, not by flows ever opened *)
  Alcotest.(check bool)
    (Printf.sprintf "slot capacity bounded by peak concurrency (%d)"
       (Cm.flow_slot_capacity cm))
    true
    (Cm.flow_slot_capacity cm <= 4);
  Cm.close_flow cm anchor

let () =
  Alcotest.run "cm"
    [
      ( "controller",
        [
          Alcotest.test_case "aimd slow start" `Quick test_aimd_slow_start;
          Alcotest.test_case "aimd transient halves" `Quick test_aimd_transient_halves;
          Alcotest.test_case "aimd persistent collapses" `Quick test_aimd_persistent_collapses;
          Alcotest.test_case "aimd linear growth in CA" `Quick test_aimd_congestion_avoidance_linear;
          Alcotest.test_case "aimd floor and reset" `Quick test_aimd_floor_and_reset;
          Alcotest.test_case "ecn acts like transient" `Quick test_aimd_ecn_like_transient;
          Alcotest.test_case "binomial(0,1) = aimd" `Quick test_binomial_aimd_equivalence;
          Alcotest.test_case "sqrt decreases more gently" `Quick test_binomial_sqrt_gentler;
          Alcotest.test_case "equation tracks loss rate" `Quick
            test_equation_slow_starts_then_tracks_loss_rate;
          Alcotest.test_case "equation smoother than aimd" `Quick test_equation_smoother_than_aimd;
          Alcotest.test_case "equation reset" `Quick test_equation_reset;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "round robin alternates" `Quick test_rr_alternates;
          Alcotest.test_case "remove purges requests" `Quick test_rr_remove_purges;
          Alcotest.test_case "pending counts" `Quick test_rr_pending_counts;
          Alcotest.test_case "weighted is proportional" `Quick test_weighted_proportional;
          Alcotest.test_case "stride fairness across 10M-grant rebases" `Slow
            test_stride_rebase_fairness;
          Alcotest.test_case "rr share +/-1 at 4096 flows" `Quick test_rr_share_at_4096;
          Alcotest.test_case "stride share +/-1 at 4096 flows" `Quick test_stride_share_at_4096;
          Alcotest.test_case "stride rejects bad weights" `Quick test_stride_rejects_bad_weights;
          QCheck_alcotest.to_alcotest prop_stride_matches_model;
          QCheck_alcotest.to_alcotest prop_sched_growth_matches_model;
          Alcotest.test_case "stride rebase keeps the grant order" `Quick
            test_stride_rebase_keeps_order;
          Alcotest.test_case "cycles allocate nothing" `Quick test_sched_cycles_allocate_nothing;
          Alcotest.test_case "stride flow re-added reuses its queue id" `Quick
            test_stride_readd_reuses_id;
        ] );
      ( "api",
        [
          Alcotest.test_case "open/close/lookup" `Quick test_open_close;
          Alcotest.test_case "duplicate open rejected" `Quick test_duplicate_open_rejected;
          Alcotest.test_case "per-destination aggregation" `Quick test_same_dst_shares_macroflow;
          Alcotest.test_case "request/grant cycle" `Quick test_request_grant_cycle;
          Alcotest.test_case "declined grant passes on" `Quick test_grant_declined_passes_on;
          Alcotest.test_case "query rtt and rate" `Quick test_query_reports_rtt_and_rate;
          Alcotest.test_case "rate callbacks with thresholds" `Quick test_rate_callback_fires_on_change;
          Alcotest.test_case "split and merge" `Quick test_split_and_merge;
          Alcotest.test_case "ip hook charges macroflow" `Quick test_attach_charges_outstanding;
          Alcotest.test_case "persistent clears outstanding" `Quick test_persistent_resets_outstanding;
          Alcotest.test_case "grant reclaim" `Quick test_grant_reclaim;
          Alcotest.test_case "idle macroflow parks its clock" `Quick
            test_idle_macroflow_parks_its_clock;
          Alcotest.test_case "macroflow create allocates <= 110 words" `Quick
            test_macroflow_create_words;
          Alcotest.test_case "open_flow to a new destination allocates <= 250 words" `Quick
            test_open_new_destination_words;
          Alcotest.test_case "close returns granted bytes" `Quick test_close_returns_granted_bytes;
          Alcotest.test_case "decline restores window" `Quick test_decline_restores_window;
          Alcotest.test_case "api counters" `Quick test_counters;
          Alcotest.test_case "bulk request/update" `Quick test_bulk_calls;
          Alcotest.test_case "macroflow state persists (fig7)" `Quick
            test_macroflow_state_persists_across_flows;
          Alcotest.test_case "split macroflow dies when empty" `Quick
            test_split_macroflow_dies_when_empty;
          Alcotest.test_case "dscp aggregation modes" `Quick test_dscp_aggregation_modes;
          Alcotest.test_case "dscp range check" `Quick test_dscp_rejected_out_of_range;
          Alcotest.test_case "summary dump renders" `Quick test_pp_summary_renders;
          Alcotest.test_case "idle restart option" `Quick test_idle_restart_resets_window;
          Alcotest.test_case "close cost independent of macroflow count" `Quick
            test_close_cost_constant;
          Alcotest.test_case "stale flow id misses after slot reuse" `Quick
            test_stale_fid_misses_after_reuse;
          Alcotest.test_case "1M flow churn keeps directory bounded" `Slow
            test_million_churn_capacity_bounded;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_window_conservation;
          QCheck_alcotest.to_alcotest prop_parking_is_invisible;
          QCheck_alcotest.to_alcotest prop_controller_invariants;
        ] );
    ]
