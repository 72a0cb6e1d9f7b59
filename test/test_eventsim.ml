(* Tests for the discrete-event engine and timers. *)

open Cm_util
open Eventsim

let ( => ) name cond = Alcotest.(check bool) name true cond

let test_runs_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule_at e (Time.ms 30) (fun () -> log := 3 :: !log));
  ignore (Engine.schedule_at e (Time.ms 10) (fun () -> log := 1 :: !log));
  ignore (Engine.schedule_at e (Time.ms 20) (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_fifo_at_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule_at e (Time.ms 10) (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "insertion order at equal times" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_clock_advances () =
  let e = Engine.create () in
  let seen = ref [] in
  ignore (Engine.schedule_at e (Time.ms 10) (fun () -> seen := Engine.now e :: !seen));
  ignore (Engine.schedule_at e (Time.ms 25) (fun () -> seen := Engine.now e :: !seen));
  Engine.run e;
  Alcotest.(check (list int)) "now equals event times" [ Time.ms 10; Time.ms 25 ] (List.rev !seen)

let test_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule_at e (Time.ms 10) (fun () -> incr fired));
  ignore (Engine.schedule_at e (Time.ms 50) (fun () -> incr fired));
  Engine.run ~until:(Time.ms 20) e;
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check int) "clock at limit" (Time.ms 20) (Engine.now e);
  Alcotest.(check int) "second pending" 1 (Engine.pending e)

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_at e (Time.ms 10) (fun () -> fired := true) in
  "cancel returns true" => Engine.cancel e h;
  "double cancel returns false" => not (Engine.cancel e h);
  Engine.run e;
  "cancelled event did not fire" => not !fired

let test_schedule_in_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e (Time.ms 10) (fun () -> ()));
  Engine.run e;
  "scheduling in the past raises"
  => (try
        ignore (Engine.schedule_at e (Time.ms 5) (fun () -> ()));
        false
      with Invalid_argument _ -> true)

let test_events_schedule_events () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then begin
      incr count;
      ignore (Engine.schedule_after e (Time.ms 1) (fun () -> chain (n - 1)))
    end
  in
  ignore (Engine.schedule_after e 0 (fun () -> chain 10));
  Engine.run e;
  Alcotest.(check int) "chained events all ran" 10 !count;
  Alcotest.(check int) "clock advanced by chain" (Time.ms 10) (Engine.now e)

let test_step_and_counters () =
  let e = Engine.create () in
  ignore (Engine.schedule_after e (Time.ms 1) (fun () -> ()));
  ignore (Engine.schedule_after e (Time.ms 2) (fun () -> ()));
  "step executes one" => Engine.step e;
  Alcotest.(check int) "one pending left" 1 (Engine.pending e);
  "step executes the other" => Engine.step e;
  "step on empty returns false" => not (Engine.step e);
  Alcotest.(check int) "executed count" 2 (Engine.events_executed e)

let test_stale_handle_after_reuse () =
  (* queue ids are recycled: after an event fires, the next schedule
     reuses its id.  A fired id keeps its closure until then, so a
     handle to the fired event must read as dead from the queue: cancel
     returns false — from the callback itself, after the run, and after
     the id is reused — and touches neither the count nor the tenant. *)
  let e = Engine.create () in
  let fired = ref [] in
  let self = ref (Engine.unscheduled ()) in
  let h1 =
    Engine.schedule_at e (Time.ms 10) (fun () ->
        "cancel from its own callback is inert" => not (Engine.cancel e !self);
        fired := 1 :: !fired)
  in
  self := h1;
  Engine.run e;
  "cancel of fired handle is inert" => not (Engine.cancel e h1);
  Alcotest.(check int) "nothing pending after the fired cancel" 0 (Engine.pending e);
  let _h2 = Engine.schedule_at e (Time.ms 20) (fun () -> fired := 2 :: !fired) in
  "cancel of fired handle is inert after reuse" => not (Engine.cancel e h1);
  Alcotest.(check int) "the reused cell's event is pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "both events fired, reused cell unharmed" [ 2; 1 ] !fired

let test_negative_delays_run_now () =
  let e = Engine.create ~start:(Time.ms 10) () in
  let log = ref [] in
  let note i () = log := (i, Engine.now e) :: !log in
  ignore (Engine.schedule_after e (Time.ms (-5)) (note 1));
  Engine.post e (Time.ms (-1)) (note 2);
  ignore (Engine.schedule_after e (Time.ms 1) (note 3));
  Engine.run e;
  Alcotest.(check (list (pair int int)))
    "negative delays are clamped to now, in FIFO order"
    [ (1, Time.ms 10); (2, Time.ms 10); (3, Time.ms 11) ]
    (List.rev !log)

(* [now] and [current_stamp] are [%field0]/[%field1] externals over the
   engine record: these fail if its field order changes. *)
let test_clock_and_stamp_fields () =
  let e = Engine.create ~start:(Time.ms 3) () in
  Alcotest.(check int) "now at start" (Time.ms 3) (Engine.now e);
  Alcotest.(check int) "no stamp before any event" (-1) (Engine.current_stamp e);
  let stamp = Engine.reserve_stamp e in
  let seen = ref (-2) in
  Engine.post_stamped e (Time.ms 5) ~stamp (fun () -> seen := Engine.current_stamp e);
  Engine.run ~until:(Time.ms 20) e;
  Alcotest.(check int) "the dispatched event's stamp" stamp !seen;
  Alcotest.(check int) "now after run ~until" (Time.ms 20) (Engine.now e);
  Alcotest.(check int) "current_stamp after a run" max_int (Engine.current_stamp e)

(* An event's queue id is released when it leaves the queue and handed to
   the next schedule; a handle to the old event stays dead, whether that
   event was cancelled or fired. *)
let test_released_id_keeps_old_handle_dead () =
  let e = Engine.create () in
  let fired = ref [] in
  let h1 = Engine.schedule_at e (Time.ms 1) (fun () -> fired := 1 :: !fired) in
  "cancel" => Engine.cancel e h1;
  Engine.run e;
  let h2 = Engine.schedule_at e (Time.ms 2) (fun () -> fired := 2 :: !fired) in
  Alcotest.(check int) "the cancelled event's id is reused" 1 (Engine.pool_hw e);
  "cancelled handle stays dead" => not (Engine.cancel e h1);
  Engine.run e;
  let h3 = Engine.schedule_at e (Time.ms 3) (fun () -> fired := 3 :: !fired) in
  Alcotest.(check int) "the fired event's id is reused" 1 (Engine.pool_hw e);
  "fired handle stays dead" => not (Engine.cancel e h2);
  "cancelled handle still dead" => not (Engine.cancel e h1);
  "the new tenant's handle is live" => Engine.cancel e h3;
  Engine.run e;
  Alcotest.(check (list int)) "only the second event ran" [ 2 ] !fired;
  (* the same at the queue: a released id comes back, with a new seq *)
  let q = Engine.Queue.create ~dummy:"" () in
  let a = Engine.Queue.alloc q "a" in
  Engine.Queue.reinsert q a ~time:5;
  let seq_a = Engine.Queue.seq q a in
  "popped" => (Engine.Queue.pop_min q = a);
  Engine.Queue.release q a;
  "a released id is not queued" => not (Engine.Queue.mem q a);
  let b = Engine.Queue.alloc q "b" in
  Alcotest.(check int) "released id reallocated" a b;
  Engine.Queue.reinsert q b ~time:5;
  "a new seq for the new tenant" => (Engine.Queue.seq q b <> seq_a);
  (try
     Engine.Queue.release q b;
     Alcotest.fail "releasing a queued id must raise"
   with Invalid_argument _ -> ())

let test_lazy_cancel_pending () =
  let e = Engine.create () in
  let handles =
    List.init 10 (fun i -> Engine.schedule_at e (Time.ms (i + 1)) (fun () -> ()))
  in
  List.iteri (fun i h -> if i mod 2 = 0 then ignore (Engine.cancel e h)) handles;
  (* lazy cancellation leaves dead entries in the heap, but [pending] must
     report only live events *)
  Alcotest.(check int) "pending counts live events only" 5 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "only live events executed" 5 (Engine.events_executed e);
  Alcotest.(check int) "none pending after run" 0 (Engine.pending e)

let test_run_for () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule_at e (Time.ms 100) (fun () -> incr fired));
  Engine.run_for e (Time.ms 50);
  Alcotest.(check int) "not yet" 0 !fired;
  Engine.run_for e (Time.ms 60);
  Alcotest.(check int) "fired in second window" 1 !fired

(* ---- Timer ---------------------------------------------------------- *)

let test_timer_fires_once () =
  let e = Engine.create () in
  let fired = ref 0 in
  let t = Timer.create e ~callback:(fun () -> incr fired) in
  Timer.start t (Time.ms 5);
  "running" => Timer.is_running t;
  Engine.run e;
  Alcotest.(check int) "fired once" 1 !fired;
  "stopped after expiry" => not (Timer.is_running t)

let test_timer_restart_replaces () =
  let e = Engine.create () in
  let fired_at = ref [] in
  let t = Timer.create e ~callback:(fun () -> fired_at := Engine.now e :: !fired_at) in
  Timer.start t (Time.ms 5);
  Timer.start t (Time.ms 20);
  Engine.run e;
  Alcotest.(check (list int)) "only the re-armed expiry fired" [ Time.ms 20 ] !fired_at

let test_timer_stop () =
  let e = Engine.create () in
  let fired = ref false in
  let t = Timer.create e ~callback:(fun () -> fired := true) in
  Timer.start t (Time.ms 5);
  Timer.stop t;
  Engine.run e;
  "stopped timer silent" => not !fired

let test_timer_periodic () =
  let e = Engine.create () in
  let count = ref 0 in
  let t = Timer.create e ~callback:(fun () -> incr count) in
  Timer.start_periodic t (Time.ms 10);
  Engine.run ~until:(Time.ms 55) e;
  Alcotest.(check int) "five ticks in 55ms" 5 !count;
  Timer.stop t;
  Engine.run ~until:(Time.ms 200) e;
  Alcotest.(check int) "no ticks after stop" 5 !count

let test_timer_callback_can_rearm () =
  let e = Engine.create () in
  let count = ref 0 in
  let t_ref = ref None in
  let t =
    Timer.create e ~callback:(fun () ->
        incr count;
        if !count < 3 then
          match !t_ref with Some t -> Timer.start t (Time.ms 1) | None -> ())
  in
  t_ref := Some t;
  Timer.start t (Time.ms 1);
  Engine.run e;
  Alcotest.(check int) "self-rearming chain" 3 !count

let test_timer_expiry_visible () =
  let e = Engine.create () in
  let t = Timer.create e ~callback:(fun () -> ()) in
  "no expiry when idle" => (Timer.expiry t = None);
  Timer.start t (Time.ms 7);
  Alcotest.(check (option int)) "expiry time" (Some (Time.ms 7)) (Timer.expiry t)

(* One timer, re-armed after it fired and again after a stop: each arm
   fires exactly once, at its own time. *)
let test_timer_rearm_after_fire_and_stop () =
  let e = Engine.create () in
  let fired_at = ref [] in
  let t = Timer.create e ~callback:(fun () -> fired_at := Engine.now e :: !fired_at) in
  Timer.start t (Time.ms 5);
  Engine.run e;
  Timer.start t (Time.ms 10);
  Engine.run e;
  Timer.start t (Time.ms 10);
  Timer.stop t;
  Timer.start t (Time.ms 20);
  Engine.run e;
  Alcotest.(check (list int)) "one expiry per arm, at its new time"
    [ Time.ms 35; Time.ms 15; Time.ms 5 ]
    !fired_at

(* [rearm] re-points one handle at a new event; a handle that named the
   recycled id before stays dead, whether the id came back from the free
   list or a cancelled event was revived in place.  A revived event due
   before its new time keeps its place, so it fires early. *)
let test_rearm_keeps_old_handles_dead () =
  let e = Engine.create () in
  let fired = ref [] in
  let h_old = Engine.schedule_at e (Time.ms 1) (fun () -> fired := 0 :: !fired) in
  Engine.run e;
  let h = Engine.unscheduled () in
  "a fresh handle is not live" => not (Engine.cancel e h);
  Engine.rearm e h (Time.ms 5) ~stamp:(Engine.reserve_stamp e) (fun () -> fired := 1 :: !fired);
  "old handle cannot cancel the new event" => not (Engine.cancel e h_old);
  "rearmed handle is live" => Engine.cancel e h;
  Engine.rearm e h (Time.ms 7) ~stamp:(Engine.reserve_stamp e) (fun () -> fired := 2 :: !fired);
  "old handle still dead after a revive" => not (Engine.cancel e h_old);
  Alcotest.(check int) "one event pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "only the last rearm ran" [ 2; 0 ] !fired;
  Alcotest.(check int) "revived in place, at its old time" (Time.ms 5) (Engine.now e)

(* A timer keeps one handle and one closure for life: arming, stopping
   and firing allocate nothing.  Start/stop cycles never run the engine,
   so each start revives the event the stop cancelled. *)
let test_timer_cycles_allocate_nothing () =
  let e = Engine.create () in
  let t = Timer.create e ~callback:ignore in
  let cycles = 10_000 in
  let per_cycle name cycle =
    cycle ();
    let w0 = Gc.minor_words () in
    for _ = 1 to cycles do
      cycle ()
    done;
    let words = (Gc.minor_words () -. w0) /. float_of_int cycles in
    if words >= 1. then Alcotest.failf "%s allocates %.2f words per cycle (budget < 1)" name words
  in
  per_cycle "start/stop" (fun () ->
      Timer.start t (Time.ms 1);
      Timer.stop t);
  per_cycle "start/fire" (fun () ->
      Timer.start t (Time.ms 1);
      ignore (Engine.step e : bool));
  Alcotest.(check int) "every start/stop left nothing pending" 0 (Engine.pending e)

(* A parked periodic timer resumes on its phase.  Woken before the next
   phase point's turn it ticks there, even when the wake runs at that very
   nanosecond; woken after that turn (here by an event queued behind the
   tick at 20 ms) it resumes on the following phase point. *)
let test_timer_park_wake_keeps_phase () =
  let e = Engine.create () in
  let ticks = ref [] in
  let parking = ref true in
  let t_ref = ref None in
  let t =
    Timer.create e ~callback:(fun () ->
        ticks := Engine.now e :: !ticks;
        if !parking then Option.iter Timer.park !t_ref)
  in
  t_ref := Some t;
  Timer.start_periodic t (Time.ms 10);
  (* queued before the 20 ms tick is: runs ahead of it at 20 ms *)
  ignore (Engine.schedule_at e (Time.ms 20) (fun () -> Timer.wake t));
  Engine.run ~until:(Time.ms 25) e;
  Alcotest.(check (list int)) "parked at 10 ms, woken on time for 20 ms"
    [ Time.ms 20; Time.ms 10 ] !ticks;
  "parked again" => not (Timer.is_running t);
  Alcotest.(check int) "a parked timer queues nothing" 0 (Engine.pending e);
  (* the 30 ms tick has had its turn once the run is past it *)
  Engine.run ~until:(Time.ms 30) e;
  parking := false;
  Timer.wake t;
  Alcotest.(check (option int)) "resumes after the skipped point" (Some (Time.ms 40))
    (Timer.expiry t);
  Engine.run ~until:(Time.ms 55) e;
  Alcotest.(check (list int)) "ticks on the original phase"
    [ Time.ms 50; Time.ms 40; Time.ms 20; Time.ms 10 ] !ticks

(* ---- lazy timers against an eager reference ---------------------------- *)

(* The reference moves its event on every arm, the way a timer without
   lazy re-arm would: raw [Engine.schedule_at]/[cancel], one fresh FIFO
   stamp per arm.  Parking only silences the callback; the ticks stay
   queued.  A wake after a silenced tick re-stamps the next tick at the
   first phase point strictly after now, which is the one tie-break
   {!Timer.wake} documents as differing from eager ticking. *)
module Eager = struct
  type t = {
    e : Engine.t;
    cb : unit -> unit;
    mutable h : Engine.handle option;
    mutable period : int;
    mutable next : Time.t; (* time of the queued event *)
    mutable parked : bool;
    mutable silenced : int; (* ticks silenced since the park *)
  }

  let create e cb = { e; cb; h = None; period = 0; next = 0; parked = false; silenced = 0 }

  let cancel t =
    Option.iter (fun h -> ignore (Engine.cancel t.e h)) t.h;
    t.h <- None

  let rec schedule t at =
    t.next <- at;
    t.h <- Some (Engine.schedule_at t.e at (fun () -> fire t))

  and fire t =
    t.h <- None;
    if t.period > 0 then schedule t (t.next + t.period);
    if t.parked then t.silenced <- t.silenced + 1 else t.cb ()

  let start t d =
    cancel t;
    t.period <- 0;
    t.parked <- false;
    schedule t (Engine.now t.e + d)

  let start_periodic t p =
    cancel t;
    t.period <- p;
    t.parked <- false;
    schedule t (Engine.now t.e + p)

  let stop t =
    cancel t;
    t.period <- 0;
    t.parked <- false

  let park t =
    t.parked <- true;
    t.silenced <- 0

  let wake t =
    if t.parked then begin
      t.parked <- false;
      if t.silenced > 0 then begin
        let now = Engine.now t.e in
        let at = if t.next > now then t.next else t.next + t.period in
        cancel t;
        schedule t at
      end
    end
end

(* One interface over both implementations, so one script runner drives both. *)
type timer_ops = {
  t_start : Time.span -> unit;
  t_periodic : Time.span -> unit;
  t_stop : unit -> unit;
  t_park : unit -> unit;
  t_wake : unit -> unit;
}

type cb_action = Cb_none | Cb_park | Cb_start of int | Cb_periodic of int | Cb_stop

type op =
  | Start of int * int
  | Periodic of int * int
  | Stop of int
  | Park of int
  | Wake of int
  | Noise of int
  | On_next_tick of int * cb_action

(* Script step: wait [gap] ms, then run [op] — from an event queued [gap]
   ago, or with [outside] from between two bounded runs. *)
type step = { gap : int; outside : bool; op : op }

type mode = Off | One_shot | Periodic_on | Parked

let n_timers = 3

(* Run a script and return every callback as (time, label), in dispatch
   order.  [make e cb] builds one timer of the implementation under
   test. *)
let run_timer_script make script =
  let e = Engine.create () in
  let log = ref [] in
  let record label = log := (Engine.now e, label) :: !log in
  let mode = Array.make n_timers Off in
  let action = Array.make n_timers Cb_none in
  let timers = Array.make n_timers None in
  let get i = Option.get timers.(i) in
  let start i d =
    mode.(i) <- One_shot;
    (get i).t_start (Time.ms d)
  and periodic i p =
    mode.(i) <- Periodic_on;
    (get i).t_periodic (Time.ms p)
  and stop i =
    mode.(i) <- Off;
    (get i).t_stop ()
  and park i =
    if mode.(i) = Periodic_on then begin
      mode.(i) <- Parked;
      (get i).t_park ()
    end
  in
  for i = 0 to n_timers - 1 do
    timers.(i) <-
      Some
        (make e (fun () ->
             record (Printf.sprintf "T%d" i);
             if mode.(i) = One_shot then mode.(i) <- Off;
             let a = action.(i) in
             action.(i) <- Cb_none;
             match a with
             | Cb_none -> ()
             | Cb_park -> park i
             | Cb_start d -> start i d
             | Cb_periodic p -> periodic i p
             | Cb_stop -> stop i))
  done;
  let noise = ref 0 in
  let exec k op =
    record (Printf.sprintf "D%d" k);
    match op with
    | Start (i, d) -> start i d
    | Periodic (i, p) -> periodic i p
    | Stop i -> stop i
    | Park i -> park i
    | Wake i ->
        if mode.(i) = Parked then mode.(i) <- Periodic_on;
        (get i).t_wake ()
    | Noise d ->
        let id = !noise in
        incr noise;
        ignore
          (Engine.schedule_at e (Engine.now e + Time.ms d) (fun () ->
               record (Printf.sprintf "N%d" id)))
    | On_next_tick (i, a) -> action.(i) <- a
  in
  List.iteri
    (fun k { gap; outside; op } ->
      let at = Engine.now e + Time.ms gap in
      if outside then begin
        Engine.run ~until:at e;
        exec k op
      end
      else begin
        ignore (Engine.schedule_at e at (fun () -> exec k op));
        Engine.run ~until:at e
      end)
    script;
  Engine.run ~until:(Engine.now e + Time.ms 100) e;
  List.rev !log

let lazy_timer e cb =
  let t = Timer.create e ~callback:cb in
  {
    t_start = Timer.start t;
    t_periodic = Timer.start_periodic t;
    t_stop = (fun () -> Timer.stop t);
    t_park = (fun () -> Timer.park t);
    t_wake = (fun () -> Timer.wake t);
  }

let eager_timer e cb =
  let t = Eager.create e cb in
  {
    t_start = Eager.start t;
    t_periodic = Eager.start_periodic t;
    t_stop = (fun () -> Eager.stop t);
    t_park = (fun () -> Eager.park t);
    t_wake = (fun () -> Eager.wake t);
  }

(* Small ms values so that expiries, ticks, noise and script steps keep
   landing on the same nanosecond; 20 and 30 ms lie beyond the wheel's
   16.8 ms horizon. *)
let gen_step =
  let open QCheck.Gen in
  let timer = int_bound (n_timers - 1) in
  let delay = oneofl [ 0; 1; 2; 3; 4; 5; 6; 30 ] in
  let period = oneofl [ 1; 2; 3; 5; 20 ] in
  let action =
    frequency
      [
        (3, return Cb_park);
        (2, map (fun d -> Cb_start d) delay);
        (1, map (fun p -> Cb_periodic p) period);
        (1, return Cb_stop);
      ]
  in
  let op =
    frequency
      [
        (3, map2 (fun i d -> Start (i, d)) timer delay);
        (2, map2 (fun i p -> Periodic (i, p)) timer period);
        (1, map (fun i -> Stop i) timer);
        (2, map (fun i -> Park i) timer);
        (4, map (fun i -> Wake i) timer);
        (3, map (fun d -> Noise d) delay);
        (3, map2 (fun i a -> On_next_tick (i, a)) timer action);
      ]
  in
  map3
    (fun gap outside op -> { gap; outside; op })
    (oneofl [ 0; 0; 1; 2; 3; 5; 10; 20 ])
    (map (fun k -> k = 0) (int_bound 3))
    op

let pp_op = function
  | Start (i, d) -> Printf.sprintf "start %d %dms" i d
  | Periodic (i, p) -> Printf.sprintf "periodic %d %dms" i p
  | Stop i -> Printf.sprintf "stop %d" i
  | Park i -> Printf.sprintf "park %d" i
  | Wake i -> Printf.sprintf "wake %d" i
  | Noise d -> Printf.sprintf "noise %dms" d
  | On_next_tick (i, a) ->
      Printf.sprintf "on-tick %d %s" i
        (match a with
        | Cb_none -> "none"
        | Cb_park -> "park"
        | Cb_start d -> Printf.sprintf "start %dms" d
        | Cb_periodic p -> Printf.sprintf "periodic %dms" p
        | Cb_stop -> "stop")

let pp_step { gap; outside; op } =
  Printf.sprintf "+%dms%s %s" gap (if outside then " (outside)" else "") (pp_op op)

let prop_lazy_timers_match_eager =
  QCheck.Test.make ~name:"lazy timers fire where eager ones do" ~count:2000
    (QCheck.make
       ~print:(fun steps -> String.concat "\n" (List.map pp_step steps))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 60) gen_step))
    (fun script ->
      let lazy_log = run_timer_script lazy_timer script in
      let eager_log = run_timer_script eager_timer script in
      lazy_log = eager_log
      || QCheck.Test.fail_reportf "lazy:  %s\neager: %s"
           (String.concat " " (List.map (fun (t, l) -> Printf.sprintf "%s@%d" l t) lazy_log))
           (String.concat " " (List.map (fun (t, l) -> Printf.sprintf "%s@%d" l t) eager_log)))

(* ---- Sim_log --------------------------------------------------------- *)

let test_sim_log_stamps_virtual_time () =
  let e = Engine.create () in
  Sim_log.setup e ~level:Logs.Debug ();
  (* capture through a custom reporter stacked on top *)
  let captured = ref [] in
  let report _src _lvl ~over k msgf =
    let k _ = over (); k () in
    msgf (fun ?header:_ ?tags:_ fmt ->
        Format.kasprintf
          (fun s ->
            captured := (Engine.now e, s) :: !captured;
            k "")
          fmt)
  in
  Logs.set_reporter { Logs.report };
  let src = Sim_log.src "test" in
  ignore (Engine.schedule_at e (Time.ms 250) (fun () ->
      Logs.debug ~src (fun m -> m "hello at %d" 250)));
  Engine.run e;
  (match !captured with
  | [ (at, msg) ] ->
      Alcotest.(check int) "captured at virtual time" (Time.ms 250) at;
      Alcotest.(check string) "message body" "hello at 250" msg
  | l -> Alcotest.fail (Printf.sprintf "expected one message, got %d" (List.length l)));
  Logs.set_reporter Logs.nop_reporter

let test_sim_log_src_memoized () =
  "same source returned" => (Sim_log.src "cm" == Sim_log.src "cm");
  "different names differ" => (Sim_log.src "cm" != Sim_log.src "tcp")

(* the real reporter, captured through [?ppf]: lines are stamped with the
   engine's virtual clock, not wall time *)
let test_sim_log_reporter_virtual_stamp () =
  let e = Engine.create () in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Sim_log.setup e ~level:Logs.Debug ~ppf ();
  let src = Sim_log.src "test" in
  ignore
    (Engine.schedule_at e (Time.ms 250) (fun () -> Logs.debug ~src (fun m -> m "tick")));
  Engine.run e;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  let stamp = Format.asprintf "[%a]" Time.pp (Time.ms 250) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  "stamped with virtual time" => contains out stamp;
  "message body present" => contains out "tick";
  Logs.set_reporter Logs.nop_reporter

(* messages below the configured level never reach the sink *)
let test_sim_log_level_filtering () =
  let e = Engine.create () in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Sim_log.setup e ~level:Logs.Warning ~ppf ();
  let src = Sim_log.src "test" in
  Logs.debug ~src (fun m -> m "suppressed debug");
  Logs.info ~src (fun m -> m "suppressed info");
  Format.pp_print_flush ppf ();
  "below-level messages suppressed" => (Buffer.length buf = 0);
  Logs.warn ~src (fun m -> m "visible warning");
  Format.pp_print_flush ppf ();
  "at-level message delivered" => (Buffer.length buf > 0);
  Logs.set_reporter Logs.nop_reporter

(* ---- profiler / escape hook / occupancy stats ------------------------- *)

let test_prof_counts_dispatches () =
  let e = Engine.create () in
  Engine.enable_prof e;
  for i = 1 to 10 do
    ignore (Engine.schedule_at e (Time.ms i) (Engine.prof_tag e ~cat:"cm" (fun () -> ())))
  done;
  ignore (Engine.schedule_at e (Time.ms 20) (fun () -> ()));
  Engine.run e;
  match Engine.prof_report e with
  | None -> Alcotest.fail "no prof report"
  | Some r ->
      Alcotest.(check int) "total dispatches" 11 r.Engine.pr_dispatches;
      let count name =
        match List.find_opt (fun c -> c.Engine.pc_name = name) r.Engine.pr_categories with
        | Some c -> c.Engine.pc_dispatches
        | None -> 0
      in
      Alcotest.(check int) "cm-tagged" 10 (count "cm");
      Alcotest.(check int) "untagged fall in other" 1 (count "other");
      (* per-category counts always sum to the total: exact, not sampled *)
      let sum =
        List.fold_left (fun acc c -> acc + c.Engine.pc_dispatches) 0 r.Engine.pr_categories
      in
      Alcotest.(check int) "categories sum to total" r.Engine.pr_dispatches sum

let test_prof_tag_identity_when_off () =
  let e = Engine.create () in
  let f () = () in
  "prof_tag is physically the identity on an unprofiled engine"
  => (Engine.prof_tag e ~cat:"cm" f == f)

let test_escape_hook_fires_and_reraises () =
  let e = Engine.create () in
  let seen = ref None in
  Engine.set_escape_hook e (Some (fun exn -> seen := Some (Printexc.to_string exn)));
  ignore (Engine.schedule_at e (Time.ms 1) (fun () -> failwith "boom"));
  (try
     Engine.run e;
     Alcotest.fail "exception swallowed"
   with Failure m -> Alcotest.(check string) "reraised" "boom" m);
  (match !seen with
  | Some s -> "hook saw the exception" => (s <> "")
  | None -> Alcotest.fail "escape hook never fired")

let test_pool_and_queue_stats () =
  let e = Engine.create () in
  for i = 1 to 50 do
    ignore (Engine.schedule_at e (Time.ms i) (fun () -> ()))
  done;
  let st = Engine.queue_stats e in
  Alcotest.(check int) "live size" 50 st.Wheel.size_now;
  "high-water tracks the burst" => (st.Wheel.hw_size >= 50);
  Engine.run e;
  let st = Engine.queue_stats e in
  Alcotest.(check int) "drained" 0 st.Wheel.size_now;
  "pool high-water recorded" => (Engine.pool_hw e > 0)

(* ---- stress ----------------------------------------------------------- *)

let test_engine_million_events () =
  let e = Engine.create () in
  let rng = Cm_util.Rng.create ~seed:1 in
  let count = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 1_000_000 do
    ignore
      (Engine.schedule_at e (Cm_util.Rng.int rng 1_000_000_000) (fun () -> incr count))
  done;
  Engine.run e;
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "all ran" 1_000_000 !count;
  Alcotest.(check int) "executed counter" 1_000_000 (Engine.events_executed e);
  "a million events under 10s wall" => (wall < 10.)

let prop_engine_order =
  QCheck.Test.make ~name:"engine executes any schedule in sorted order" ~count:100
    QCheck.(list (int_bound 1000))
    (fun delays ->
      let e = Engine.create () in
      let out = ref [] in
      List.iter
        (fun d -> ignore (Engine.schedule_at e (Time.us d) (fun () -> out := d :: !out)))
        delays;
      Engine.run e;
      List.rev !out = List.stable_sort Stdlib.compare delays)

let test_ids_recycle_after_burst () =
  let e = Engine.create () in
  (* burst: 10k simultaneously-outstanding events, one id each *)
  for i = 1 to 10_000 do
    ignore (Engine.schedule_at e (Time.us i) ignore)
  done;
  Engine.run e;
  Alcotest.(check int) "burst executed" 10_000 (Engine.events_executed e);
  Alcotest.(check int) "one id per outstanding event" 10_000 (Engine.pool_hw e);
  (* a second burst and steady state reuse the released ids *)
  for i = 1 to 10_000 do
    Engine.post e (Time.us i) ignore
  done;
  Engine.run e;
  for _ = 1 to 100 do
    Engine.post e (Time.us 1) ignore;
    Engine.run e
  done;
  Alcotest.(check int) "no id allocated past the high-water" 10_000 (Engine.pool_hw e)

let () =
  Alcotest.run "eventsim"
    [
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_runs_in_time_order;
          Alcotest.test_case "fifo ties" `Quick test_fifo_at_same_time;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "past rejected" `Quick test_schedule_in_past_rejected;
          Alcotest.test_case "events schedule events" `Quick test_events_schedule_events;
          Alcotest.test_case "step and counters" `Quick test_step_and_counters;
          Alcotest.test_case "stale handle after cell reuse" `Quick
            test_stale_handle_after_reuse;
          Alcotest.test_case "negative delays run now" `Quick test_negative_delays_run_now;
          Alcotest.test_case "clock and stamp fields" `Quick test_clock_and_stamp_fields;
          Alcotest.test_case "released id keeps old handle dead" `Quick
            test_released_id_keeps_old_handle_dead;
          Alcotest.test_case "lazy cancel pending" `Quick test_lazy_cancel_pending;
          Alcotest.test_case "run_for windows" `Quick test_run_for;
          QCheck_alcotest.to_alcotest prop_engine_order;
          Alcotest.test_case "ids recycle after a burst" `Quick test_ids_recycle_after_burst;
        ] );
      ( "timer",
        [
          Alcotest.test_case "fires once" `Quick test_timer_fires_once;
          Alcotest.test_case "restart replaces" `Quick test_timer_restart_replaces;
          Alcotest.test_case "stop" `Quick test_timer_stop;
          Alcotest.test_case "periodic" `Quick test_timer_periodic;
          Alcotest.test_case "callback can re-arm" `Quick test_timer_callback_can_rearm;
          Alcotest.test_case "expiry visible" `Quick test_timer_expiry_visible;
          Alcotest.test_case "re-arm after fire and stop" `Quick
            test_timer_rearm_after_fire_and_stop;
          Alcotest.test_case "rearm keeps old handles dead" `Quick
            test_rearm_keeps_old_handles_dead;
          Alcotest.test_case "cycles allocate nothing" `Quick test_timer_cycles_allocate_nothing;
          Alcotest.test_case "park and wake keep the phase" `Quick
            test_timer_park_wake_keeps_phase;
          QCheck_alcotest.to_alcotest prop_lazy_timers_match_eager;
        ] );
      ( "sim_log",
        [
          Alcotest.test_case "virtual-time stamps" `Quick test_sim_log_stamps_virtual_time;
          Alcotest.test_case "memoized sources" `Quick test_sim_log_src_memoized;
          Alcotest.test_case "reporter stamps virtual clock" `Quick
            test_sim_log_reporter_virtual_stamp;
          Alcotest.test_case "level filtering suppresses" `Quick test_sim_log_level_filtering;
        ] );
      ( "prof",
        [
          Alcotest.test_case "exact per-category dispatch counts" `Quick
            test_prof_counts_dispatches;
          Alcotest.test_case "prof_tag identity when off" `Quick test_prof_tag_identity_when_off;
          Alcotest.test_case "escape hook fires and reraises" `Quick
            test_escape_hook_fires_and_reraises;
          Alcotest.test_case "pool and wheel occupancy stats" `Quick test_pool_and_queue_stats;
        ] );
      ( "stress",
        [ Alcotest.test_case "a million events" `Slow test_engine_million_events ]);
    ]
