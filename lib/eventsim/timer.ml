open Cm_util

(* One engine handle and one fire closure, both made in [create], serve
   every arm of the timer's life: a re-arm moves the pending event in
   place, or refills the spent handle with a new event, so arming,
   stopping and firing allocate nothing. *)
type t = {
  engine : Engine.t;
  callback : unit -> unit;
  handle : Engine.handle;
  mutable armed : bool;
  mutable expiry : Time.t; (* meaningful only when [armed] *)
  mutable period : Time.span; (* 0 = one-shot *)
  mutable fire : unit -> unit;
}

(* Re-arm to an absolute expiry.  If the previous engine event is still
   pending (the common TCP retransmit-reset case) it is moved in place —
   no cancellation churn; otherwise the handle is refilled with a new
   event running the timer's fire closure. *)
let arm_at t when_ =
  t.armed <- true;
  t.expiry <- when_;
  if not (Engine.reschedule t.engine t.handle when_) then
    Engine.refill t.engine t.handle when_ t.fire

let create engine ~callback =
  let t =
    {
      engine;
      callback;
      handle = Engine.unscheduled ();
      armed = false;
      expiry = 0;
      period = 0;
      fire = ignore;
    }
  in
  t.fire <-
    Engine.prof_tag engine ~cat:"timer"
    @@ (fun () ->
      t.armed <- false;
      (* periodic re-arm is anchored on the previous expiry, not on "now",
         so the tick sequence is exactly [start + k*period] with no drift
         accumulation *)
      if t.period > 0 then arm_at t (Time.add t.expiry t.period);
      t.callback ());
  t

let stop t =
  if t.armed then ignore (Engine.cancel t.engine t.handle);
  t.armed <- false;
  t.period <- 0

let arm t delay = arm_at t (Time.add (Engine.now t.engine) (Stdlib.max delay 0))

let start t delay =
  t.period <- 0;
  arm t delay

let start_periodic t period =
  if period <= 0 then invalid_arg "Timer.start_periodic: period must be positive";
  t.period <- period;
  arm t period

let is_running t = t.armed
let expiry t = if t.armed then Some t.expiry else None
