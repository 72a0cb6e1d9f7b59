open Cm_util

(* One engine handle and one fire closure, both made in [create], serve
   every arm of the timer's life, so arming, stopping and firing allocate
   nothing.

   The timer's target is the key [(expiry, stamp)] an eager timer's event
   would carry: [stamp] is a FIFO stamp reserved at the arm, exactly where
   an eager arm takes its seq.  The queued event may lie earlier than the
   target (a re-arm to a later expiry leaves it in place); when it fires
   early it re-queues at the target instead of running the callback, so
   the callback runs at exactly the key the eager move would have given
   it. *)
type state = Stopped | Armed | Parked

(* One [state] field rather than two flags: every TCP connection holds a
   retransmit and a delayed-ack timer, and every macroflow a maintenance
   clock, so every word of the record counts. *)
type t = {
  engine : Engine.t;
  handle : Engine.handle;
  mutable state : state;
  mutable expiry : Time.t; (* target time: pending when [Armed], next phase when [Parked] *)
  mutable stamp : int; (* target FIFO stamp *)
  mutable period : Time.span; (* 0 = one-shot *)
  mutable fire : unit -> unit;
}

let queue t = Engine.rearm t.engine t.handle t.expiry ~stamp:t.stamp t.fire

let arm_at t when_ =
  t.state <- Armed;
  t.expiry <- when_;
  t.stamp <- Engine.reserve_stamp t.engine;
  queue t

let create engine ~callback =
  let t =
    {
      engine;
      handle = Engine.unscheduled ();
      state = Stopped;
      expiry = 0;
      stamp = -1;
      period = 0;
      fire = ignore;
    }
  in
  t.fire <-
    Engine.prof_tag engine ~cat:"timer"
    @@ (fun () ->
      if Engine.current_stamp t.engine <> t.stamp then queue t
      else begin
        (* a periodic timer takes its next stamp before the callback, where
           an eager re-arm would; its phase is anchored on the previous
           expiry, so ticks fall at exactly [start + k*period] *)
        if t.period > 0 then begin
          t.expiry <- Time.add t.expiry t.period;
          t.stamp <- Engine.reserve_stamp t.engine
        end
        else t.state <- Stopped;
        callback ();
        (* queued after the callback, unless it stopped, parked or re-armed
           the timer (a re-arm has queued the target already) *)
        if t.state = Armed then queue t
      end);
  t

(* a stopped timer's period is already 0, so stopping it writes nothing *)
let stop t =
  if t.state <> Stopped then begin
    if t.state = Armed then ignore (Engine.cancel t.engine t.handle);
    t.state <- Stopped;
    t.period <- 0
  end

let arm t delay = arm_at t (Time.add (Engine.now t.engine) (Stdlib.max delay 0))

let start t delay =
  t.period <- 0;
  arm t delay

let start_periodic t period =
  if period <= 0 then invalid_arg "Timer.start_periodic: period must be positive";
  t.period <- period;
  arm t period

let park t =
  if t.period = 0 then invalid_arg "Timer.park: not a periodic timer";
  if t.state = Armed then begin
    ignore (Engine.cancel t.engine t.handle);
    t.state <- Parked
  end

let wake t =
  if t.state = Parked then begin
    let now = Engine.now t.engine in
    if now < t.expiry || (now = t.expiry && Engine.current_stamp t.engine < t.stamp) then begin
      (* the next phase point has not had its turn: resume on it, with the
         stamp reserved for it *)
      t.state <- Armed;
      queue t
    end
    else
      (* phase points were skipped: resume on the first one after now *)
      arm_at t (Time.add t.expiry (((Time.diff now t.expiry / t.period) + 1) * t.period))
  end

let is_running t = t.state = Armed
let expiry t = if t.state = Armed then Some t.expiry else None
