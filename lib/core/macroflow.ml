open Cm_util
open Eventsim

let log = Sim_log.src "cm"

(* [g_dead] is the consumed/released flag: a record is marked dead in O(1)
   where it stands and physically dequeued only when it reaches the front
   of a queue, the same lazy-deletion trick the event engine uses.  Each
   record sits in two queues — the macroflow-wide age order (what the
   reclaim timer scans) and its flow's own order (what take_grant pops) —
   threaded intrusively through the record itself ([g_qnext] for the
   global chain, [g_fnext] for the flow chain), so issuing a grant
   allocates exactly one record and no queue cells.  Marking rather than
   splicing keeps both chains consistent without either scan.

   [g_mem] is the issuing member's record (below), so consuming or
   releasing a grant reaches the flow's chain by one pointer load — no
   per-flow hash table anywhere on the grant path. *)
type grant_record = {
  at : Time.t;
  reserved : int;
  g_mem : member; (* issuing member; head/tail of the per-flow chain *)
  mutable g_dead : bool;
  mutable g_qnext : grant_record; (* global age chain; [g_nil] terminated *)
  mutable g_fnext : grant_record; (* per-flow chain; [g_nil] terminated *)
}

(* A member is a flow's standing within one macroflow: its scheduler key
   ([m_ix], a small macroflow-local index recycled on detach, which keeps
   the scheduler's arrays dense and cache-resident) and the head/tail of
   its own grant chain.  The CM holds the member record in its flow entry
   and passes it back on every per-flow call, so request/notify/release
   are pointer-chasing only. *)
and member = {
  m_fid : Cm_types.flow_id; (* for reclaim reporting; stale after detach *)
  m_ix : int;
  mutable m_head : grant_record; (* flow's grant chain, oldest first *)
  mutable m_tail : grant_record;
}

(* chain terminator: points to itself so a popped record can be unlinked
   by pointing at [g_nil] without an option box per link *)
let rec g_nil =
  { at = 0; reserved = 0; g_mem = m_nil; g_dead = true; g_qnext = g_nil; g_fnext = g_nil }

and m_nil = { m_fid = -1; m_ix = -1; m_head = g_nil; m_tail = g_nil }

let nil_member = m_nil
let member_fid m = m.m_fid

type watchdog = { wd_rtts : float; wd_floor : Time.span }

let default_watchdog = { wd_rtts = 3.; wd_floor = Time.ms 300 }

(* Smoothed RTT state lives in its own all-float record: OCaml stores it
   as a flat float block, so the per-update stores don't box. *)
type rtt_state = { mutable srtt : float; mutable rttvar : float }

type t = {
  engine : Engine.t;
  id : int;
  mtu : int;
  ctrl : Controller.t;
  sched : Scheduler.t;
  deliver_grant : t -> member -> reserved:int -> unit;
  on_state_change : unit -> unit;
  on_reclaim : (Cm_types.flow_id -> int -> unit) option;
  on_tick : (t -> unit) option;
  watchdog : watchdog option;
  grant_reclaim_after : Time.span;
  idle_restart : Time.span option;
  mutable last_tx : Time.t;
  (* window accounting, payload bytes *)
  mutable outstanding : int;
  (* the controller's window, mirrored into a plain field so the grant
     loop reads an int instead of calling through the controller's
     operations; refreshed at every controller mutation *)
  mutable cwnd_now : int;
  (* current per-grant reservation, mirrored likewise (recomputed when
     [avg_pkt] absorbs a sample) *)
  mutable resv_now : int;
  mutable gq_head : grant_record; (* oldest first, may hold dead records *)
  mutable gq_tail : grant_record;
  (* member directory by scheduler index: maps the index the scheduler
     hands back from dequeue to the member it belongs to.  Dense, one slot
     at create and grown by doubling; detached slots hold [m_nil] and go
     on the free list. *)
  mutable mix : member array;
  mutable mix_free : int list;
  mutable mix_high : int; (* indices >= mix_high have never been used *)
  mutable live_grants : int; (* non-dead records across both views *)
  mutable granted_bytes : int; (* sum of outstanding grant reservations *)
  (* Grants promise "up to MTU bytes", but reserving a full MTU per grant
     starves flows whose packets are small (interactive audio sends 160-byte
     frames).  The macroflow learns each flow ensemble's typical packet
     size from cm_notify and reserves that much per grant instead. *)
  avg_pkt : Ewma.t;
  (* shared RTT estimate, ns as floats (TCP gains) *)
  rtts : rtt_state;
  mutable rtt_valid : bool;
  loss_ewma : Ewma.t;
  mutable members : int;
  mutable grant_event_pending : bool;
  (* the grant-batch event callback, allocated once at create: grants are
     issued in batches (one engine event drains every issuable grant), so
     the per-batch cost must not include building a fresh closure *)
  mutable grant_thunk : unit -> unit;
  mutable maintenance : Timer.t option;
  mutable last_feedback : Time.t;
  mutable last_watchdog : Time.t;
  mutable grants_issued : int;
  mutable grants_reclaimed : int;
  mutable grants_released : int;
  mutable conservation_breaches : int;
  mutable watchdog_fires : int;
  (* telemetry: Trace.nil unless Cm.attach_telemetry wired a live sink *)
  mutable trace : Telemetry.Trace.t;
}

let granted t = t.granted_bytes

let refresh_cwnd t = t.cwnd_now <- Controller.cwnd t.ctrl

let refresh_reservation t =
  t.resv_now <-
    (if Ewma.initialized t.avg_pkt then
       Int.min t.mtu (Int.max 64 (Ewma.int_value t.avg_pkt))
     else t.mtu)

let reservation t = t.resv_now
let window_avail t = t.cwnd_now - t.outstanding - t.granted_bytes

(* ---- intrusive chain plumbing ----------------------------------------- *)

let gq_push t g =
  if t.gq_tail == g_nil then t.gq_head <- g else t.gq_tail.g_qnext <- g;
  t.gq_tail <- g

let gq_pop t =
  let g = t.gq_head in
  t.gq_head <- g.g_qnext;
  if t.gq_head == g_nil then t.gq_tail <- g_nil;
  g.g_qnext <- g_nil;
  g

let fg_push m g =
  if m.m_tail == g_nil then m.m_head <- g else m.m_tail.g_fnext <- g;
  m.m_tail <- g

let fg_pop m =
  let g = m.m_head in
  m.m_head <- g.g_fnext;
  if m.m_head == g_nil then m.m_tail <- g_nil;
  g.g_fnext <- g_nil;
  g

let gq_drop_dead t =
  while t.gq_head != g_nil && t.gq_head.g_dead do
    ignore (gq_pop t)
  done

let fg_drop_dead m =
  while m.m_head != g_nil && m.m_head.g_dead do
    ignore (fg_pop m)
  done

(* The maintenance clock parks while the macroflow holds neither grants
   nor outstanding bytes (see [maintenance_tick]); everything that gives
   it either wakes the clock. *)
let wake_maintenance t = match t.maintenance with Some tm -> Timer.wake tm | None -> ()

let push_grant t g =
  gq_push t g;
  fg_push g.g_mem g;
  t.live_grants <- t.live_grants + 1;
  wake_maintenance t

(* Mark a record consumed/released and let dead records drain off the
   global front so they cannot pile up behind a long-lived live one. *)
let kill_grant t g =
  g.g_dead <- true;
  t.live_grants <- t.live_grants - 1;
  gq_drop_dead t

(* [deliver_grant] reenters [notify]/[update] through the client's
   callback, so every window term below must be re-read per iteration —
   with the mirrored fields that is four int loads, not closure calls.
   A top-level loop: a local one would be a closure per grant batch. *)
let rec grant_loop t =
  if t.cwnd_now - t.outstanding - t.granted_bytes >= t.resv_now then begin
    let ix = Scheduler.dequeue t.sched in
    if ix >= 0 then begin
      let m = t.mix.(ix) in
      if m == m_nil then grant_loop t (* unreachable: detach purges the scheduler *)
      else begin
        let reserved = t.resv_now in
        push_grant t
          {
            at = Engine.now t.engine;
            reserved;
            g_mem = m;
            g_dead = false;
            g_qnext = g_nil;
            g_fnext = g_nil;
          };
        t.granted_bytes <- t.granted_bytes + reserved;
        t.grants_issued <- t.grants_issued + 1;
        (* window conservation is only meaningful at the moment credit
           is extended: after a loss halves cwnd, outstanding may
           legitimately exceed it while the pipe drains.  The guard
           above makes this unreachable; the counter is what the
           invariant auditor checks. *)
        if t.outstanding + t.granted_bytes > t.cwnd_now + t.mtu then
          t.conservation_breaches <- t.conservation_breaches + 1;
        t.deliver_grant t m ~reserved;
        grant_loop t
      end
    end
  end

let run_grants t =
  t.grant_event_pending <- false;
  grant_loop t

let maybe_grant t =
  if
    (not t.grant_event_pending)
    && Scheduler.pending t.sched > 0
    && window_avail t >= reservation t
  then begin
    t.grant_event_pending <- true;
    Engine.post t.engine 0 t.grant_thunk
  end

let maintenance_tick t =
  (* Reclaim grants that were never followed by a transmission. *)
  let now = Engine.now t.engine in
  let reclaimed = ref false in
  let expired g = Time.diff now g.at > t.grant_reclaim_after in
  let scanning = ref true in
  while !scanning && t.gq_head != g_nil do
    let g = t.gq_head in
    if g.g_dead then ignore (gq_pop t)
    else if expired g then begin
      Logs.debug ~src:log (fun m -> m "macroflow %d: reclaiming a stale grant" t.id);
      ignore (gq_pop t);
      g.g_dead <- true;
      t.live_grants <- t.live_grants - 1;
      t.granted_bytes <- Int.max 0 (t.granted_bytes - g.reserved);
      t.grants_reclaimed <- t.grants_reclaimed + 1;
      (match t.on_reclaim with Some f -> f g.g_mem.m_fid g.reserved | None -> ());
      reclaimed := true
    end
    else scanning := false
  done;
  (* Error handling: if feedback has stopped arriving while bytes remain
     charged as outstanding, decay the charge so the macroflow cannot
     deadlock on lost feedback. *)
  if t.outstanding > 0 && Time.diff now t.last_feedback > Time.ms 1_000 then begin
    t.outstanding <- t.outstanding / 2;
    reclaimed := true
  end;
  (* Feedback watchdog: outstanding bytes with no cm_update for k·srtt
     means the window was computed from information the path has outgrown.
     Age cwnd one halving toward the initial window per elapsed threshold;
     repeated silence converges exponentially on the initial window. *)
  (match t.watchdog with
  | Some wd when t.outstanding > 0 ->
      let threshold =
        if t.rtt_valid then Int.max wd.wd_floor (int_of_float (wd.wd_rtts *. t.rtts.srtt))
        else wd.wd_floor
      in
      if
        Time.diff now t.last_feedback > threshold
        && Time.diff now t.last_watchdog > threshold
      then begin
        let cwnd_before = t.cwnd_now in
        Controller.age t.ctrl;
        refresh_cwnd t;
        t.last_watchdog <- now;
        t.watchdog_fires <- t.watchdog_fires + 1;
        if Telemetry.Trace.on t.trace then
          Telemetry.Trace.instant t.trace ~cat:"cm" "cm.watchdog"
            [
              ("mf", Telemetry.Trace.Int t.id);
              ("cwnd_before", Telemetry.Trace.Int cwnd_before);
              ("cwnd_after", Telemetry.Trace.Int t.cwnd_now);
              ("silence_ns", Telemetry.Trace.Int (Time.diff now t.last_feedback));
            ]
      end
  | _ -> ());
  (match t.on_tick with Some f -> f t | None -> ());
  if !reclaimed then maybe_grant t;
  (* With no grant and nothing outstanding, every later tick is a no-op
     until a grant or a transmission wakes the clock.  An [on_tick] hook
     (the auditor) wants every tick, so its macroflow never parks. *)
  if t.live_grants = 0 && t.outstanding = 0 && Option.is_none t.on_tick then
    match t.maintenance with Some tm -> Timer.park tm | None -> ()

(* The record alone: no grant thunk, no maintenance timer. *)
let make engine ~id ~mtu ~controller ~scheduler ~deliver_grant ~on_state_change ~on_reclaim
    ~on_tick ~watchdog ~grant_reclaim_after ~idle_restart =
  let t =
    {
      engine;
      id;
      mtu;
      ctrl = controller ~mtu;
      sched = scheduler ();
      deliver_grant;
      on_state_change;
      on_reclaim;
      on_tick;
      watchdog;
      grant_reclaim_after;
      idle_restart;
      last_tx = Engine.now engine;
      outstanding = 0;
      cwnd_now = 0;
      resv_now = mtu;
      gq_head = g_nil;
      gq_tail = g_nil;
      mix = Array.make 1 m_nil;
      mix_free = [];
      mix_high = 0;
      live_grants = 0;
      granted_bytes = 0;
      avg_pkt = Ewma.create ~gain:0.25;
      rtts = { srtt = 0.; rttvar = 0. };
      rtt_valid = false;
      loss_ewma = Ewma.create ~gain:0.25;
      members = 0;
      grant_event_pending = false;
      grant_thunk = ignore;
      maintenance = None;
      last_feedback = Engine.now engine;
      last_watchdog = Engine.now engine;
      grants_issued = 0;
      grants_reclaimed = 0;
      grants_released = 0;
      conservation_breaches = 0;
      watchdog_fires = 0;
      trace = Telemetry.Trace.nil;
    }
  in
  refresh_cwnd t;
  refresh_reservation t;
  t

let create engine ~id ~mtu ~controller ~scheduler ~deliver_grant ~on_state_change ?on_reclaim
    ?on_tick ?watchdog ?(grant_reclaim_after = Time.ms 500) ?idle_restart () =
  if mtu <= 0 then invalid_arg "Macroflow.create: mtu must be positive";
  let t =
    make engine ~id ~mtu ~controller ~scheduler ~deliver_grant ~on_state_change ~on_reclaim
      ~on_tick ~watchdog ~grant_reclaim_after ~idle_restart
  in
  t.grant_thunk <- Engine.prof_tag engine ~cat:"cm" (fun () -> run_grants t);
  let timer = Timer.create engine ~callback:(fun () -> maintenance_tick t) in
  Timer.start_periodic timer (Time.ms 100);
  t.maintenance <- Some timer;
  t

let placeholder engine =
  make engine ~id:(-1) ~mtu:1 ~controller:(Controller.aimd ()) ~scheduler:Scheduler.round_robin
    ~deliver_grant:(fun _ _ ~reserved:_ -> ())
    ~on_state_change:ignore ~on_reclaim:None ~on_tick:None ~watchdog:None
    ~grant_reclaim_after:0 ~idle_restart:None

let id t = t.id
let mtu t = t.mtu
let set_trace t tr = t.trace <- tr
let cwnd t = t.cwnd_now
let ssthresh t = Controller.ssthresh t.ctrl
let outstanding t = t.outstanding
let members t = t.members

let add_member t fid =
  let ix =
    match t.mix_free with
    | ix :: rest ->
        t.mix_free <- rest;
        ix
    | [] ->
        let ix = t.mix_high in
        t.mix_high <- ix + 1;
        if ix >= Array.length t.mix then begin
          let grown = Array.make (2 * Array.length t.mix) m_nil in
          Array.blit t.mix 0 grown 0 (Array.length t.mix);
          t.mix <- grown
        end;
        ix
  in
  let m = { m_fid = fid; m_ix = ix; m_head = g_nil; m_tail = g_nil } in
  t.mix.(ix) <- m;
  t.members <- t.members + 1;
  m

let detach_flow t m =
  Scheduler.remove t.sched m.m_ix;
  (* any remaining records on the member's chain are dead
     (release_flow_grants runs first on every teardown path); recycle the
     scheduler index *)
  t.mix.(m.m_ix) <- m_nil;
  t.mix_free <- m.m_ix :: t.mix_free;
  t.members <- Int.max 0 (t.members - 1)

let request t m =
  (* optional slow-start restart (RFC 2861 spirit): congestion state grows
     stale while the macroflow is idle; restarting avoids blasting an old
     window into a path whose conditions may have changed.  Off by
     default — Fig. 7's benefit is exactly this persistence. *)
  (match t.idle_restart with
  | Some threshold
    when t.outstanding = 0 && t.live_grants = 0
         && Time.diff (Engine.now t.engine) t.last_tx > threshold ->
      Controller.reset t.ctrl;
      refresh_cwnd t;
      t.last_tx <- Engine.now t.engine
  | _ -> ());
  Scheduler.enqueue t.sched m.m_ix;
  maybe_grant t

(* Consume the flow's oldest grant — O(1) via the member's own chain,
   however far out of global age order the flow transmits.  A flow with no
   grant outstanding consumes nothing (the transmission is charged
   directly), so one flow can no longer burn another's grant.  Returns
   [g_nil] (reserving 0 bytes) when nothing was consumed. *)
let take_grant t m =
  if t.live_grants = 0 then g_nil
  else begin
    fg_drop_dead m;
    if m.m_head == g_nil then g_nil
    else begin
      let g = fg_pop m in
      kill_grant t g;
      g
    end
  end

let notify t ~m ~nbytes () =
  if nbytes < 0 then invalid_arg "Macroflow.notify: negative byte count";
  (* Consume the flow's oldest grant; transmissions that arrive without a
     grant (e.g. buffered sends charged by the IP hook) are charged
     directly. *)
  let g = take_grant t m in
  if g != g_nil then t.granted_bytes <- Int.max 0 (t.granted_bytes - g.reserved);
  t.outstanding <- t.outstanding + nbytes;
  if nbytes > 0 then begin
    wake_maintenance t;
    t.last_tx <- Engine.now t.engine;
    Ewma.update_int t.avg_pkt nbytes;
    refresh_reservation t
  end;
  if nbytes = 0 then
    (* the client declined to use its grant; let another flow have it *)
    maybe_grant t
  else if window_avail t >= reservation t then
    (* a small transmission may have freed most of its reservation *)
    maybe_grant t

(* [canary_grant_leak] is the soak oracles' mutation canary: with it on,
   the released reservation is "forgotten" instead of returned to the
   window — precisely the grant-leak bug the ledger-skew audit exists to
   catch.  CI sets it to prove the oracle pipeline detects a real,
   silently-wrong ledger. *)
let release_flow_grants ?(canary_grant_leak = false) t m =
  (* Return a closing/crashed flow's unconsumed grants to the window
     immediately rather than waiting out the reclaim timer.  The member's
     own chain makes this proportional to the flow's grants, not the
     macroflow's. *)
  let released = ref 0 in
  while m.m_head != g_nil do
    let g = fg_pop m in
    if not g.g_dead then begin
      g.g_dead <- true;
      t.live_grants <- t.live_grants - 1;
      released := !released + g.reserved;
      t.grants_released <- t.grants_released + 1
    end
  done;
  if !released > 0 then begin
    gq_drop_dead t;
    if not canary_grant_leak then
      t.granted_bytes <- Int.max 0 (t.granted_bytes - !released);
    maybe_grant t
  end;
  !released

(* The grant ledger re-derived from first principles: [granted_bytes]
   minus the sum of live reservations on the age chain.  Anything but
   zero means a grant path lost or double-counted bytes — the audit
   invariant that catches leaks on *alive* macroflows (the
   dead-with-granted-bytes check only fires at teardown). *)
let granted_ledger_skew t =
  let rec live g acc =
    if g == g_nil then acc else live g.g_qnext (if g.g_dead then acc else acc + g.reserved)
  in
  t.granted_bytes - live t.gq_head 0

let discharge t nbytes =
  if nbytes > 0 then begin
    t.outstanding <- Int.max 0 (t.outstanding - nbytes);
    maybe_grant t
  end

let transfer_outstanding ~src ~dst nbytes =
  let n = Int.min nbytes src.outstanding in
  if n > 0 then begin
    src.outstanding <- src.outstanding - n;
    dst.outstanding <- dst.outstanding + n;
    wake_maintenance dst;
    maybe_grant src
  end

let update_rtt t sample =
  let s = float_of_int sample in
  let r = t.rtts in
  if not t.rtt_valid then begin
    r.srtt <- s;
    r.rttvar <- s /. 2.;
    t.rtt_valid <- true
  end
  else begin
    r.rttvar <- (0.75 *. r.rttvar) +. (0.25 *. Float.abs (r.srtt -. s));
    r.srtt <- (0.875 *. r.srtt) +. (0.125 *. s)
  end

let loss_mode_str = function
  | Cm_types.No_loss -> "none"
  | Cm_types.Ecn_echo -> "ecn"
  | Cm_types.Transient -> "transient"
  | Cm_types.Persistent -> "persistent"

let update t ~nsent ~nrecd ~loss ~rtt =
  if nsent < 0 || nrecd < 0 || nrecd > nsent then
    invalid_arg "Macroflow.update: need 0 <= nrecd <= nsent";
  t.last_feedback <- Engine.now t.engine;
  (match rtt with Some sample when sample > 0 -> update_rtt t sample | _ -> ());
  t.outstanding <- Int.max 0 (t.outstanding - nsent);
  if nsent > 0 then Ewma.update_ratio t.loss_ewma (nsent - nrecd) nsent;
  let was_slow_start = Controller.in_slow_start t.ctrl in
  (* Congestion-window validation (RFC 2861 spirit): only grow the window
     when the flow ensemble is actually using it, otherwise an
     application sending below its allowed rate inflates cwnd — and the
     advertised rate — without ever testing the path. *)
  let used = t.outstanding + nsent + granted t in
  if nrecd > 0 && 3 * used >= t.cwnd_now then begin
    Controller.on_ack t.ctrl ~nbytes:nrecd;
    refresh_cwnd t
  end;
  (match loss with
  | Cm_types.No_loss -> ()
  | mode ->
      Logs.debug ~src:log (fun m ->
          m "macroflow %d: %a congestion, cwnd %d -> reacting" t.id Cm_types.pp_loss_mode mode
            (cwnd t));
      let cwnd_before = cwnd t in
      Controller.on_loss t.ctrl mode;
      refresh_cwnd t;
      (* the controller's decision, attributed to its cause (ECN echo vs
         transient vs persistent/timeout) — Figs. 5–10 are built from
         exactly these transitions *)
      if Telemetry.Trace.on t.trace then
        Telemetry.Trace.instant t.trace ~cat:"cm" "cm.congestion"
          [
            ("mf", Telemetry.Trace.Int t.id);
            ("mode", Telemetry.Trace.Str (loss_mode_str mode));
            ("cwnd_before", Telemetry.Trace.Int cwnd_before);
            ("cwnd_after", Telemetry.Trace.Int (cwnd t));
            ("ssthresh", Telemetry.Trace.Int (ssthresh t));
          ];
      if mode = Cm_types.Persistent then
        (* after persistent congestion everything in flight is presumed
           lost; restart the accounting cleanly *)
        t.outstanding <- 0);
  (if Telemetry.Trace.on t.trace then
     let now_slow_start = Controller.in_slow_start t.ctrl in
     if now_slow_start <> was_slow_start then
       Telemetry.Trace.instant t.trace ~cat:"cm" "cm.state"
         [
           ("mf", Telemetry.Trace.Int t.id);
           ( "state",
             Telemetry.Trace.Str (if now_slow_start then "slow_start" else "cong_avoid") );
           ("cwnd", Telemetry.Trace.Int (cwnd t));
         ]);
  maybe_grant t;
  t.on_state_change ()

let srtt t = if t.rtt_valid then Some (int_of_float t.rtts.srtt) else None
let rttvar t = if t.rtt_valid then Some (int_of_float t.rtts.rttvar) else None
let loss_rate t = if Ewma.initialized t.loss_ewma then Ewma.value t.loss_ewma else 0.

let rate_bps t =
  if not t.rtt_valid then 0.
  else if t.rtts.srtt <= 0. then 0.
  else float_of_int (cwnd t) *. 8. /. (t.rtts.srtt /. 1e9)

let status t =
  {
    Cm_types.rate_bps = rate_bps t;
    srtt = srtt t;
    rttvar = rttvar t;
    loss_rate = loss_rate t;
    cwnd = cwnd t;
    mtu = t.mtu;
  }

let set_weight t m w = Scheduler.set_weight t.sched m.m_ix w
let pending_requests t = Scheduler.pending t.sched
let grants_issued t = t.grants_issued
let grants_reclaimed t = t.grants_reclaimed
let grants_released t = t.grants_released
let conservation_breaches t = t.conservation_breaches
let watchdog_fires t = t.watchdog_fires
let last_feedback t = t.last_feedback
let alive t = Option.is_some t.maintenance

let shutdown t =
  match t.maintenance with
  | Some timer ->
      Timer.stop timer;
      t.maintenance <- None
  | None -> ()

let pending_for_flow t m = Scheduler.pending_for t.sched m.m_ix
