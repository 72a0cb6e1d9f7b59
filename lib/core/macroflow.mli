(** Macroflows: the CM's unit of congestion state aggregation.

    A macroflow is "a group of flows that share the same congestion state,
    control algorithms, and state information in the CM" (paper §2) —
    by default all flows to the same destination host.  It owns one
    congestion controller, one scheduler, the shared smoothed RTT
    estimate, and the window bookkeeping that turns controller decisions
    into per-flow transmission grants of one MTU each.

    Window accounting invariant: [outstanding + granted ≤ cwnd], where
    [outstanding] is payload bytes transmitted but not yet resolved by
    feedback, and [granted] is bytes promised to clients that have not yet
    transmitted.  Grants that are never followed by a [notify] are
    reclaimed by the maintenance timer (the paper's "timer-driven component
    to perform background tasks and error handling").

    The maintenance timer ticks every 100 ms only while there is
    something to maintain: a live grant or outstanding bytes.  A tick
    that finds neither parks the timer ({!Eventsim.Timer.park}), and the
    next grant, transmission or outstanding-byte transfer wakes it on
    its original phase, so an idle per-destination macroflow — kept for
    the congestion state it carries (Fig. 7) — queues no events.  A tick
    in that state would have had no effect, so parking changes no
    result. *)

open Cm_util
open Eventsim

type t
(** A macroflow. *)

type member
(** A flow's standing within one macroflow: its scheduler slot and its own
    chain of outstanding grants.  Returned by {!add_member}; the CM stores
    it in the flow entry and passes it back on every per-flow operation,
    so the grant path never looks a flow up by id. *)

val nil_member : member
(** Placeholder member for initializing storage before {!add_member};
    never passed to any operation. *)

val member_fid : member -> Cm_types.flow_id
(** The flow id the member was created for (stale after
    {!detach_flow}). *)

type watchdog = { wd_rtts : float; wd_floor : Time.span }
(** Feedback-watchdog parameters: with data outstanding, cwnd is aged one
    step (see {!Controller.age}) each time no [cm_update] arrives for
    [max wd_floor (wd_rtts · srtt)].  The floor covers macroflows with no
    RTT estimate yet. *)

val default_watchdog : watchdog
(** [{ wd_rtts = 3.0; wd_floor = 300 ms }] — about three RTTs of silence
    per aging step. *)

val create :
  Engine.t ->
  id:int ->
  mtu:int ->
  controller:Controller.factory ->
  scheduler:Scheduler.factory ->
  deliver_grant:(t -> member -> reserved:int -> unit) ->
  on_state_change:(unit -> unit) ->
  ?on_reclaim:(Cm_types.flow_id -> int -> unit) ->
  ?on_tick:(t -> unit) ->
  ?watchdog:watchdog ->
  ?grant_reclaim_after:Time.span ->
  ?idle_restart:Time.span ->
  unit ->
  t
(** [create eng ~id ~mtu ~controller ~scheduler ~deliver_grant
    ~on_state_change ()] builds an idle macroflow.  [deliver_grant] is
    invoked (from an engine event) once per grant with the macroflow, the
    granted member and the bytes reserved for it, so one hook can serve
    every macroflow; [on_state_change] after any feedback that may alter rate
    estimates.  Grants unclaimed after [grant_reclaim_after] (default
    500 ms) are returned to the window, reporting each to [on_reclaim]
    with the granted flow and reserved bytes (hoard detection).
    [on_tick] runs on every maintenance tick (the CM's per-flow staleness
    audit); a macroflow with [on_tick] never parks its maintenance timer,
    so the hook sees every tick.  [watchdog] enables feedback-staleness window aging; absent ⇒
    previous behaviour.  With [idle_restart], a request arriving after
    that much transmission silence resets the controller to its initial
    window (slow-start restart); by default congestion state persists —
    that persistence is the Fig. 7 benefit. *)

val placeholder : Engine.t -> t
(** An inert macroflow (id [-1]): no maintenance timer, no grants, no
    members.  It fills the macroflow pointer of the CM's empty-slot flow
    record and is never passed to any other operation. *)

val id : t -> int
(** Macroflow identifier. *)

val mtu : t -> int
(** Payload bytes per grant. *)

val cwnd : t -> int
(** Controller's current window (payload bytes). *)

val ssthresh : t -> int
(** Controller's slow-start threshold. *)

val outstanding : t -> int
(** Payload bytes in flight (sent, no feedback yet). *)

val granted : t -> int
(** Payload bytes granted but not yet transmitted. *)

val granted_ledger_skew : t -> int
(** {!granted} minus the sum of live grant reservations, re-derived by
    walking the grant age chain.  Always 0 unless a grant path lost or
    double-counted bytes — the audit invariant that catches ledger leaks
    on alive macroflows. *)

val members : t -> int
(** Number of flows attached. *)

val add_member : t -> Cm_types.flow_id -> member
(** Record a flow joining and return its member handle.  The handle's
    scheduler slot is macroflow-local and recycled after {!detach_flow},
    which keeps the scheduler's per-flow state dense however many flows
    the CM serves in total. *)

val detach_flow : t -> member -> unit
(** Remove a flow: discard its pending requests, recycle its scheduler
    slot, and decrement membership.  The handle must not be used
    afterwards. *)

val request : t -> member -> unit
(** One implicit request to send up to an MTU on behalf of the flow
    ([cm_request]). *)

val notify : t -> m:member -> nbytes:int -> unit -> unit
(** A packet of [nbytes] payload bytes of flow [m] was handed to the
    network ([cm_notify]); [nbytes = 0] returns an unused grant.  The
    consumed grant is the flow's own oldest one (O(1): the member holds
    its chain head); a flow with no outstanding grant consumes nothing
    and is charged directly. *)

val release_flow_grants : ?canary_grant_leak:bool -> t -> member -> int
(** Return all of the flow's unconsumed grants to the window immediately
    (close/crash path — not waiting for the reclaim timer) and wake the
    grant machinery.  Returns the bytes released.

    [canary_grant_leak] (default [false]) is a mutation canary, set only
    by a CM created with it (see [cm_expt soak --canary]): the released
    reservation deliberately leaks out of the ledger, so the soak oracles
    can prove they catch a real accounting bug. *)

val discharge : t -> int -> unit
(** Remove up to [nbytes] from [outstanding] without running controller
    feedback: the bytes' fate can never be learned (their flow closed or
    its process died). *)

val transfer_outstanding : src:t -> dst:t -> int -> unit
(** Move up to [nbytes] of outstanding charge from [src] to [dst]
    (clamped to [src]'s outstanding).  Used when a flow with unresolved
    bytes is moved between macroflows, e.g. on quarantine. *)

val update :
  t -> nsent:int -> nrecd:int -> loss:Cm_types.loss_mode -> rtt:Time.span option -> unit
(** Client feedback ([cm_update]): of [nsent] payload bytes whose fate is
    now known, [nrecd] arrived; [loss] classifies any congestion; [rtt] is
    an optional new RTT sample. *)

val srtt : t -> Time.span option
(** Shared smoothed RTT (combining samples from all member flows). *)

val rttvar : t -> Time.span option
(** Shared RTT mean deviation. *)

val loss_rate : t -> float
(** Smoothed loss fraction. *)

val rate_bps : t -> float
(** Macroflow sustainable rate estimate: [cwnd / srtt], in payload
    bits per second (0 until an RTT sample exists). *)

val status : t -> Cm_types.status
(** Snapshot for [cm_query] (macroflow-level; the CM divides rate among
    member flows). *)

val set_weight : t -> member -> float -> unit
(** Set a member flow's scheduler weight. *)

val pending_requests : t -> int
(** Requests queued awaiting window space. *)

val grants_issued : t -> int
(** Cumulative grants delivered. *)

val grants_reclaimed : t -> int
(** Cumulative grants reclaimed by the maintenance timer. *)

val grants_released : t -> int
(** Cumulative grants released early by {!release_flow_grants}. *)

val conservation_breaches : t -> int
(** Times a grant was issued while [outstanding + granted] exceeded
    [cwnd + one MTU] — checked at the moment credit is extended (the only
    moment it is meaningful: after a loss halves cwnd, outstanding may
    legitimately exceed it while the pipe drains).  Always 0 unless the
    granting logic regresses; the invariant auditor checks it. *)

val watchdog_fires : t -> int
(** Cumulative feedback-watchdog aging steps. *)

val last_feedback : t -> Time.t
(** Time of the most recent [cm_update] (creation time if none yet). *)

val alive : t -> bool
(** Whether the macroflow is live (maintenance timer running or parked);
    [false] after {!shutdown}. *)

val shutdown : t -> unit
(** Stop the maintenance timer (call when the macroflow is discarded). *)

val pending_for_flow : t -> member -> int
(** Requests this flow currently has queued in the scheduler. *)

val set_trace : t -> Telemetry.Trace.t -> unit
(** Route this macroflow's structured trace events (congestion reactions
    with their loss-mode attribution, slow-start/congestion-avoidance
    transitions) to [tr].  Macroflows start with {!Telemetry.Trace.nil},
    so the feedback path pays one branch per update until a live sink is
    wired (normally by [Cm.attach_telemetry]). *)
