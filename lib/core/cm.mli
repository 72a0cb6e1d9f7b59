(** The Congestion Manager.

    The paper's end-system module: maintains a flow table, aggregates
    flows into per-destination macroflows, and exposes the adaptation API
    (§2.1).  The function names map onto the paper's C API:

    - [open_flow] / [close_flow] — [cm_open] / [cm_close]
    - [mtu] — [cm_mtu]
    - [request] — [cm_request] (grant arrives via the registered
      [cmapp_send] callback)
    - [register_send] — [cm_register_send]
    - [register_update] / [set_thresh] — [cm_register_update] / [cm_thresh]
    - [update] — [cm_update]
    - [notify] — [cm_notify] (invoked automatically from the IP output
      hook once the CM is {!attach}ed to a host)
    - [query] — [cm_query]
    - [split] / [merge] — macroflow construction and splitting
    - [bulk_request] / [bulk_update] — the §5 batching optimization

    In-kernel clients (TCP, congestion-controlled UDP) call these functions
    directly; user-space clients go through [Libcm], which adds the
    control-socket machinery and its costs. *)

open Cm_util
open Netsim
open Eventsim

module Cm_types : module type of Cm_types
(** Shared types ({!Cm_types.status}, {!Cm_types.loss_mode}, …). *)

module Controller : module type of Controller
(** Congestion controllers (AIMD, binomial family). *)

module Scheduler : module type of Scheduler
(** Flow schedulers (round-robin, weighted). *)

module Macroflow : module type of Macroflow
(** Macroflow internals (stats, window accounting). *)

type t
(** A CM instance (one per sending host). *)

type aggregation =
  | By_destination
      (** The paper's default: all flows to one host share a macroflow. *)
  | By_destination_and_dscp
      (** §5's differentiated-services refinement: flows to one host with
          different DSCPs receive different network service, so they get
          separate macroflows. *)

type auditor = {
  grant_slack_pkts : int;
      (** Tolerated excess of notified over granted bytes, in MTUs
          (buffered senders legitimately run ahead of their grants). *)
  overclaim_slack_pkts : int;
      (** Tolerated excess of cumulative [nsent] over charged bytes, in
          MTUs. *)
  inflation_slack_pkts : int;
      (** Fixed part (in MTUs) of the charge-inflation bound: a flow
          earns a strike when its unresolved charge exceeds three
          macroflow windows plus this slack — honest unresolved charge is
          bounded by the pipe, phantom charge is not. *)
  silent_after : Time.span;
      (** A flow holding unresolved window charge earns a strike each
          time it sends no feedback for this long. *)
  quarantine_threshold : int;
      (** Suspicion score at which the flow is quarantined. *)
  policed_controller : Controller.factory;
      (** Controller for quarantine macroflows (conservative, capped). *)
}
(** Misbehaviour-auditor parameters.  The auditor cross-checks each
    flow's [notify]-charged bytes against its grants and its cumulative
    [nsent] against its charged bytes; inconsistent feedback is rejected
    — counted, never raised, on this kernel-facing path — and repeat
    offenders are quarantined by {!split}ting them into a policed
    macroflow, restoring the honest members' shared window. *)

val default_auditor : auditor
(** 64-MTU grant slack, 2-MTU overclaim slack, 16-MTU inflation slack,
    1 s silence strikes, quarantine at 3 strikes, and an AIMD policed
    controller capped at four packets. *)

val create :
  Engine.t ->
  ?mtu:int ->
  ?aggregation:aggregation ->
  ?controller:Controller.factory ->
  ?scheduler:Scheduler.factory ->
  ?grant_reclaim_after:Time.span ->
  ?idle_restart:Time.span ->
  ?feedback_watchdog:Macroflow.watchdog ->
  ?auditor:auditor ->
  ?canary_grant_leak:bool ->
  unit ->
  t
(** [create eng ()] builds a CM.  [mtu] is the usable payload per packet
    (default 1448, Ethernet 1500 minus simulated headers); [aggregation]
    defaults to {!By_destination}; [controller] defaults to
    {!Controller.aimd} with an initial window of one MTU; [scheduler]
    defaults to {!Scheduler.round_robin}.  [idle_restart] enables
    slow-start restart after that much idle time (off by default: the
    persistence is what Fig. 7 exploits).  [feedback_watchdog] ages
    macroflow windows whose feedback has gone stale
    ({!Macroflow.default_watchdog} is a reasonable choice) and [auditor]
    enables the misbehaving-application defenses; both default to off,
    which preserves the trusting pre-defense behaviour exactly.
    [canary_grant_leak] (default [false]) makes this CM leak every
    released grant out of its ledger — a mutation canary for the soak
    oracles ([cm_expt soak --canary]); never set it otherwise. *)

val attach : t -> Host.t -> unit
(** Install the CM's transmit hook on the host's IP output path, so every
    outgoing packet belonging to a CM flow is charged via [notify]
    automatically (paper §2.1.3).  The hook charges payload bytes; pure
    control packets (zero payload) are not charged. *)

val engine : t -> Engine.t
(** The engine this CM schedules callbacks on. *)

val open_flow : t -> Addr.flow -> Cm_types.flow_id
(** [cm_open]: allocate a flow for the 5-tuple and place it in the
    macroflow for its destination host (creating one if needed).
    Raises [Invalid_argument] if the 5-tuple is already open. *)

val close_flow : t -> Cm_types.flow_id -> unit
(** [cm_close]: release the flow; its macroflow is destroyed when the last
    member closes.  The flow's unconsumed grants are returned to the
    macroflow window immediately (not via the 500 ms reclaim timer) and
    its unresolved outstanding charge is discharged — no feedback can
    resolve it once the flow is gone.  Closing an unknown flow raises
    [Invalid_argument]. *)

val reap : t -> Cm_types.flow_id -> bool
(** Crash-tolerant close, used when a client process dies rather than
    closes ({!Libcm.destroy}): same reclamation as {!close_flow} but
    never raises.  Returns whether an open flow was actually reaped. *)

val mtu : t -> Cm_types.flow_id -> int
(** [cm_mtu]: usable payload bytes per transmission for this flow. *)

val register_send : t -> Cm_types.flow_id -> (Cm_types.flow_id -> unit) -> unit
(** [cm_register_send]: set the [cmapp_send] callback.  Each invocation is
    a grant to transmit up to one MTU on the given flow. *)

val register_update : t -> Cm_types.flow_id -> (Cm_types.status -> unit) -> unit
(** [cm_register_update]: set the [cmapp_update] rate callback. *)

val set_thresh : t -> Cm_types.flow_id -> down:float -> up:float -> unit
(** [cm_thresh]: fire the update callback when the flow's rate estimate
    falls below [down ×] or rises above [up ×] the last reported rate.
    Defaults are 0.5 / 2.0.  Requires [0 < down < 1 < up]. *)

val request : t -> Cm_types.flow_id -> unit
(** [cm_request]: one implicit request to send up to an MTU.  The grant
    arrives asynchronously through the [register_send] callback. *)

val update :
  t ->
  Cm_types.flow_id ->
  nsent:int ->
  nrecd:int ->
  loss:Cm_types.loss_mode ->
  ?rtt:Time.span ->
  unit ->
  unit
(** [cm_update]: feedback from the flow's receiver — [nsent] payload bytes
    resolved, of which [nrecd] arrived; [loss] classifies congestion;
    [rtt] is a fresh RTT sample if available.  With an {!auditor},
    malformed or overclaiming feedback is rejected and counted instead of
    applied (and, without one, malformed feedback raises
    [Invalid_argument] as before). *)

val notify : t -> Cm_types.flow_id -> nbytes:int -> unit
(** [cm_notify]: [nbytes] payload bytes of this flow were handed to the
    network ([0] relinquishes an unused grant).  Called automatically by
    the {!attach} hook; clients that decline a grant call it explicitly
    with [~nbytes:0]. *)

val query : t -> Cm_types.flow_id -> Cm_types.status
(** [cm_query]: current per-flow network state estimate.  The macroflow
    rate is divided evenly among member flows (round-robin sharing). *)

val bulk_request : t -> Cm_types.flow_id list -> unit
(** Batched [cm_request] (one call, many flows — §5 optimization). *)

val bulk_update :
  t ->
  (Cm_types.flow_id * int * int * Cm_types.loss_mode * Time.span option) list ->
  unit
(** Batched [cm_update]: [(flow, nsent, nrecd, loss, rtt)] tuples. *)

val macroflow_id : t -> Cm_types.flow_id -> int
(** Identifier of the macroflow the flow currently belongs to. *)

val split : t -> Cm_types.flow_id -> unit
(** Move the flow into a fresh macroflow of its own (fresh congestion
    state) — macroflow splitting for flows that should not share state,
    e.g. under differentiated services (§5). *)

val merge : t -> Cm_types.flow_id -> into:Cm_types.flow_id -> unit
(** Move the first flow into the macroflow of [into] (macroflow
    construction).  Pending requests are re-queued in the new macroflow. *)

val set_weight : t -> Cm_types.flow_id -> float -> unit
(** Scheduler weight of the flow within its macroflow (only meaningful
    with a weighted scheduler). *)

val lookup : t -> Addr.flow -> Cm_types.flow_id option
(** The flow id registered for a 5-tuple, if any (the "well-defined CM
    interface" the IP layer uses, §2.1.3). *)

val flow_key : t -> Cm_types.flow_id -> Addr.flow
(** The 5-tuple of an open flow. *)

val suspicion : t -> Cm_types.flow_id -> int
(** The flow's misbehaviour score (0 without an auditor). *)

val is_quarantined : t -> Cm_types.flow_id -> bool
(** Whether the auditor has quarantined the flow into a policed
    macroflow. *)

val flows : t -> Cm_types.flow_id list
(** All open flows (ascending id). *)

val live_flows : t -> int
(** Number of currently open flows.  O(1): tracked directly rather than
    derived from the directory, so the [cm.flows] telemetry gauge stays
    constant-time even after id recycling leaves holes. *)

val flow_slot_capacity : t -> int
(** Number of distinct flow-directory slots ever issued.  Ids recycle
    through a generation-stamped free list, so this is bounded by peak
    flow concurrency, not by the total number of flows ever opened. *)

val macroflow_of : t -> Cm_types.flow_id -> Macroflow.t
(** The flow's macroflow (stats and tests; treat as read-only). *)

val attach_telemetry : t -> Telemetry.t -> unit
(** Wire this CM into a telemetry instance: per-macroflow congestion
    internals (cwnd, ssthresh, rate, srtt, pipe, granted bytes, scheduler
    backlog, loss estimate — the quantities the paper's figures plot)
    become sampled gauges (columns [mf<id>.cwnd] …), aggregate API
    counters become [cm.*] gauges, and the flow table / controllers emit
    structured trace events: [cm.open] / [cm.close], [cm.congestion]
    (AIMD reaction with its ECN / transient / persistent attribution) and
    [cm.state] (slow-start ↔ congestion-avoidance transitions).
    Macroflows created later are wired automatically.  This is the CM's
    one instrumentation entry point: a bounded instance (the flight
    recorder's ring) is attached the same way.  Until this is called the
    CM holds the nil trace and every hot path pays only a branch. *)

val trace : t -> Telemetry.Trace.t
(** The structured trace sink this CM reports to ({!Telemetry.Trace.nil}
    until {!attach_telemetry}); in-kernel clients (TCP) pull this to tag
    their own events onto the same timeline. *)

type counters = {
  opens : int;
  closes : int;
  requests : int;
  grants : int;
  updates : int;
  notifies : int;
  declined_grants : int;
      (** Grants relinquished with [notify ~nbytes:0], plus grants whose
          flow had vanished or had no callback. *)
  rejected_updates : int;  (** Feedback the auditor refused to apply. *)
  rejected_notifies : int;  (** Notifies charged only up to the granted allowance. *)
  quarantines : int;  (** Flows split into policed macroflows. *)
  reaps : int;  (** Flows reclaimed from crashed processes. *)
}
(** Cumulative API-usage counters. *)

val counters : t -> counters
(** Snapshot of the counters. *)

val released_grant_bytes : t -> int
(** Cumulative grant bytes returned to windows by close / reap /
    quarantine (the immediate path, not the reclaim timer). *)

val teardown_probes : t -> int
(** Cumulative count of macroflows examined by the close / reap / move
    teardown path.  Constant per teardown by construction (the default-
    macroflow check is a single id-set probe); the scaling regression test
    asserts the per-close delta does not grow with the number of
    macroflows, without resorting to wall clocks. *)

val watchdog_fires : t -> int
(** Cumulative feedback-watchdog aging steps across all macroflows. *)

type audit_view = {
  av_mtu : int;
  av_flows : (Cm_types.flow_id * Addr.flow * Macroflow.t) list;
      (** Every open flow, ascending id, with its key and macroflow. *)
  av_key_entries : int;  (** Size of the key → id table. *)
  av_macroflows : Macroflow.t list;  (** Every macroflow ever created. *)
  av_default_macroflows : Macroflow.t list;
      (** The per-destination macroflows (these may persist empty). *)
  av_counters : counters;
}
(** Read-only snapshot of the CM's internal structure for {!Audit}. *)

val audit_view : t -> audit_view
(** Snapshot the structure the invariant auditor checks. *)

(** CM invariant auditor.

    Structural checks over a live {!t}, cheap enough to run periodically
    under fault storms:

    - window conservation: [outstanding + granted ≤ cwnd + one MTU] of
      slack, recorded at grant-issue time — the only moment it is
      meaningful, since after a loss halves cwnd the outstanding charge
      legitimately exceeds it while the pipe drains;
    - non-negative accounting (outstanding, granted, members, pending
      requests, every counter);
    - grant ledger sanity (never more reclaimed + released than issued);
    - flow-table bijection (each open flow's 5-tuple resolves back to it;
      both tables agree on size);
    - no leaks after close / crash: member counts match attached flows,
      no flow references a dead macroflow, dead macroflows hold no
      grants, and no non-default macroflow stays alive empty (it leaks
      its state). *)
module Audit : sig
  type report = {
    checked_flows : int;
    checked_macroflows : int;
    violations : string list;  (** Human-readable, in discovery order. *)
  }

  val run : t -> report
  (** Check every invariant; never raises. *)

  val ok : report -> bool
  (** [violations = []]. *)

  val pp : Format.formatter -> report -> unit
  (** One line when clean; the violation list otherwise. *)
end

val pp_summary : Format.formatter -> t -> unit
(** Render a diagnostic snapshot: open flows, macroflows, window state and
    API counters. *)
