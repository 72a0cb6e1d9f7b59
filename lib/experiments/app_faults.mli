(** Endpoint-fault experiment family.

    Two honest TCP/CM bulk transfers share a bottleneck (and a
    destination macroflow) with four greedy libcm UDP applications.
    {!Cm_dynamics.App_faults} drives the UDP apps into misbehaviour —
    crash, feedback silence, fabricated no-loss claims, grant hoarding,
    double notifies, and a concurrent storm of all four — while the CM
    runs with the feedback watchdog and misbehaviour auditor enabled and
    {!Cm.Audit} sweeps the structural invariants every 500 ms.

    Reported per case (deterministic JSON for a fixed seed): the injected
    schedule, defense latency (first quarantine or reap), the rejection /
    reclamation counters, per-offender fate, honest goodput before the
    fault and after the 10 s recovery deadline, the recovery ratio
    against the fault-free baseline, and the invariant-audit verdict. *)

open Cm_util

type case = Baseline | Crash | Silence | Lie | Hoard | Double_notify | Storm

val all_cases : case list
val case_name : case -> string

type offender_report = {
  o_name : string;
  o_alive : bool;  (** process still up — [false] after a crash *)
  o_flow_open : bool;  (** CM flow still in the flow table *)
  o_suspicion : int option;  (** [None] once the flow is gone *)
  o_quarantined : bool option;
  o_sent_pkts : int;
}

type result = {
  r_case : string;
  r_faults : string list;  (** injected steps, ["target:kind"] *)
  r_fault_at : Time.t option;  (** earliest onset *)
  r_first_defense : Time.t option;
      (** first quarantine or reap (100 ms polling resolution) *)
  r_counters : Cm.counters;
  r_watchdog_fires : int;
  r_released_grant_bytes : int;
  r_offenders : offender_report list;
  r_honest_pre_bps : float;  (** combined TCP goodput, warmup → fault *)
  r_honest_post_bps : float;  (** combined TCP goodput, deadline → end *)
  r_recovery_ratio : float;  (** post goodput vs the baseline run's *)
  r_audit_runs : int;
  r_audit_violations : string list;  (** deduplicated, discovery order *)
}

val spec : Cm_spec.Spec.t
(** The 8 Mbit/s, 20 ms pipe with a 50-packet forward queue. *)

val run_case : Exp_common.params -> case -> result
(** One 20 s simulated run of the given case ([r_recovery_ratio] is 0
    until {!run} fills it in against the baseline). *)

val run : Exp_common.params -> result list
(** All cases, baseline first; recovery ratios normalized to the
    baseline's post-window goodput. *)

val to_json : Exp_common.params -> result list -> Exp_common.Json.t
val print : Exp_common.params -> result list -> unit
