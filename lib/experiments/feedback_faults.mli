(** Feedback-plane fault experiment family.

    An honest {!Cmproto} macroflow whose control traffic — and only it —
    is degraded by seeded {!Cm_dynamics.Control_faults} injectors while
    the data path stays pristine.  Cases: lossless baseline; a total
    10 s feedback blackout (the macroflow must decay to its floor
    without auditor strikes and re-attain ≥ 0.9× pre-fault goodput
    within 5 s of feedback returning); a degraded plane (30% drop, 15%
    duplication, 20 ms jitter reordering — goodput must stay within 15%
    of lossless); and a receiver-agent crash/restart exercising the
    epoch/Resync protocol.  Deterministic JSON keyed only by the seed. *)

type result = {
  r_case : string;
  r_pre_bps : float;
  r_fault_bps : float;
  r_recover_bps : float;
  r_recovery_ratio : float;
  r_fault_ratio : float;
  r_floor_cwnd : int;
  r_packets_sent : int;
  r_solicits : int;
  r_defense : Cmproto.Sender_agent.counters;
  r_receiver_epoch : int;
  r_receiver_resyncs : int;
  r_dropped_while_down : int;
  r_injected : Cm_dynamics.Control_faults.counters option;
  r_watchdog_fires : int;
  r_audit_runs : int;
  r_audit_violations : string list;
}

type case = Baseline | Blackout | Degraded | Crash_restart

val spec : case -> Cm_spec.Spec.t
(** The 8 Mbit/s, 20 ms pipe with a 50-packet forward queue, the
    sender's defended CM, the cmproto session from ["a"] to ["b"] and
    the case's control-plane fault steps on those hosts. *)

val run_case : Exp_common.params -> case -> result
(** One case in isolation ([r_fault_ratio] left at 0 — only {!run}
    normalizes against the baseline).  Exposed for the report driver. *)

val run : Exp_common.params -> result list
(** One result per case, baseline first ([r_fault_ratio] is relative to
    the baseline run's fault-window goodput). *)

val to_json : Exp_common.params -> result list -> Exp_common.Json.t

val print : Exp_common.params -> result list -> unit
(** Header plus the JSON document on stdout (byte-stable per seed). *)
