(** Fault-injection scenario experiments (the dynamics subsystem's
    experiment family).

    Each canned scenario — Gilbert–Elliott burst loss, a 2 s link outage,
    and a sawtooth bandwidth renegotiation — is run against two CM
    applications: a TCP/CM bulk transfer and the ALF layered streaming
    source of Figs. 8–9.  Every run reports goodput before / during the
    fault and the {b recovery time}: how long after the fault clears until
    a 500 ms goodput bin again reaches 80 % of the pre-fault mean.

    Results are emitted as JSON via {!Exp_common.Json}; with a fixed seed
    the serialized output is byte-identical across runs. *)

open Cm_util
open Netsim

type scenario_id = Burst_loss | Outage | Sawtooth
type app_id = Tcp_cm_bulk | Layered_stream

type result = {
  r_scenario : string;
  r_app : string;
  r_duration : Time.span;
  r_fault_start : Time.t;  (** First disruption start. *)
  r_fault_clear : Time.t;  (** Last disruption end — recovery clock zero. *)
  r_goodput_bps : float;  (** Whole-run application goodput. *)
  r_pre_bps : float;  (** Mean binned goodput in [warmup, fault_start). *)
  r_fault_bps : float;  (** Mean binned goodput while the fault is active. *)
  r_recovery : Time.span option;
      (** Time from fault clearance to the end of the first 500 ms bin at
          ≥ 80 % of [r_pre_bps]; [None] if the run never recovers. *)
  r_layer_switches : int option;  (** Layered app only. *)
  r_stats : Link.stats;  (** Forward-link counters (drop breakdown). *)
}

val scenario_name : scenario_id -> string

val spec_of : scenario_id -> Cm_spec.Spec.t
(** The DSL source of the pipe + fault schedule for one scenario; every
    run is compiled from it through [Cm_spec.Check]/[Cm_spec.Build]. *)

val run_one : Exp_common.params -> scenario:scenario_id -> app:app_id -> result
(** Run one (scenario, application) cell on a fresh 8 Mbit/s, 20 ms pipe. *)

val run : Exp_common.params -> result list
(** The full 3 × 2 scenario/application matrix. *)

val result_json : result -> Exp_common.Json.t
val to_json : Exp_common.params -> result list -> Exp_common.Json.t

val print : Exp_common.params -> result list -> unit
(** Header plus the {!to_json} document on one line. *)
