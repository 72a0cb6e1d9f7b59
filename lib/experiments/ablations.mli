(** Ablation benches for the design choices DESIGN.md calls out.

    - {b Scheduler}: the paper ships unweighted round-robin but the
      modularity invites alternatives — two backlogged CC-UDP flows in
      one macroflow under round-robin vs a 3:1 weighted scheduler.
    - {b Controller}: AIMD vs the binomial family (IIAD, SQRT) driving a
      streaming source — smoother controllers trade oscillation for
      responsiveness (the paper's "other non-AIMD schemes … better suited
      to audio or video").
    - {b Sharing}: four concurrent web fetches with independent congestion
      state (native TCP) vs one shared macroflow (TCP/CM) — the ensemble
      is less aggressive and no less fair (paper §4.3/§6). *)

type sched_row = {
  scheduler : string;
  flow_a_bytes : int;
  flow_b_bytes : int;
  share_ratio : float;  (** flow_a / flow_b. *)
}

val sched_spec : Cm.Scheduler.factory -> Cm_spec.Spec.t
(** The scheduler ablation's pipe (4 Mbit/s, 20 ms) and its two
    backlogged datagram flows under a CM with this scheduler. *)

val run_scheduler : Exp_common.params -> sched_row list
(** Round-robin vs weighted (weight 3 for flow A). *)

type ctrl_row = {
  controller : string;
  mean_kbps : float;  (** Mean delivered rate, KBytes/s. *)
  cv : float;  (** Coefficient of variation of the per-100ms rate (smoothness; lower is smoother). *)
}

val ctrl_spec : Cm.Controller.factory -> Cm_spec.Spec.t
(** The controller ablation's pipe (8 Mbit/s, 25 ms, 30-packet queue)
    and its backlogged datagram flow under a CM with this controller. *)

val run_controller : Exp_common.params -> ctrl_row list
(** AIMD vs IIAD vs SQRT on a fixed 8 Mbps bottleneck. *)

type share_row = {
  setup : string;
  mean_completion_ms : float;
  max_completion_ms : float;
  total_retransmits : int;
}

val share_spec : Cm_spec.Spec.t
(** The sharing ablation's pipe: 6 Mbit/s, 25 ms, 40-packet queue. *)

val run_sharing : Exp_common.params -> share_row list
(** 4 concurrent 256 KB fetches: independent vs shared congestion state. *)

val print_scheduler : sched_row list -> unit
(** Print the scheduler ablation. *)

val print_controller : ctrl_row list -> unit
(** Print the controller ablation. *)

val print_sharing : share_row list -> unit
(** Print the sharing ablation. *)

type fairness_row = {
  mix : string;
  per_flow_kb : int list;  (** Bytes moved by each flow, KB. *)
  jain : float;  (** Jain's fairness index: 1.0 = perfectly fair. *)
}

val fairness_spec : Cm_spec.Spec.t
(** The fairness ablation's pipe: 8 Mbit/s, 20 ms, 60-packet queue,
    0.2% forward loss. *)

val run_fairness : Exp_common.params -> fairness_row list
(** All-native, all-CM (one macroflow), and a half-and-half mix sharing
    one bottleneck. *)

val print_fairness : fairness_row list -> unit
(** Print the fairness ablation. *)
