(** Figure 3: throughput vs. packet loss, TCP/CM against TCP/Linux.

    10 Mbps Dummynet pipe with a 60 ms RTT; bulk TCP transfer measured
    over 30 s at each loss rate.  The paper's claim: the CM's congestion
    control is TCP-compatible — the two curves track each other across
    the whole loss range. *)

type row = {
  loss_pct : float;  (** Random loss applied to the data direction, %. *)
  linux_kbps : float;  (** TCP/Linux goodput, KBytes/s. *)
  cm_kbps : float;  (** TCP/CM goodput, KBytes/s. *)
}

val loss_points : float list
(** The swept forward loss rates, in percent. *)

val spec_of : float -> Cm_spec.Spec.t
(** [spec_of loss_pct]: the 10 Mbit/s, 30 ms pipe with [loss_pct]
    percent forward loss, and the a → b transfer (a backlog no 30 s run
    exhausts). *)

val run : Exp_common.params -> row list
(** Execute the sweep. *)

val print : row list -> unit
(** Print paper-shaped rows. *)
