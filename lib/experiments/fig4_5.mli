(** Figures 4 and 5: 100 Mbps throughput and CPU utilization vs. buffers
    transmitted, TCP/CM against native TCP.

    ttcp-style transfers of N × 8 KB buffers on a clean 100 Mbps LAN with
    the Pentium-III cost model active.  The paper's claims: throughput
    within ~0.5 % (the gap is the initial window, 1 vs 2 MTU, not CPU),
    and a CPU-utilization difference converging to slightly under 1 %. *)

type row = {
  buffers : int;  (** 8 KB buffers transferred. *)
  linux_kbps : float;  (** Native goodput, KBytes/s (Fig. 4). *)
  cm_kbps : float;  (** TCP/CM goodput, KBytes/s (Fig. 4). *)
  linux_cpu_pct : float;  (** Native sender CPU %, (Fig. 5). *)
  cm_cpu_pct : float;  (** TCP/CM sender CPU % (Fig. 5). *)
}

val spec : Cm_spec.Spec.t
(** The 100 Mbit/s, 250 µs pipe with a 1000-packet queue and the a → b
    transfer of the sweep's first point (1000 buffers); each point runs
    this spec with its own buffer count. *)

val run : Exp_common.params -> row list
(** Points 10^3..10^5 (plus 10^6 when [params.full]). *)

val print : row list -> unit
(** Print both figures' series. *)
