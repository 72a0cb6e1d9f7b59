(** Figures 8–10: adaptive layered streaming over a time-varying path.

    A four-layer streaming source adapts to a bottleneck whose available
    bandwidth follows a schedule (our stand-in for the paper's live vBNS
    path — see DESIGN.md).  Three runs:

    - Fig. 8: ALF (request/callback) source, 25 s — fast, fine-grained
      layer tracking;
    - Fig. 9: rate-callback source with [cm_thresh], 20 s — coarser,
      smoother switches;
    - Fig. 10: rate-callback with receiver feedback batched to
      min(500 acks, 2 s), 70 s — bursty reported rate, slow start-up.

    Each series reports per-second transmission rate and the CM-reported
    rate, both in KBytes/s like the paper's axes. *)

type sample = {
  t_s : float;  (** Time, seconds. *)
  tx_kbps : float;  (** Transmission rate over the bin, KBytes/s. *)
  cm_kbps : float;  (** CM-reported per-flow rate, KBytes/s. *)
}

type series = { label : string; samples : sample list }

type figure = Fig8 | Fig9 | Fig10

val spec : figure -> Cm_spec.Spec.t
(** The 18 Mbit/s, 20 ms path (50-packet forward, 200-packet reverse
    queue), the bandwidth schedule its forward link follows for the
    figure's duration, and the figure's layered stream from ["a"]. *)

val run : Exp_common.params -> figure -> series

val print : series -> unit
(** Print one series. *)
