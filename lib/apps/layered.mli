(** Layered streaming audio/video source (paper §3.4, Figs. 8–9).

    A source with a fixed set of cumulative encoding rates ("layers") that
    adapts which layer it transmits to the CM's estimate of available
    bandwidth, in one of the paper's two styles:

    - {b ALF} (request/callback): every packet is individually requested
      from the CM and the layer is chosen per-packet from [cm_query] —
      maximal responsiveness, maximal API overhead;
    - {b Rate callback}: the app runs its own transmission clock at the
      current layer's rate and changes layer only when the CM's
      [cmapp_update] callback (gated by [cm_thresh]) reports a
      significant rate change.

    Both styles are user-space clients: all CM interaction goes through
    {!Libcm} and is charged to the host CPU, and receiver feedback uses
    the application-level {!Udp.Feedback} protocol. *)

open Cm_util
open Netsim

type mode =
  | Alf  (** Request/callback, per-packet adaptation. *)
  | Rate_callback of { down : float; up : float }
      (** Self-clocked; layer changes on threshold crossings. *)

type t
(** A running (or stopped) source. *)

val create :
  Libcm.t ->
  host:Host.t ->
  dst:Addr.endpoint ->
  layers:float array ->
  mode:mode ->
  ?packet_bytes:int ->
  ?feedback_timeout:Time.span ->
  unit ->
  t
(** [create libcm ~host ~dst ~layers ~mode ()] builds a source sending to
    [dst] (where a {!Udp.Cc_socket.run_echo_receiver}-style acknowledger
    must run).  [layers] are cumulative rates in bits/s, ascending.
    [packet_bytes] is the frame size (default 1000).  The source keeps 4
    ALF requests outstanding and dares to use 0.9 of the reported rate.
    [feedback_timeout] the silence interval after which outstanding data is
    declared lost (raise it when the receiver batches feedback). *)

val start : t -> unit
(** Begin transmitting (idempotent). *)

val stop : t -> unit
(** Stop transmitting and feedback processing. *)

val current_layer : t -> int
(** Index of the layer currently transmitted (-1 before any estimate). *)

val packets_sent : t -> int
(** Data packets transmitted. *)

val bytes_sent : t -> int
(** Payload bytes transmitted. *)

val tx_timeline : t -> Timeline.t
(** Event log of transmissions (value = payload bytes) for rate plots. *)

val rate_timeline : t -> Timeline.t
(** Samples of the CM-reported per-flow rate (bits/s). *)

val layer_timeline : t -> Timeline.t
(** Samples of the chosen layer's cumulative rate (bits/s). *)

val flow : t -> Cm.Cm_types.flow_id
(** The CM flow id. *)
