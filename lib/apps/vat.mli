(** vat-style interactive real-time audio (paper §3.6, Fig. 2).

    A constant-bit-rate audio source that cannot downsample, so the only
    adaptation lever is {e preemptive packet dropping}: the input stream
    passes through a policer (token bucket refilled at the CM-reported
    rate), then an application-level buffer with drop-from-head behaviour
    (long FIFO kernel queues are poison for interactive audio), and
    finally the CM-paced kernel buffer via the request/callback API. *)

open Cm_util
open Netsim

type t
(** A vat sender. *)

type vat_stats = {
  frames_in : int;  (** Frames produced by the audio source. *)
  policer_drops : int;  (** Frames preemptively dropped by the policer. *)
  buffer_drops : int;  (** Frames dropped from the head of the app buffer. *)
  frames_sent : int;  (** Frames handed to the network. *)
}
(** Sender-side accounting. *)

val create :
  Libcm.t ->
  host:Host.t ->
  dst:Addr.endpoint ->
  ?rate_bps:float ->
  ?app_buffer_frames:int ->
  unit ->
  t
(** [create libcm ~host ~dst ()] builds a 64 kbit/s source (160-byte
    frames every 20 ms) with a 10-frame drop-from-head application buffer.
    The policer enforces 0.95 of the CM-reported rate. *)

val start : t -> unit
(** Start the audio clock. *)

val stop : t -> unit
(** Stop the source. *)

val stats : t -> vat_stats
(** Snapshot of the sender counters. *)

val policer_rate_bps : t -> float
(** The rate the policer is currently enforcing. *)

(** Receiving side: plays out frames and measures quality. *)
module Receiver : sig
  type r
  (** A vat receiver bound to a port. *)

  val create :
    Host.t -> port:int -> ?playout_delay:Time.span -> unit -> r
  (** Listen for vat frames, acknowledge each one (providing the CM
      feedback), record one-way delays, and run a playout clock: the
      first frame anchors a schedule of one slot per frame interval
      (20 ms, the sender's) offset by [playout_delay] (default 100 ms); frames
      arriving after their slot miss playout. *)

  val frames_received : r -> int
  (** Frames that arrived. *)

  val delay_stats : r -> Stats.t
  (** One-way frame delays, in milliseconds. *)

  val playout_on_time : r -> int
  (** Frames that arrived before their playout slot. *)

  val playout_late : r -> int
  (** Frames that missed their playout slot (inaudible). *)
end
