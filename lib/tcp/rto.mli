(** Retransmission-timeout estimation (RFC 6298 / Jacobson-Karels).

    Maintains the smoothed RTT and its mean deviation, produces the RTO
    with exponential backoff, and implements Karn's rule (callers simply
    refrain from feeding samples taken from retransmitted segments). *)

open Cm_util

type t
(** Estimator state. *)

val create : ?min_rto:Time.span -> unit -> t
(** Fresh estimator.  Before any sample the RTO is a conservative 1 s
    (the RFC 6298 initial 3 s is shortened for simulation-scale runs
    but remains configurable through [min_rto]).  [min_rto] defaults to
    200 ms (Linux); backoff is capped at 120 s. *)

val observe : t -> Time.span -> unit
(** Fold in a fresh RTT sample (never from a retransmitted segment —
    Karn's algorithm) and clear any backoff. *)

val rto : t -> Time.span
(** Current retransmission timeout, including backoff. *)

val backoff : t -> unit
(** Double the RTO (timer expiry). *)

val srtt : t -> Time.span option
(** Smoothed RTT, if at least one sample has been folded in. *)

val rttvar : t -> Time.span option
(** RTT mean deviation. *)

val reset_backoff : t -> unit
(** Clear exponential backoff without a new sample. *)
