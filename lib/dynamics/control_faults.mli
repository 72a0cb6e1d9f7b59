(** Seeded fault injection for the CM's control plane.

    A host receive filter that drops, duplicates and delays (and — via
    jitter — reorders) {e only} the packets a classifier selects, in
    practice {!Cmproto} feedback / resync / solicit packets, while every
    data packet passes untouched.  This separates "the network got
    worse" from "the congestion picture got worse": the path under
    measurement is unchanged, only the CM's view of it degrades.

    Replayed (duplicated / delayed) packets re-enter the host through
    [Host.deliver] and traverse the full filter chain again, invisible
    to the injector itself.  Install the injector {b before} any agent
    filter that consumes control traffic — host filters run in
    registration order.

    Determinism: all draws come from the [rng] handed to {!engage} (one
    stream per engagement window), so a seeded schedule perturbs packets
    identically across runs. *)

open Cm_util
open Netsim

type t
(** One injector on one host. *)

type profile = {
  drop : float;  (** Probability a matched packet is dropped. *)
  dup : float;  (** Probability a matched packet is also replayed at once. *)
  delay : Time.span;  (** Fixed extra delivery delay for matched packets. *)
  jitter : Time.span;  (** Uniform extra delay on top of [delay] — unequal
                           draws reorder consecutive control packets. *)
}
(** What happens to matched packets while a window is active.  [delay]
    and [jitter] both zero means matched packets are delivered inline
    (subject only to [drop] / [dup]). *)

val check_profile : ctx:string -> profile -> unit
(** Validate probabilities in \[0,1\] and non-negative spans; raises
    [Invalid_argument] prefixed with [ctx]. *)

type counters = {
  matched : int;  (** Packets the classifier selected. *)
  passed : int;  (** Matched packets delivered inline unmodified. *)
  dropped : int;
  duplicated : int;
  delayed : int;  (** Matched packets rescheduled (delay/jitter). *)
}

val install : Host.t -> classify:(Packet.t -> bool) -> t
(** Register the injector's receive filter (initially inactive: all
    traffic passes). *)

val engage : t -> rng:Rng.t -> at:Time.t -> profile:profile -> duration:Time.span -> unit
(** Schedule a fault window: the profile takes effect at [at] and clears
    [duration] later ([duration = 0] means it never clears).  A later
    engagement supersedes an active one; the superseded window's clear
    event is inert. *)

val active : t -> bool
(** Whether a profile is currently in force. *)

val counters : t -> counters
(** Injection counters (cumulative, windows included). *)
