(** Event-driven fault injectors.

    Each injector is a process scheduled on the engine that perturbs one
    link: outages and flaps (with all-in-flight drops), delay/jitter
    spikes, bandwidth renegotiation (stepped or ramped), and bounded
    bursts of a channel-loss model.  A start time at or before "now"
    applies immediately, so injectors can be declared before or during a
    run.  {!Scenario} compiles declarative schedules onto these. *)

open Cm_util
open Eventsim
open Netsim

val bandwidth_steps : Engine.t -> Link.t -> (Time.t * float) list -> unit
(** Renegotiate the link's bandwidth to each listed value at the listed
    time — the time-varying available-bandwidth substitute for the
    paper's vBNS path. *)

val bandwidth_ramp :
  Engine.t -> Link.t -> at:Time.t -> to_bps:float -> over:Time.span -> steps:int -> unit
(** Linearly interpolate the bandwidth from its value at [at] to [to_bps]
    across [steps] discrete renegotiations spread over [over]. *)

val outage : Engine.t -> Link.t -> at:Time.t -> duration:Time.span -> unit
(** Take the link down at [at] (dropping the packet being serialized and
    everything in propagation) and bring it back [duration] later. *)

val flap : Engine.t -> Link.t -> at:Time.t -> down:Time.span -> up:Time.span -> cycles:int -> unit
(** [cycles] consecutive outages of length [down] separated by [up] of
    healthy operation. *)

val delay_spike :
  Engine.t ->
  Link.t ->
  at:Time.t ->
  extra:Time.span ->
  ?jitter:Time.span ->
  duration:Time.span ->
  unit ->
  unit
(** Inflate the propagation delay by [extra] (plus uniform per-packet
    jitter in \[0,[jitter])) between [at] and [at + duration]. *)

val loss_burst : Engine.t -> Link.t -> at:Time.t -> model:Loss.model -> duration:Time.span -> unit
(** Install [model] as the link's channel-loss process at [at] and revert
    to the link's baseline [loss_rate] after [duration]. *)
